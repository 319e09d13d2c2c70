#include "engine/churn_driver.h"

#include <algorithm>
#include <atomic>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "util/metrics.h"
#include "util/trace_span.h"

namespace wdm::engine {

namespace {

/// Driver instruments (see docs/BENCHMARKS.md glossary). engine.batches and
/// the outcome counters are deterministic; engine.drain_batch is wall time.
struct DriverMetrics {
  Counter& batches = metrics().counter("engine.batches");
  Counter& arrivals = metrics().counter("engine.arrivals");
  Counter& blocked = metrics().counter("engine.blocked");
  Counter& stale_rejected = metrics().counter("engine.stale_rejected");
  Counter& grow_blocked = metrics().counter("engine.grow_blocked");
  TimerStat& drain_batch = metrics().timer("engine.drain_batch");
  Histogram& request_fanout = metrics().histogram("engine.request_fanout");
  Histogram& grow_candidates = metrics().histogram("engine.grow_candidates");

  static DriverMetrics& get() {
    static DriverMetrics instance;
    return instance;
  }
};

}  // namespace

std::string ChurnStats::to_string() const {
  std::ostringstream os;
  os << "shards=" << per_shard.size() << " " << total.sim.to_string()
     << " grows=" << total.grows << "/" << total.grow_attempts
     << " stale_rejected=" << total.stale_rejected << "/" << total.stale_probes
     << " leftover=" << leftover_sessions;
  return os.str();
}

ChurnDriver::ChurnDriver(ShardedEngine& engine, ChurnConfig config)
    : engine_(&engine), config_(config) {}

void ChurnDriver::fail(const char* what) const {
  engine_->dump_flight_recorders(std::cerr);
  throw std::logic_error(what);
}

void ChurnDriver::remember_stale(Lane& lane, ConnectionId id) {
  if (lane.stale.size() < kStaleRing) {
    lane.stale.push_back(id);
  } else {
    lane.stale[lane.stale_cursor] = id;
    lane.stale_cursor = (lane.stale_cursor + 1) % kStaleRing;
  }
}

void ChurnDriver::tick(Lane& lane) {
  if (config_.connect_batch > 0) {
    tick_batched(lane);
    return;
  }
  DriverMetrics& instruments = DriverMetrics::get();
  MultistageSwitch& sw = engine_->shard_switch(lane.shard);
  ThreeStageNetwork& network = sw.network();
  ShardChurnStats& stats = lane.stats;
  SimStats& sim = stats.sim;

  ++sim.steps;
  sim.active_connection_steps += lane.active.size();

  // Stale-id probe: replay a disposed (possibly slot-reused) id against the
  // shard; the generation tag must reject it without touching anything.
  if (!lane.stale.empty() && lane.rng.next_bool(config_.stale_probe_fraction)) {
    ++stats.stale_probes;
    const ConnectionId stale =
        lane.stale[lane.rng.next_below(lane.stale.size())];
    if (network.try_release(stale)) {
      ++stats.stale_accepted;  // corruption; surfaced by every caller's checks
    } else {
      ++stats.stale_rejected;
      instruments.stale_rejected.add();
    }
  }

  const bool arrive =
      lane.active.empty() || lane.rng.next_bool(config_.arrival_fraction);
  if (arrive) {
    const auto request = random_admissible_request(
        lane.rng, network, config_.fanout, engine_->owned_ports(lane.shard));
    if (request) {
      ++sim.attempts;
      instruments.arrivals.add();
      instruments.request_fanout.record(request->outputs.size());
      if (const auto id = engine_->connect_locked(lane.shard, *request)) {
        ++sim.admitted;
        sim.conversions += conversions_in_route(
            *request, network.find_connection(*id)->second);
        lane.active.push_back(*id);
        sim.max_concurrent = std::max(sim.max_concurrent, lane.active.size());
      } else {
        ++sim.blocked;
        instruments.blocked.add();
      }
    }
  } else if (lane.rng.next_bool(config_.grow_fraction)) {
    grow_tick(lane, static_cast<std::size_t>(
                        lane.rng.next_below(lane.active.size())));
  } else {
    const std::size_t victim =
        static_cast<std::size_t>(lane.rng.next_below(lane.active.size()));
    const ConnectionId id = lane.active[victim];
    if (!engine_->disconnect_locked(lane.shard, id)) {
      fail("ChurnDriver: live session rejected as stale");
    }
    remember_stale(lane, id);
    lane.active[victim] = lane.active.back();
    lane.active.pop_back();
    ++sim.departures;
  }

  if (config_.self_check_every != 0 &&
      sim.steps % config_.self_check_every == 0) {
    network.self_check();
  }
}

void ChurnDriver::tick_batched(Lane& lane) {
  ShardChurnStats& stats = lane.stats;
  SimStats& sim = stats.sim;
  ++sim.steps;

  const ThreeStageNetwork& network = engine_->shard_switch(lane.shard).network();
  // Every decision below draws only on the shard rng -- never on live state
  // -- so the tick stream (and with it every flush boundary) is a pure
  // function of (seed, shard, tick index), independent of batch size.
  if (lane.rng.next_bool(config_.arrival_fraction)) {
    // State-free arrival: a uniform request remapped onto an owned source
    // port (the remap keeps the shard-ownership invariant; the lane
    // discipline is port-independent, so the remapped request stays legal).
    // A shard can own no ports (rendezvous hashing makes no coverage
    // promise); the classic path's generator returns nullopt there, and the
    // batched path mirrors it by skipping the arrival. Ownership is a
    // per-config constant, so the rng stream stays batch-size-independent.
    const auto& owned = engine_->owned_ports(lane.shard);
    if (owned.empty()) return;
    MulticastRequest request =
        random_request(lane.rng, network.port_count(), network.lane_count(),
                       network.network_model(), config_.fanout);
    request.input.port = owned[lane.rng.next_below(owned.size())];
    ++sim.attempts;
    DriverMetrics& instruments = DriverMetrics::get();
    instruments.arrivals.add();
    instruments.request_fanout.record(request.outputs.size());
    lane.pending.push_back(std::move(request));
    if (lane.pending.size() >= config_.connect_batch) flush_pending(lane);
  } else {
    // Flush-before-any-state-read: the victim draw and the emptiness test
    // must see the canonical (all-prior-ops-applied) session set.
    flush_pending(lane);
    sim.active_connection_steps += lane.active.size();
    if (!lane.active.empty()) {
      const std::size_t victim =
          static_cast<std::size_t>(lane.rng.next_below(lane.active.size()));
      const ConnectionId id = lane.active[victim];
      if (!engine_->disconnect_locked(lane.shard, id)) {
        fail("ChurnDriver: live session rejected as stale");
      }
      lane.active[victim] = lane.active.back();
      lane.active.pop_back();
      ++sim.departures;
    }
  }

  if (config_.self_check_every != 0 &&
      sim.steps % config_.self_check_every == 0) {
    flush_pending(lane);
    network.self_check();
  }
}

void ChurnDriver::flush_pending(Lane& lane) {
  if (lane.pending.empty()) return;
  const std::size_t n = lane.pending.size();
  lane.outcomes.resize(n);
  engine_->connect_batch_locked(lane.shard, lane.pending.data(), n,
                                lane.outcomes.data());

  const ThreeStageNetwork& network = engine_->shard_switch(lane.shard).network();
  SimStats& sim = lane.stats.sim;
  // Deferred account-before-op: when pending op i was generated, every
  // earlier op had either flushed or sat ahead of it in this buffer, so its
  // canonical "sessions live before me" is base + the admissions ahead.
  const std::size_t base = lane.active.size();
  std::size_t admitted_ahead = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sim.active_connection_steps += base + admitted_ahead;
    const BatchOutcome& out = lane.outcomes[i];
    if (out.ok) {
      ++sim.admitted;
      sim.conversions += conversions_in_route(
          lane.pending[i], network.find_connection(out.id)->second);
      lane.active.push_back(out.id);
      ++admitted_ahead;
    } else if (out.error == ConnectError::kBlocked) {
      // Routing blocks count as blocked; busy-endpoint rejections (possible
      // because generation is state-free) are neither admitted nor blocked.
      ++sim.blocked;
      DriverMetrics::get().blocked.add();
    }
  }
  // Sessions only accumulate between departures, and departures flush first,
  // so every concurrency peak is visible at the end of some flush.
  sim.max_concurrent = std::max(sim.max_concurrent, lane.active.size());
  lane.pending.clear();
}

void ChurnDriver::grow_tick(Lane& lane, std::size_t victim) {
  ShardChurnStats& stats = lane.stats;
  ++stats.grow_attempts;
  ThreeStageNetwork& network = engine_->shard_switch(lane.shard).network();
  const ConnectionId id = lane.active[victim];
  const auto* entry = network.find_connection(id);
  if (entry == nullptr) {
    fail("ChurnDriver: lost track of a live session");
  }
  const MulticastRequest& request = entry->first;
  const std::size_t N = network.port_count();
  const std::size_t k = network.lane_count();

  // One wavelength per output port: only ports the session does not already
  // deliver to can take the new destination.
  auto port_used = [&request](std::size_t port) {
    return std::any_of(request.outputs.begin(), request.outputs.end(),
                       [port](const WavelengthEndpoint& out) {
                         return out.port == port;
                       });
  };

  // Candidate destinations under the network model's lane discipline
  // (mirrors random_admissible_request's per-model rules).
  std::vector<WavelengthEndpoint> candidates;
  switch (network.network_model()) {
    case MulticastModel::kMSW:
    case MulticastModel::kMSDW: {
      // MSW fans out on the source lane; MSDW on the request's (single)
      // destination lane. Both pin every destination to one lane.
      const Wavelength lane_required = network.network_model() ==
                                               MulticastModel::kMSW
                                           ? request.input.lane
                                           : request.outputs.front().lane;
      for (std::size_t port = 0; port < N; ++port) {
        if (!port_used(port) && !network.output_busy({port, lane_required})) {
          candidates.push_back({port, lane_required});
        }
      }
      break;
    }
    case MulticastModel::kMAW: {
      for (std::size_t port = 0; port < N; ++port) {
        if (port_used(port)) continue;
        std::vector<Wavelength> lanes;
        for (Wavelength lane_candidate = 0; lane_candidate < k;
             ++lane_candidate) {
          if (!network.output_busy({port, lane_candidate})) {
            lanes.push_back(lane_candidate);
          }
        }
        if (!lanes.empty()) {
          candidates.push_back(
              {port, lanes[lane.rng.next_below(lanes.size())]});
        }
      }
      break;
    }
  }
  DriverMetrics::get().grow_candidates.record(candidates.size());
  if (candidates.empty()) {
    ++stats.grow_blocked;
    DriverMetrics::get().grow_blocked.add();
    return;
  }

  const WavelengthEndpoint destination =
      candidates[lane.rng.next_below(candidates.size())];
  const GrowResult result = engine_->grow_locked(lane.shard, id, destination);
  switch (result.status) {
    case GrowResult::Status::kGrown:
      ++stats.grows;
      break;
    case GrowResult::Status::kBlocked:
      ++stats.grow_blocked;
      break;
    case GrowResult::Status::kStaleSession:
      fail("ChurnDriver: grow lost a live session");
  }
  // Break-before-make: the session carries a fresh id either way, and the
  // old id is exactly the stale-probe material we want.
  remember_stale(lane, id);
  lane.active[victim] = result.connection;
}

std::vector<std::unique_ptr<ChurnDriver::Lane>> ChurnDriver::make_lanes()
    const {
  std::vector<std::unique_ptr<Lane>> lanes;
  lanes.reserve(engine_->shard_count());
  for (std::size_t s = 0; s < engine_->shard_count(); ++s) {
    lanes.push_back(std::make_unique<Lane>(s, config_));
  }
  return lanes;
}

ChurnStats ChurnDriver::merge(std::vector<std::unique_ptr<Lane>>& lanes) const {
  ChurnStats out;
  out.per_shard.reserve(lanes.size());
  for (const auto& lane : lanes) {  // ascending shard order, always
    const ShardChurnStats& stats = lane->stats;
    out.per_shard.push_back(stats);
    out.total.sim += stats.sim;
    out.total.grow_attempts += stats.grow_attempts;
    out.total.grows += stats.grows;
    out.total.grow_blocked += stats.grow_blocked;
    out.total.stale_probes += stats.stale_probes;
    out.total.stale_rejected += stats.stale_rejected;
    out.total.stale_accepted += stats.stale_accepted;
    out.leftover_sessions += lane->active.size();
  }
  return out;
}

ChurnStats ChurnDriver::run(ThreadPool& pool) {
  std::vector<std::unique_ptr<Lane>> lanes = make_lanes();
  if (config_.ops_per_shard == 0) return merge(lanes);

  const std::size_t shard_count = lanes.size();
  const std::size_t batch = std::max<std::size_t>(1, config_.batch);
  const std::size_t batches_per_shard =
      (config_.ops_per_shard + batch - 1) / batch;
  const std::size_t total_batches = batches_per_shard * shard_count;
  std::atomic<std::size_t> cursor{0};

  const std::size_t workers = std::max<std::size_t>(1, config_.workers);
  pool.parallel_for(workers, [&](std::size_t) {
    TraceSpan span("engine.worker");
    for (;;) {
      const std::size_t claim = cursor.fetch_add(1, std::memory_order_relaxed);
      if (claim >= total_batches) return;
      Lane& lane = *lanes[claim % shard_count];
      const std::size_t begin = (claim / shard_count) * batch;
      const std::size_t size = std::min(batch, config_.ops_per_shard - begin);
      DriverMetrics::get().batches.add();
      // The count rides the shard's queue; the ticks it stands for come
      // from the shard-resident stream, whichever thread runs the op.
      engine_->run_exclusive(lane.shard, [&] {
        ScopedTimer timer(DriverMetrics::get().drain_batch);
        TraceSpan batch_span("engine.drain_batch");
        batch_span.arg("shard", static_cast<std::int64_t>(lane.shard));
        batch_span.arg("ops", static_cast<std::int64_t>(size));
        for (std::size_t i = 0; i < size; ++i) tick(lane);
      });
    }
  });

  if (config_.connect_batch > 0) {
    // Arrivals still buffered when the tick streams ran out flush here, so
    // every generated op lands in the stats regardless of batch alignment.
    for (const auto& lane : lanes) {
      engine_->run_exclusive(lane->shard, [&] { flush_pending(*lane); });
    }
  }
  return merge(lanes);
}

ChurnStats ChurnDriver::run() { return run(default_pool()); }

ChurnStats ChurnDriver::run_serial() {
  std::vector<std::unique_ptr<Lane>> lanes = make_lanes();
  for (const auto& lane : lanes) {
    engine_->run_exclusive(lane->shard, [&] {
      for (std::size_t op = 0; op < config_.ops_per_shard; ++op) tick(*lane);
      if (config_.connect_batch > 0) flush_pending(*lane);
    });
  }
  return merge(lanes);
}

}  // namespace wdm::engine
