// engine_large and engine_bound: two closed-loop clients drive a
// ShardedEngine through its public session API, each writing to the half of
// the shards it owns and reading from all of them, each pinned to its own
// CPU.
//
// An untraced run repeats one unit `reps` times: build an engine, prefill it
// (timed as set-up), warm up, then a timed pass over the same generated
// writes. Every figure is taken over a whole pass and reported as the median
// over the passes.
#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "engine/sharded_engine.h"
#include "multistage/nonblocking.h"
#include "obs/flight_recorder.h"
#include "obs/health_snapshot.h"
#include "obs/session_table.h"
#include "shadow.h"
#include "util/metrics.h"
#include "util/trace_span.h"
#include "workloads.h"

namespace perfbench {

namespace {

using wdm::engine::GrowResult;
using wdm::engine::SessionId;
using wdm::engine::ShardedEngine;

struct EngineWorkload {
  GeneratorSpec gen;
  wdm::Construction construction = wdm::Construction::kMswDominant;
  /// The Theorem 1/2 oracle applies: any blocked connect or grow fails.
  bool blocks_fail = false;
  /// engine_bound: four lock-free probes follow every write.
  bool probes = false;
  /// engine_large: one health_snapshot() every this many writes, rotating
  /// over all shards, the other client's included (0 = none).
  std::size_t snapshot_every = 0;
  /// Timed writes per client per requested second, and warm-up writes.
  std::size_t writes_per_second = 0;
  std::size_t warmup_writes = 0;
  /// Set-ups and timed passes of an untraced run.
  std::size_t reps = 1;
  /// Writes per client in the traced pass (its spans fit the trace rings).
  std::size_t traced_writes = 0;
};

EngineWorkload make_workload(const Options& options) {
  const bool tiny = options.size == Size::kTiny;
  EngineWorkload w;
  GeneratorSpec& g = w.gen;
  if (options.workload == "engine_large") {
    // The soak geometry: n = r = 128, m = 136, k = 64, far below Theorem 1's
    // bound, so blocks are legitimate outcomes here.
    g.params = tiny ? wdm::ClosParams{16, 16, 18, 8}
                    : wdm::ClosParams{128, 128, 136, 64};
    g.model = wdm::MulticastModel::kMSW;
    g.shards = 8;
    g.prefill_per_shard = tiny ? 64 : 3072;
    w.construction = wdm::Construction::kMswDominant;
    w.snapshot_every = 8;
    w.writes_per_second = tiny ? 200 : 10000;
    w.warmup_writes = tiny ? 50 : 4000;
    w.reps = tiny ? 2 : 5;
    w.traced_writes = tiny ? 100 : 20000;
  } else {
    // engine_bound: MAW-dominant at Theorem 2's bound, where no admissible
    // request may block. The tiny size loads a smaller switch harder, so
    // that the smoke test's run well below the bound does block.
    const std::size_t n = tiny ? 4 : 8;
    const std::size_t r = tiny ? 8 : 16;
    const std::size_t k = tiny ? 4 : 64;
    const std::size_t bound = wdm::theorem2_min_m(n, r, k).m;
    g.params = {n, r, options.middles != 0 ? options.middles : bound, k};
    g.model = wdm::MulticastModel::kMAW;
    g.shards = tiny ? 2 : 4;
    g.prefill_per_shard = tiny ? 40 : 1024;
    w.construction = wdm::Construction::kMawDominant;
    w.blocks_fail = true;
    w.probes = true;
    w.writes_per_second = tiny ? 2000 : 120000;
    w.warmup_writes = tiny ? 200 : 20000;
    w.reps = tiny ? 2 : 9;
    w.traced_writes = tiny ? 500 : 8000;
  }
  return w;
}

/// Run-time state of one client: its view of which generated sessions are
/// live, under which ids, plus what it measured.
struct Client {
  std::size_t index = 0;
  const ClientPlan* plan = nullptr;
  std::vector<std::optional<SessionId>> ids;  // [handle]
  std::vector<std::uint64_t> live;            // [global shard]
  std::vector<SessionId> stale;               // ring of dead ids
  std::size_t stale_next = 0;
  std::size_t read_rotor = 0;  // next shard for a snapshot or pre-check
  std::size_t writes_done = 0;
  wdm::MulticastRequest request;  // reused connect payload

  // Tallies of the current phase.
  std::uint64_t calls = 0;
  std::uint64_t writes = 0;
  std::uint64_t offered = 0;
  std::uint64_t blocked = 0;
  std::uint64_t skipped = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  bool reads = false;   // interleave the workload's reads with the writes
  bool record = false;  // keep latency samples
  std::vector<float> write_us;
  std::vector<float> read_us;
  /// Traced phase: (op id, client-side wall us) of every write.
  std::vector<std::pair<std::int64_t, double>> write_walls;
  bool keep_walls = false;
  double busy_s = 0.0;

  void reset_tallies() {
    calls = writes = offered = blocked = skipped = failed = 0;
    failures.clear();
    write_us.clear();
    read_us.clear();
    write_walls.clear();
  }

  void fail(const std::string& what) {
    ++failed;
    if (failures.size() < 4) failures.push_back(what);
  }

  void retire(const SessionId& id) {
    constexpr std::size_t kStaleRing = 4096;
    if (stale.size() < kStaleRing) {
      stale.push_back(id);
    } else {
      stale[stale_next] = id;
      stale_next = (stale_next + 1) % kStaleRing;
    }
  }
};

class EngineRun {
 public:
  EngineRun(const EngineWorkload& workload, std::vector<ClientPlan>& plans,
            std::size_t bound_m)
      : w_(workload), plans_(plans), at_or_above_bound_(workload.gen.params.m >= bound_m),
        owner_(workload.gen.shards), max_sessions_(workload.gen.shards, 0) {
    for (std::size_t c = 0; c < plans.size(); ++c) {
      for (const std::size_t shard : plans[c].shards) owner_[shard] = c;
      for (const std::uint32_t shard : plans[c].handle_shard) ++max_sessions_[shard];
    }
  }

  ShardedEngine& engine() { return *engine_; }
  std::vector<Client>& clients() { return clients_; }

  /// Build a fresh engine and reset every client to "no sessions".
  void build() {
    engine_.reset();  // the previous engine's memory is freed first
    wdm::engine::EngineConfig config;
    config.params = w_.gen.params;
    config.construction = w_.construction;
    config.network_model = w_.gen.model;
    config.shards = w_.gen.shards;
    engine_ = std::make_unique<ShardedEngine>(config);
    clients_.assign(plans_.size(), Client{});
    for (std::size_t c = 0; c < plans_.size(); ++c) {
      Client& client = clients_[c];
      client.index = c;
      client.plan = &plans_[c];
      client.ids.assign(plans_[c].handle_shard.size(), std::nullopt);
      client.live.assign(w_.gen.shards, 0);
    }
  }

  enum class Segment { kPrefill, kWarmup, kTimed };

  /// Run ops [begin, end) of `segment` on every client concurrently; returns
  /// the phase wall time (first start to last finish) in seconds.
  double run_phase(Segment segment, std::size_t begin, std::size_t end,
                   bool record, bool keep_walls) {
    std::atomic<std::size_t> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::uint64_t> starts(clients_.size());
    std::vector<std::uint64_t> ends(clients_.size());
    const auto ops_of = [&](const Client& client) -> const std::vector<WriteOp>& {
      return segment == Segment::kPrefill  ? client.plan->prefill
             : segment == Segment::kWarmup ? client.plan->warmup
                                           : client.plan->timed;
    };
    for (Client& client : clients_) {
      client.reset_tallies();
      client.reads = segment != Segment::kPrefill;
      client.record = record;
      client.keep_walls = keep_walls;
      if (record) {
        const std::size_t stop = std::min(end, ops_of(client).size());
        const std::size_t count = stop > begin ? stop - begin : 0;
        client.write_us.reserve(count);
        client.read_us.reserve(count * (w_.probes ? 4 : 1));
      }
    }
    std::vector<std::thread> threads;
    const auto release_and_join = [&] {
      go.store(true, std::memory_order_release);
      for (auto& thread : threads) thread.join();
    };
    try {
      for (std::size_t c = 0; c < clients_.size(); ++c) {
        threads.emplace_back([&, c] {
          pin_to_cpu(c + 1);
          Client& client = clients_[c];
          const std::vector<WriteOp>& ops = ops_of(client);
          const std::size_t stop = std::max(begin, std::min(end, ops.size()));
          ready.fetch_add(1);
          while (!go.load(std::memory_order_acquire)) {
          }
          starts[c] = now_ns();
          try {
            for (std::size_t i = begin; i < stop; ++i) {
              const std::int64_t op_id =
                  static_cast<std::int64_t>(c) << 40 | static_cast<std::int64_t>(i);
              execute(client, ops[i], op_id);
            }
          } catch (const std::exception& error) {
            client.fail(std::string("exception: ") + error.what());
          }
          ends[c] = now_ns();
          client.busy_s = static_cast<double>(ends[c] - starts[c]) / 1e9;
        });
      }
    } catch (...) {
      release_and_join();  // threads already started must not outlive the phase
      throw;
    }
    while (ready.load() < clients_.size()) {
    }
    release_and_join();
    const std::uint64_t first = *std::min_element(starts.begin(), starts.end());
    const std::uint64_t last = *std::max_element(ends.begin(), ends.end());
    return static_cast<double>(last - first) / 1e9;
  }

  /// Sum of a tally over clients.
  template <typename F>
  std::uint64_t total(F field) const {
    std::uint64_t sum = 0;
    for (const Client& client : clients_) sum += field(client);
    return sum;
  }

  std::uint64_t live_total() const {
    std::uint64_t sum = 0;
    for (const Client& client : clients_) {
      for (const std::uint64_t count : client.live) sum += count;
    }
    return sum;
  }

 private:
  static double elapsed_us(std::uint64_t t0, std::uint64_t t1) {
    return static_cast<double>(t1 - t0) / 1e3;
  }

  void note_write(Client& client, std::int64_t op_id, std::uint64_t t0,
                  std::uint64_t t1) {
    ++client.calls;
    ++client.writes;
    ++client.writes_done;
    if (client.record) client.write_us.push_back(static_cast<float>(elapsed_us(t0, t1)));
    if (client.keep_walls) client.write_walls.emplace_back(op_id, elapsed_us(t0, t1));
  }

  void note_read(Client& client, std::uint64_t t0, std::uint64_t t1) {
    ++client.calls;
    if (client.record) client.read_us.push_back(static_cast<float>(elapsed_us(t0, t1)));
  }

  void execute(Client& client, const WriteOp& op, std::int64_t op_id) {
    ShardedEngine& engine = *engine_;
    std::optional<SessionId>* slot =
        op.handle == kNoHandle ? nullptr : &client.ids[op.handle];
    switch (op.kind) {
      case WriteKind::kConnect: {
        client.plan->request_at(op.aux, client.request);
        std::optional<SessionId> id;
        const std::uint64_t t0 = now_ns();
        {
          wdm::TraceSpan span("bench.connect");
          span.arg("op", op_id);
          id = engine.connect(client.request);
        }
        const std::uint64_t t1 = now_ns();
        note_write(client, op_id, t0, t1);
        ++client.offered;
        const std::uint32_t shard = client.plan->handle_shard[op.handle];
        if (id) {
          if (id->shard != shard) client.fail("connect landed on a foreign shard");
          *slot = id;
          ++client.live[shard];
        } else {
          ++client.blocked;
          if (w_.blocks_fail) client.fail("admissible connect blocked at the Theorem bound");
        }
        break;
      }
      case WriteKind::kDisconnect: {
        if (!slot->has_value()) {
          ++client.skipped;
          break;
        }
        const SessionId id = **slot;
        bool ok = false;
        const std::uint64_t t0 = now_ns();
        {
          wdm::TraceSpan span("bench.disconnect");
          span.arg("op", op_id);
          ok = engine.disconnect(id);
        }
        const std::uint64_t t1 = now_ns();
        note_write(client, op_id, t0, t1);
        if (!ok) {
          client.fail("live session rejected by disconnect");
          break;
        }
        --client.live[id.shard];
        client.retire(id);
        slot->reset();
        break;
      }
      case WriteKind::kGrow: {
        if (!slot->has_value()) {
          ++client.skipped;
          break;
        }
        const SessionId id = **slot;
        GrowResult grown;
        const std::uint64_t t0 = now_ns();
        {
          wdm::TraceSpan span("bench.grow");
          span.arg("op", op_id);
          grown = engine.grow(id, unpack_endpoint(op.aux));
        }
        const std::uint64_t t1 = now_ns();
        note_write(client, op_id, t0, t1);
        ++client.offered;
        if (grown.status == GrowResult::Status::kStaleSession) {
          client.fail("live session rejected by grow");
          break;
        }
        if (grown.status == GrowResult::Status::kBlocked) {
          ++client.blocked;
          if (w_.blocks_fail) client.fail("admissible grow blocked at the Theorem bound");
        }
        // Grow renews the id whether or not it was admitted.
        if (grown.connection == id.connection) client.fail("grow kept a stale id");
        client.retire(id);
        *slot = SessionId{id.shard, grown.connection};
        break;
      }
      case WriteKind::kStaleDisconnect:
      case WriteKind::kStaleGrow: {
        if (client.stale.empty()) {
          ++client.skipped;
          break;
        }
        const SessionId id = client.stale[op.aux % client.stale.size()];
        bool accepted = false;
        const std::uint64_t t0 = now_ns();
        {
          wdm::TraceSpan span("bench.stale_write");
          span.arg("op", op_id);
          if (op.kind == WriteKind::kStaleDisconnect) {
            accepted = engine.disconnect(id);
          } else {
            accepted = engine.grow(id, {0, 0}).status !=
                       GrowResult::Status::kStaleSession;
          }
        }
        const std::uint64_t t1 = now_ns();
        note_write(client, op_id, t0, t1);
        if (accepted) client.fail("stale id accepted by a write");
        break;
      }
    }
    if (!client.reads) return;  // set-up only connects
    if (w_.probes) probe(client, op);
    if (w_.snapshot_every != 0 && client.writes_done % w_.snapshot_every == 0) {
      snapshot(client);
    }
  }

  /// The next shard a client reads: all shards in turn, so half of the
  /// reads race the other client's writes to the shard.
  std::size_t next_read_shard(Client& client) {
    return (client.read_rotor++ + client.plan->shards.front()) % w_.gen.shards;
  }

  /// A read's session count for `shard`: exactly the client's own count on
  /// a shard it owns; on the other client's shard, which changes under the
  /// read, at most the sessions ever generated there.
  void check_sessions(Client& client, std::size_t shard, std::uint64_t sessions,
                      const char* what) {
    if (owner_[shard] == client.index) {
      if (sessions != client.live[shard]) {
        client.fail(std::string(what) + " session count differs from the client's count");
      }
    } else if (sessions > max_sessions_[shard]) {
      client.fail(std::string(what) + " session count exceeds the sessions generated");
    }
  }

  /// engine_bound's lock-free reads: find_session and is_active on a live
  /// id of the client's, find_session on a stale one, and the admission
  /// pre-check of the next shard in turn.
  void probe(Client& client, const WriteOp& op) {
    ShardedEngine& engine = *engine_;
    std::uint64_t t0 = 0;
    std::uint64_t t1 = 0;
    if (op.probe != kNoHandle && client.ids[op.probe].has_value()) {
      const SessionId live = *client.ids[op.probe];
      std::optional<wdm::engine::SessionProbe> found;
      t0 = now_ns();
      {
        wdm::TraceSpan span("bench.find_session");
        found = engine.find_session(live);
      }
      t1 = now_ns();
      note_read(client, t0, t1);
      if (!found || found->shard != live.shard) client.fail("live id not found");

      bool active = false;
      t0 = now_ns();
      {
        wdm::TraceSpan span("bench.is_active");
        active = engine.is_active(live);
      }
      t1 = now_ns();
      note_read(client, t0, t1);
      if (!active) client.fail("live id reported inactive");
    } else {
      client.skipped += 2;
    }

    const std::size_t shard = next_read_shard(client);
    wdm::engine::AdmissionPrecheck check;
    t0 = now_ns();
    {
      wdm::TraceSpan span("bench.precheck");
      check = engine.admission_precheck(shard);
    }
    t1 = now_ns();
    note_read(client, t0, t1);
    check_sessions(client, shard, check.sessions, "pre-check");
    if (check.admit != at_or_above_bound_) {
      client.fail("pre-check admit flag disagrees with the Theorem bound");
    }

    if (client.stale.empty()) {
      ++client.skipped;
      return;
    }
    const SessionId dead = client.stale[op.pick % client.stale.size()];
    bool found = false;
    t0 = now_ns();
    {
      wdm::TraceSpan span("bench.find_session");
      found = engine.find_session(dead).has_value();
    }
    t1 = now_ns();
    note_read(client, t0, t1);
    if (found) client.fail("stale id validated by find_session");
  }

  /// engine_large's telemetry read: the next shard's full health snapshot.
  void snapshot(Client& client) {
    const std::size_t shard = next_read_shard(client);
    wdm::obs::EngineHealthSnapshot snap;
    const std::uint64_t t0 = now_ns();
    {
      wdm::TraceSpan span("bench.health_snapshot");
      snap = engine_->health_snapshot(shard);
    }
    const std::uint64_t t1 = now_ns();
    note_read(client, t0, t1);
    if (!snap.consistent()) client.fail("inconsistent health snapshot");
    if (snap.shard != shard) client.fail("health snapshot of the wrong shard");
    check_sessions(client, shard, snap.sessions, "snapshot");
  }

  const EngineWorkload& w_;
  std::vector<ClientPlan>& plans_;
  bool at_or_above_bound_;
  std::vector<std::size_t> owner_;          // [shard] -> client
  std::vector<std::uint64_t> max_sessions_;  // [shard] -> sessions generated
  std::unique_ptr<ShardedEngine> engine_;
  std::vector<Client> clients_;
};

/// Every client's samples of the pass just run, in one vector.
std::vector<double> pass_samples(const std::vector<Client>& clients,
                                 std::vector<float> Client::*samples) {
  std::vector<double> out;
  for (const Client& client : clients) {
    out.insert(out.end(), (client.*samples).begin(), (client.*samples).end());
  }
  return out;
}

/// Fold the clients' tallies of the phase just run into the result.
void collect(const std::vector<Client>& clients, RunResult& result,
             std::uint64_t& blocked, std::uint64_t& offered,
             std::uint64_t& skipped) {
  for (const Client& client : clients) {
    result.add_attempted(client.calls);
    result.add_failed(client.failed, client.failures.empty() ? "" : client.failures.front());
    blocked += client.blocked;
    offered += client.offered;
    skipped += client.skipped;
  }
}

/// Mean cost of one SeqlockSnapshotSlot::publish of `words` words with a hot
/// cache: the floor under the engine's per-commit publish.
double publish_floor_us(std::size_t words) {
  wdm::obs::SeqlockSnapshotSlot slot(words);
  std::vector<std::uint64_t> payload(words);
  for (std::size_t i = 0; i < words; ++i) payload[i] = i * 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 50; ++i) slot.publish(payload.data(), words);
  const int reps = 2000;
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < reps; ++i) {
    payload[0] = static_cast<std::uint64_t>(i);
    slot.publish(payload.data(), words);
  }
  return static_cast<double>(now_ns() - t0) / 1e3 / reps;
}

double flight_record_ns() {
  wdm::obs::FlightRecorder recorder(0);
  const int reps = 200000;
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < reps; ++i) {
    recorder.record(wdm::obs::EngineOp::kConnect, wdm::obs::EngineOpOutcome::kAdmitted,
                    static_cast<wdm::ConnectionId>(i));
  }
  return static_cast<double>(now_ns() - t0) / reps;
}

/// One mark_active plus one mark_released, as every connect/disconnect
/// pair pays.
double session_table_ns() {
  wdm::obs::SessionGenTable table;
  const std::uint32_t slots = 8192;
  for (std::uint32_t s = 0; s < slots; ++s) table.mark_active(s, 0);  // first touch
  const int reps = 200000;
  const std::uint64_t t0 = now_ns();
  for (int i = 0; i < reps; ++i) {
    const auto slot = static_cast<std::uint32_t>(i) % slots;
    const auto generation = static_cast<std::uint32_t>(i) / slots + 1;
    table.mark_active(slot, generation);
    table.mark_released(slot, generation);
  }
  return static_cast<double>(now_ns() - t0) / reps;
}

std::vector<double> durations(const std::vector<Span>& spans, const char* name,
                              double scale) {
  std::vector<double> out;
  for (const Span& span : spans) {
    if (span.name == name) out.push_back(span.dur * scale);
  }
  return out;
}

}  // namespace

void run_engine_workload(const Options& options, RunResult& result) {
  const EngineWorkload w = make_workload(options);
  const GeneratorSpec& g = w.gen;
  const wdm::NonblockingBound bound =
      w.construction == wdm::Construction::kMswDominant
          ? wdm::theorem1_min_m(g.params.n, g.params.r)
          : wdm::theorem2_min_m(g.params.n, g.params.r, g.params.k);
  // One pass's writes per client; the passes of a run add up to --seconds.
  const std::size_t pass_writes =
      w.writes_per_second * static_cast<std::size_t>(options.seconds) / w.reps;

  const std::uint64_t gen_start = now_ns();
  std::vector<ClientPlan> plans =
      generate_plans(g, options.seed, w.warmup_writes, pass_writes);
  const double gen_s = static_cast<double>(now_ns() - gen_start) / 1e9;

  EngineRun run(w, plans, bound.m);
  std::uint64_t blocked = 0;
  std::uint64_t offered = 0;
  std::uint64_t skipped = 0;
  std::uint64_t unused_blocked = 0;
  std::uint64_t unused_offered = 0;

  // A fresh engine, prefilled and warmed up; returns the set-up seconds
  // (construction plus prefill). Blocks before the timed pass still fail the
  // oracle but are not part of admitted_share.
  const auto prepare = [&] {
    const std::uint64_t t0 = now_ns();
    run.build();
    run.run_phase(EngineRun::Segment::kPrefill, 0, SIZE_MAX, false, false);
    const double setup = static_cast<double>(now_ns() - t0) / 1e9;
    collect(run.clients(), result, unused_blocked, unused_offered, skipped);
    if (run.engine().active_sessions() != run.live_total()) {
      result.fail("active_sessions() differs from the clients' count after prefill");
    }
    run.run_phase(EngineRun::Segment::kWarmup, 0, SIZE_MAX, false, false);
    collect(run.clients(), result, unused_blocked, unused_offered, skipped);
    return setup;
  };
  const auto ops_per_s = [&](double wall) {
    return static_cast<double>(run.total([](const Client& c) { return c.calls; })) / wall;
  };

  if (!options.trace) {
    std::vector<double> setups;
    std::vector<double> rates;
    std::vector<double> write_p50;
    std::vector<double> write_p99;
    std::vector<double> read_p50;
    std::vector<double> read_p99;
    std::size_t write_samples = 0;
    std::size_t read_samples = 0;
    for (std::size_t rep = 0; rep < w.reps; ++rep) {
      setups.push_back(prepare());
      const double wall =
          run.run_phase(EngineRun::Segment::kTimed, 0, SIZE_MAX, true, false);
      collect(run.clients(), result, blocked, offered, skipped);
      rates.push_back(ops_per_s(wall));
      std::vector<double> writes = pass_samples(run.clients(), &Client::write_us);
      std::vector<double> reads = pass_samples(run.clients(), &Client::read_us);
      write_samples = writes.size();
      read_samples = reads.size();
      write_p50.push_back(percentile(writes, 0.50));
      write_p99.push_back(percentile(writes, 0.99));
      read_p50.push_back(percentile(reads, 0.50));
      read_p99.push_back(percentile(reads, 0.99));
    }
    result.set("setup_s", median(setups), "s");
    result.note_values("pass.ops_per_s", rates);
    result.set("ops_per_s", pass_rate(rates), "1/s");
    result.note_values("pass.write_p50_us", write_p50);
    result.set("write_p50_us", pass_time(write_p50), "us");
    result.note_values("pass.write_p99_us", write_p99);
    result.set("write_p99_us", pass_time(write_p99), "us");
    result.note_values("pass.read_p50_us", read_p50);
    result.set("read_p50_us", pass_time(read_p50), "us");
    result.note_values("pass.read_p99_us", read_p99);
    result.set("read_p99_us", pass_time(read_p99), "us");
    result.note("passes", std::to_string(w.reps));
    result.note("samples.write_per_pass", std::to_string(write_samples));
    result.note("samples.read_per_pass", std::to_string(read_samples));
  } else {
    // Traced run: a plain pass and a traced pass over the same first
    // traced_writes writes, each on a fresh engine; engine_bound adds two
    // whole passes, metrics on and off.
    const std::size_t traced_end = std::min(pass_writes, w.traced_writes);
    prepare();
    const double wall_a =
        run.run_phase(EngineRun::Segment::kTimed, 0, traced_end, false, false);
    const double rate_a = ops_per_s(wall_a);
    double busy_min = 1e300;
    double busy_max = 0.0;
    for (const Client& client : run.clients()) {
      busy_min = std::min(busy_min, client.busy_s);
      busy_max = std::max(busy_max, client.busy_s);
    }
    collect(run.clients(), result, unused_blocked, unused_offered, skipped);

    if (w.probes) {
      prepare();
      const double rate_on = ops_per_s(
          run.run_phase(EngineRun::Segment::kTimed, 0, SIZE_MAX, false, false));
      collect(run.clients(), result, unused_blocked, unused_offered, skipped);
      prepare();
      wdm::set_metrics_enabled(false);
      const double rate_off = ops_per_s(
          run.run_phase(EngineRun::Segment::kTimed, 0, SIZE_MAX, false, false));
      wdm::set_metrics_enabled(true);
      collect(run.clients(), result, unused_blocked, unused_offered, skipped);
      result.set("util.metrics_overhead", rate_off / rate_on, "ratio");
    }

    prepare();
    wdm::metrics().reset();
    start_tracing();
    const double wall_c =
        run.run_phase(EngineRun::Segment::kTimed, 0, traced_end, false, true);
    const std::string trace = stop_tracing(options, result);
    const double rate_c = ops_per_s(wall_c);
    const std::uint64_t traced_writes = run.total([](const Client& c) { return c.writes; });
    collect(run.clients(), result, blocked, offered, skipped);

    static const char* const kConnect = "bench.connect";
    static const char* const kDisconnect = "bench.disconnect";
    static const char* const kGrow = "bench.grow";
    static const char* const kStale = "bench.stale_write";
    static const char* const kSnapshot = "bench.health_snapshot";
    static const char* const kFind = "bench.find_session";
    static const char* const kActive = "bench.is_active";
    static const char* const kFindRoute = "routing.find_route";
    static const char* const kMigrate = "repack.migrate";
    const std::vector<Span> spans =
        read_trace(trace, {kConnect, kDisconnect, kGrow, kStale, kSnapshot,
                           kFind, kActive, kFindRoute, kMigrate});

    std::vector<double> connect_us = durations(spans, kConnect, 1.0);
    std::vector<double> self_us;
    for (const auto& [span, covered] : child_cover(spans, kConnect, {kFindRoute, kMigrate})) {
      self_us.push_back(span.dur - covered);
    }
    std::vector<double> disconnect_us = durations(spans, kDisconnect, 1.0);
    std::vector<double> grow_us = durations(spans, kGrow, 1.0);
    const double connect_p50 = percentile(connect_us, 0.50);
    const double self_p50 = percentile(self_us, 0.50);
    result.set("engine.connect_p50_us", connect_p50, "us");
    result.set("engine.connect_p99_us", percentile(connect_us, 0.99), "us");
    result.set("engine.disconnect_p50_us", percentile(disconnect_us, 0.50), "us");
    result.set("engine.grow_p50_us", percentile(grow_us, 0.50), "us");
    result.set("engine.self_p50_us", self_p50, "us");
    const wdm::TimerStat& op_wait = wdm::metrics().timer("engine.op_wait_ns");
    result.set("engine.op_wait_p99_us",
               static_cast<double>(op_wait.percentile_ns(0.99)) / 1e3, "us");
    if (op_wait.count() == 0) {
      result.note("zero.engine.op_wait_p99_us",
                  "no executor attached: the engine runs shards under mutexes");
    }
    result.set("engine.client_imbalance", busy_max / busy_min, "ratio");

    // Write spans per op id, to compare with the client-side wall times.
    std::unordered_map<std::int64_t, double> span_by_op;
    for (const Span& span : spans) {
      if (span.op >= 0) span_by_op[span.op] = span.dur;
    }
    double wall_sum = 0.0;
    double covered_sum = 0.0;
    for (const Client& client : run.clients()) {
      for (const auto& [op_id, wall] : client.write_walls) {
        const auto it = span_by_op.find(op_id);
        if (it == span_by_op.end()) continue;
        wall_sum += wall;
        covered_sum += std::min(wall, it->second);
      }
    }
    result.set("bench.unattributed_share",
               wall_sum > 0.0 ? (wall_sum - covered_sum) / wall_sum : 0.0, "ratio");

    wdm::MetricsRegistry& registry = wdm::metrics();
    result.set("obs.publishes_per_write",
               ratio(registry_count("obs.snapshot_publishes"), static_cast<double>(traced_writes)),
               "ratio");
    result.set("obs.publish_us",
               publish_floor_us(wdm::obs::EngineHealthSnapshot::encoded_words(
                   g.params.m, g.params.r)),
               "us");
    if (w.snapshot_every != 0) {
      std::vector<double> snapshot_us = durations(spans, kSnapshot, 1.0);
      result.set("obs.snapshot_read_p50_us", percentile(snapshot_us, 0.50), "us");
    } else {
      result.absent("obs.snapshot_read_p50_us", "us",
                    "engine_bound reads the pre-check header, not full snapshots");
    }
    result.set("obs.snapshot_retries_per_read",
               ratio(registry_count("obs.snapshot_retries"), registry_count("obs.snapshot_reads")),
               "ratio");
    if (w.probes) {
      std::vector<double> probe_ns = durations(spans, kFind, 1e3);
      std::vector<double> active_ns = durations(spans, kActive, 1e3);
      probe_ns.insert(probe_ns.end(), active_ns.begin(), active_ns.end());
      result.set("obs.session_probe_p50_ns", percentile(probe_ns, 0.50), "ns");
    } else {
      result.absent("obs.session_probe_p50_ns", "ns",
                    "engine_large makes no session-id probes");
    }
    result.set("obs.flight_record_ns", flight_record_ns(), "ns");
    result.set("obs.session_table_ns", session_table_ns(), "ns");

    const wdm::TimerStat& find_route = registry.timer("routing.find_route");
    double write_wall_us = 0.0;
    for (const Client& client : run.clients()) {
      for (const auto& [op_id, wall] : client.write_walls) write_wall_us += wall;
    }
    const double find_route_p50 =
        static_cast<double>(find_route.percentile_ns(0.50)) / 1e3;
    result.set("multistage.find_route_p50_us", find_route_p50, "us");
    result.set("multistage.find_route_p99_us",
               static_cast<double>(find_route.percentile_ns(0.99)) / 1e3, "us");
    result.set("multistage.find_route_share",
               ratio(static_cast<double>(find_route.total_ns()) / 1e3, write_wall_us),
               "ratio");
    result.set("multistage.probes_per_attempt",
               ratio(registry_count("routing.middle_probes"), registry_count("routing.route_attempts")),
               "ratio");
    result.set("multistage.route_found_ratio",
               ratio(registry_count("routing.routes_found"), registry_count("routing.route_attempts")),
               "ratio");

    result.set("bench.gen_s", gen_s, "s");
    result.set("bench.trace_overhead", rate_a / rate_c, "ratio");
    std::ostringstream additivity;
    additivity << "connect_p50 " << connect_p50 << " us vs self_p50 + find_route_p50 "
               << self_p50 + find_route_p50 << " us";
    result.note("check.connect_decomposition", additivity.str());
    result.note("samples.traced_connects", std::to_string(connect_us.size()));
    result.note("samples.traced_writes_per_client", std::to_string(traced_end));
  }

  // End-of-run checks.
  try {
    run.engine().self_check();
  } catch (const std::exception& error) {
    result.fail(std::string("self_check failed: ") + error.what());
  }
  result.add_attempted(2);
  if (run.engine().active_sessions() != run.live_total()) {
    result.fail("active_sessions() differs from the clients' count at the end");
  }

  if (!options.trace) {
    result.set("admitted_share",
               offered == 0 ? 1.0
                            : 1.0 - static_cast<double>(blocked) /
                                        static_cast<double>(offered),
               "ratio");
    result.set("peak_rss_mb", peak_rss_mb(), "MB");
  }
  std::uint64_t idle = 0;
  for (const ClientPlan& plan : plans) idle += plan.idle_ticks;
  result.note("geometry", g.params.to_string() + " shards=" + std::to_string(g.shards));
  result.note("theorem_bound_m", std::to_string(bound.m));
  result.note("blocked", std::to_string(blocked));
  result.note("offered", std::to_string(offered));
  result.note("skipped_ops_on_missing_sessions", std::to_string(skipped));
  result.note("idle_generator_ticks", std::to_string(idle));
  result.note("bench.gen_s", std::to_string(gen_s));
  result.note("pass_writes_per_client", std::to_string(pass_writes));
}

}  // namespace perfbench
