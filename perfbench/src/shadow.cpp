#include "shadow.h"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "engine/churn_driver.h"
#include "engine/sharded_engine.h"
#include "harness.h"

namespace perfbench {

namespace {

/// Endpoint occupancy of one shard replica: one lane bitmask per port
/// (k <= 64 lanes).
struct ShadowShard {
  std::vector<std::size_t> owned_ports;
  std::vector<std::uint64_t> in_busy;   // [port]
  std::size_t in_free = 0;              // free input wavelengths on owned ports
  std::vector<std::uint64_t> out_busy;  // [port]
};

struct ShadowSession {
  std::uint32_t shard = 0;
  wdm::WavelengthEndpoint input;
  std::vector<wdm::WavelengthEndpoint> outputs;
};

/// The churn driver's traffic model, read from its defaults.
const wdm::engine::ChurnConfig kMix{};

class Generator {
 public:
  Generator(const GeneratorSpec& spec, std::uint64_t seed, std::size_t client,
            std::vector<ShadowShard>& shards)
      : spec_(spec), rng_(derive_seed(seed, client)), shards_(shards) {
    for (std::size_t s = client; s < spec.shards; s += kClients) {
      plan_.shards.push_back(s);
    }
  }

  ClientPlan run(std::size_t prefill_per_shard, std::size_t warmup,
                 std::size_t timed) {
    for (std::size_t i = 0; i < prefill_per_shard; ++i) {
      for (const std::size_t shard : plan_.shards) {
        std::optional<WriteOp> op = try_connect(shard);
        if (!op) throw std::runtime_error("shadow: prefill does not fit the shard's endpoints");
        plan_.prefill.push_back(*op);
      }
    }
    writes(plan_.warmup, warmup);
    writes(plan_.timed, timed);
    return std::move(plan_);
  }

 private:
  /// At least `count` writes: whole ticks only, since the shadow has already
  /// applied every op a tick made (dropping a departure would leave the
  /// engine holding endpoints the shadow has freed).
  void writes(std::vector<WriteOp>& out, std::size_t count) {
    out.reserve(count + 1);
    while (out.size() < count) tick(out);
  }

  std::size_t k() const { return spec_.params.k; }
  std::size_t N() const { return spec_.params.port_count(); }

  bool chance(double probability) {
    return static_cast<double>(rng_.below(1u << 20)) < probability * (1u << 20);
  }

  /// One churn-driver tick: an optional stale-id write, then an arrival, a
  /// grow or a departure. Appends the calls it makes to `out`.
  void tick(std::vector<WriteOp>& out) {
    if (retired_ != 0 && chance(kMix.stale_probe_fraction)) {
      WriteOp op;
      op.kind = rng_.below(2) == 0 ? WriteKind::kStaleDisconnect : WriteKind::kStaleGrow;
      op.aux = rng_.next32();
      emit(out, op);
    }
    std::optional<WriteOp> op;
    if (alive_.empty() || chance(kMix.arrival_fraction)) {
      op = try_connect(plan_.shards[rng_.below(plan_.shards.size())]);
    } else if (chance(kMix.grow_fraction)) {
      op = grow();
    } else {
      op = disconnect();
    }
    if (op) {
      emit(out, *op);
    } else {
      ++plan_.idle_ticks;
    }
  }

  /// Attach the randomness of the reads that follow the write, then append.
  void emit(std::vector<WriteOp>& out, WriteOp op) {
    op.probe = alive_.empty() ? kNoHandle : alive_[rng_.below(alive_.size())];
    op.pick = rng_.next32();
    out.push_back(op);
  }

  /// A free input wavelength on one of the shard's owned ports.
  bool pick_input(ShadowShard& shard, wdm::WavelengthEndpoint& out) {
    if (shard.in_free == 0) return false;
    for (int attempt = 0; attempt < 4096; ++attempt) {
      const std::size_t port =
          shard.owned_ports[rng_.below(shard.owned_ports.size())];
      const auto lane = static_cast<wdm::Wavelength>(rng_.below(k()));
      if ((shard.in_busy[port] >> lane & 1u) == 0) {
        out = {port, lane};
        return true;
      }
    }
    return false;
  }

  /// A free output wavelength on a port the session does not use yet, on
  /// `lane` (MSW) or any lane (MAW).
  bool pick_output(ShadowShard& shard, const ShadowSession& session,
                   wdm::WavelengthEndpoint& out) {
    const bool same_lane = spec_.model == wdm::MulticastModel::kMSW;
    for (int attempt = 0; attempt < 4096; ++attempt) {
      const std::size_t port = rng_.below(N());
      const bool used = std::any_of(
          session.outputs.begin(), session.outputs.end(),
          [port](const wdm::WavelengthEndpoint& e) { return e.port == port; });
      if (used) continue;
      const auto lane = same_lane ? session.input.lane
                                  : static_cast<wdm::Wavelength>(rng_.below(k()));
      if ((shard.out_busy[port] >> lane & 1u) == 0) {
        out = {port, lane};
        return true;
      }
    }
    return false;
  }

  std::optional<WriteOp> try_connect(std::size_t shard_index) {
    ShadowShard& shard = shards_[shard_index];
    ShadowSession session;
    session.shard = static_cast<std::uint32_t>(shard_index);
    if (!pick_input(shard, session.input)) return std::nullopt;
    const std::size_t fanout =
        kMix.fanout.min + rng_.below(kMix.fanout.max - kMix.fanout.min + 1);
    for (std::size_t d = 0; d < fanout; ++d) {
      wdm::WavelengthEndpoint out;
      if (!pick_output(shard, session, out)) break;
      session.outputs.push_back(out);
    }
    if (session.outputs.empty()) return std::nullopt;
    shard.in_busy[session.input.port] |= std::uint64_t{1} << session.input.lane;
    --shard.in_free;
    for (const auto& out : session.outputs) {
      shard.out_busy[out.port] |= std::uint64_t{1} << out.lane;
    }

    WriteOp op;
    op.kind = WriteKind::kConnect;
    op.handle = static_cast<std::uint32_t>(sessions_.size());
    op.aux = static_cast<std::uint32_t>(plan_.endpoints.size());
    plan_.endpoints.push_back(pack_endpoint(session.input));
    plan_.endpoints.push_back(static_cast<std::uint32_t>(session.outputs.size()));
    for (const auto& out : session.outputs) {
      plan_.endpoints.push_back(pack_endpoint(out));
    }
    plan_.handle_shard.push_back(session.shard);
    alive_position_.push_back(alive_.size());
    alive_.push_back(op.handle);
    sessions_.push_back(std::move(session));
    return op;
  }

  WriteOp disconnect() {
    const std::uint32_t handle = alive_[rng_.below(alive_.size())];
    ShadowSession& session = sessions_[handle];
    ShadowShard& shard = shards_[session.shard];
    shard.in_busy[session.input.port] &= ~(std::uint64_t{1} << session.input.lane);
    ++shard.in_free;
    for (const auto& out : session.outputs) {
      shard.out_busy[out.port] &= ~(std::uint64_t{1} << out.lane);
    }
    // Swap-remove from the alive list.
    const std::size_t at = alive_position_[handle];
    const std::uint32_t last = alive_.back();
    alive_[at] = last;
    alive_position_[last] = at;
    alive_.pop_back();
    ++retired_;
    WriteOp op;
    op.kind = WriteKind::kDisconnect;
    op.handle = handle;
    return op;
  }

  std::optional<WriteOp> grow() {
    const std::uint32_t handle = alive_[rng_.below(alive_.size())];
    ShadowSession& session = sessions_[handle];
    ShadowShard& shard = shards_[session.shard];
    wdm::WavelengthEndpoint out;
    if (!pick_output(shard, session, out)) return std::nullopt;
    ++retired_;  // a grow renews the session's id
    shard.out_busy[out.port] |= std::uint64_t{1} << out.lane;
    session.outputs.push_back(out);
    WriteOp op;
    op.kind = WriteKind::kGrow;
    op.handle = handle;
    op.aux = pack_endpoint(out);
    return op;
  }

  const GeneratorSpec& spec_;
  BenchRng rng_;
  std::vector<ShadowShard>& shards_;
  ClientPlan plan_;
  std::vector<ShadowSession> sessions_;
  std::vector<std::uint32_t> alive_;
  std::vector<std::size_t> alive_position_;  // [handle] -> index in alive_
  std::uint64_t retired_ = 0;  // ids released or renewed so far
};

}  // namespace

void ClientPlan::request_at(std::uint32_t offset,
                            wdm::MulticastRequest& out) const {
  out.input = unpack_endpoint(endpoints[offset]);
  const std::uint32_t fanout = endpoints[offset + 1];
  out.outputs.resize(fanout);
  for (std::uint32_t d = 0; d < fanout; ++d) {
    out.outputs[d] = unpack_endpoint(endpoints[offset + 2 + d]);
  }
}

std::vector<ClientPlan> generate_plans(const GeneratorSpec& spec,
                                       std::uint64_t seed, std::size_t warmup,
                                       std::size_t timed) {
  if (spec.params.k > 64 || spec.params.port_count() >= (1u << 24)) {
    throw std::invalid_argument("shadow: needs k <= 64 and N < 2^24");
  }
  std::vector<ShadowShard> shards(spec.shards);
  for (auto& shard : shards) {
    shard.in_busy.assign(spec.params.port_count(), 0);
    shard.out_busy.assign(spec.params.port_count(), 0);
  }
  for (std::size_t port = 0; port < spec.params.port_count(); ++port) {
    shards[wdm::engine::rendezvous_shard(port, spec.shards)]
        .owned_ports.push_back(port);
  }
  for (auto& shard : shards) shard.in_free = shard.owned_ports.size() * spec.params.k;
  std::vector<ClientPlan> plans;
  for (std::size_t c = 0; c < kClients; ++c) {
    // Clients own disjoint shards, so their shadows never interact.
    plans.push_back(Generator(spec, seed, c, shards)
                        .run(spec.prefill_per_shard, warmup, timed));
  }
  return plans;
}

}  // namespace perfbench
