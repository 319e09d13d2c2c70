// Benchmark-owned input generation for the engine workloads.
//
// The write mix is the churn driver's (wdm::engine::ChurnConfig's
// defaults): per tick, a stale-id write with probability
// stale_probe_fraction, then an arrival with probability arrival_fraction,
// else a grow with probability grow_fraction, else a departure; arrival
// fanouts are drawn from ChurnConfig::fanout.
//
// A shadow endpoint model tracks, per shard replica, which input and output
// wavelengths the generated sessions hold, and draws every connect and grow
// from free endpoints under the network model's lane rules (MSW: one lane
// for the source and all destinations; MAW: any lane per endpoint; always
// at most one wavelength per output port). The shadow assumes every op
// succeeds, so a session the engine blocks keeps its endpoints busy in the
// shadow: later ops stay admissible, and ops on a session that never
// existed are skipped at run time. The library's random_admissible_request
// is not used: it scans every port and lane per request.
//
// All generation happens before the engine is built; nothing here touches
// an engine.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "core/connection.h"
#include "multistage/clos_params.h"

namespace perfbench {

enum class WriteKind : std::uint8_t {
  kConnect,
  kDisconnect,
  kGrow,
  kStaleDisconnect,  // disconnect a previously released or renewed id
  kStaleGrow,        // grow a previously released or renewed id
};

inline constexpr std::uint32_t kNoHandle = std::numeric_limits<std::uint32_t>::max();

/// One generated write plus the randomness its interleaved reads use.
struct WriteOp {
  WriteKind kind = WriteKind::kConnect;
  /// The client-local session the write acts on (connect: the new one).
  std::uint32_t handle = kNoHandle;
  /// kConnect: offset of the request in ClientPlan::endpoints. kGrow: the
  /// destination, packed. Stale kinds: a random pick.
  std::uint32_t aux = 0;
  /// A session live in the shadow after this write, for the live-id reads
  /// that follow it (kNoHandle when none).
  std::uint32_t probe = kNoHandle;
  /// Random pick for the stale-id read that follows the write.
  std::uint32_t pick = 0;
};

[[nodiscard]] inline std::uint32_t pack_endpoint(const wdm::WavelengthEndpoint& e) {
  return static_cast<std::uint32_t>(e.port << 8 | e.lane);
}
[[nodiscard]] inline wdm::WavelengthEndpoint unpack_endpoint(std::uint32_t packed) {
  return {packed >> 8, static_cast<wdm::Wavelength>(packed & 0xFF)};
}

/// Clients of every engine workload; client c owns the shards s with
/// s % kClients == c.
inline constexpr std::size_t kClients = 2;

struct GeneratorSpec {
  wdm::ClosParams params;
  wdm::MulticastModel model = wdm::MulticastModel::kMSW;
  std::size_t shards = 1;
  std::size_t prefill_per_shard = 0;
};

/// Everything one client executes, generated up front.
struct ClientPlan {
  std::vector<std::size_t> shards;                 // shards this client owns
  /// Connect payloads, packed: input, fanout, then the outputs.
  std::vector<std::uint32_t> endpoints;
  std::vector<std::uint32_t> handle_shard;         // shard of each handle
  std::vector<WriteOp> prefill;                    // connects only
  std::vector<WriteOp> warmup;
  std::vector<WriteOp> timed;
  /// Ticks that made no call: no free endpoint for an arrival, or no free
  /// destination for a grow (the churn driver makes no call there either).
  std::uint64_t idle_ticks = 0;

  /// Unpack the connect payload at `offset` into `out` (reusing its
  /// storage, so the timed loop does not allocate).
  void request_at(std::uint32_t offset, wdm::MulticastRequest& out) const;
};

/// Generates the prefill, then `warmup` and `timed` writes per client (one
/// more when a segment's last tick makes two calls), from `seed` alone.
[[nodiscard]] std::vector<ClientPlan> generate_plans(const GeneratorSpec& spec,
                                                     std::uint64_t seed,
                                                     std::size_t warmup,
                                                     std::size_t timed);

}  // namespace perfbench
