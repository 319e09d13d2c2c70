#include "obs/telemetry.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <sstream>

#include "engine/sharded_engine.h"
#include "util/metrics.h"

namespace wdm::obs {

namespace {

/// Append one fixed-name numeric field: `,"name":value` (or without the
/// leading comma when `first`).
template <typename T>
void field(std::ostringstream& os, bool& first, const char* name, T value) {
  os << (first ? "\"" : ",\"") << name << "\":" << value;
  first = false;
}

void bool_field(std::ostringstream& os, bool& first, const char* name,
                bool value) {
  os << (first ? "\"" : ",\"") << name << "\":" << (value ? "true" : "false");
  first = false;
}

void shard_object(std::ostringstream& os, const EngineHealthSnapshot& s,
                  std::uint64_t flight_dropped) {
  bool first = true;
  os << '{';
  field(os, first, "shard", s.shard);
  field(os, first, "version", s.version);
  field(os, first, "flight_dropped", flight_dropped);
  field(os, first, "sessions", s.sessions);
  field(os, first, "busy_middle_lanes", s.busy_middle_lanes);
  field(os, first, "connects", s.connects);
  field(os, first, "disconnects", s.disconnects);
  field(os, first, "grows", s.grows);
  field(os, first, "grow_blocked", s.grow_blocked);
  field(os, first, "stale_rejected", s.stale_rejected);
  field(os, first, "repack_moves", s.repack_moves);
  field(os, first, "repack_max_chain", s.repack_max_chain);
  field(os, first, "failed_middles", s.failed_middles);
  field(os, first, "margin", s.margin);
  bool_field(os, first, "nonblocking", s.nonblocking);
  os << ",\"occupancy\":[";
  for (std::size_t j = 0; j < s.middle_count; ++j) {
    os << (j == 0 ? "" : ",") << s.middle_busy_lanes(j);
  }
  os << "]}";
}

}  // namespace

TelemetrySampler::TelemetrySampler(const engine::ShardedEngine& engine,
                                   TelemetryConfig config)
    : engine_(&engine), config_(config) {}

TelemetrySampler::~TelemetrySampler() {
  {
    std::lock_guard lock(wake_mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void TelemetrySampler::start() {
  std::lock_guard lock(wake_mutex_);
  if (running_) return;
  stopping_ = false;
  running_ = true;
  thread_ = std::thread([this] { run_loop(); });
}

void TelemetrySampler::stop() {
  {
    std::lock_guard lock(wake_mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  {
    std::lock_guard lock(wake_mutex_);
    running_ = false;
  }
  // The closing sample: taken after the join, so it observes the engine as
  // the caller left it (for a quiesced run, totals == the run's ChurnStats).
  take_sample();
}

std::size_t TelemetrySampler::sample_now() { return take_sample(); }

void TelemetrySampler::run_loop() {
  std::unique_lock lock(wake_mutex_);
  while (!stopping_) {
    if (wake_.wait_for(lock, config_.interval, [this] { return stopping_; })) {
      return;  // woken to stop; stop() takes the closing sample
    }
    lock.unlock();
    take_sample();
    lock.lock();
  }
}

std::size_t TelemetrySampler::take_sample() {
  const std::vector<EngineHealthSnapshot> shards = engine_->health_snapshots();
  // Flight-recorder loss rides along so consumers (telemetry_summary) can
  // report whether the op window is complete. Takes the ring's own mutex,
  // never a shard claim.
  std::vector<std::uint64_t> flight_dropped(shards.size(), 0);
  for (std::size_t s = 0; s < shards.size(); ++s) {
    flight_dropped[s] = engine_->flight_dump(s).dropped;
  }

  std::uint64_t sessions = 0, busy = 0, connects = 0, disconnects = 0;
  std::uint64_t grows = 0, grow_blocked = 0, stale_rejected = 0;
  std::uint64_t repack_moves = 0, repack_max_chain = 0;
  std::uint64_t failed_middles = 0;
  std::int64_t min_margin = 0;
  bool nonblocking = true;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    const EngineHealthSnapshot& shard = shards[s];
    sessions += shard.sessions;
    busy += shard.busy_middle_lanes;
    connects += shard.connects;
    disconnects += shard.disconnects;
    grows += shard.grows;
    grow_blocked += shard.grow_blocked;
    stale_rejected += shard.stale_rejected;
    repack_moves += shard.repack_moves;
    repack_max_chain = std::max(repack_max_chain, shard.repack_max_chain);
    failed_middles += shard.failed_middles;
    min_margin = s == 0 ? shard.margin : std::min(min_margin, shard.margin);
    nonblocking = nonblocking && shard.nonblocking;
  }

  std::ostringstream os;
  os << "{\"schema\":\"" << kTelemetrySchema << "\"";
  // `sample` is patched in under lines_mutex_ below so indices are assigned
  // in append order (two concurrent sample_now() calls cannot swap indices).
  os << ",\"sample\":";
  const std::string head = os.str();

  std::ostringstream tail;
  if (!shards.empty()) {
    bool first = true;
    tail << ",\"geometry\":{";
    field(tail, first, "m", shards.front().middle_count);
    field(tail, first, "r", shards.front().links_per_middle);
    field(tail, first, "bound_m", shards.front().bound_m);
    tail << '}';
  }
  {
    bool first = true;
    tail << ",\"totals\":{";
    field(tail, first, "sessions", sessions);
    field(tail, first, "busy_middle_lanes", busy);
    field(tail, first, "connects", connects);
    field(tail, first, "disconnects", disconnects);
    field(tail, first, "grows", grows);
    field(tail, first, "grow_blocked", grow_blocked);
    field(tail, first, "stale_rejected", stale_rejected);
    field(tail, first, "repack_moves", repack_moves);
    field(tail, first, "repack_max_chain", repack_max_chain);
    tail << '}';
  }
  {
    bool first = false;
    field(tail, first, "margin", min_margin);
    bool_field(tail, first, "nonblocking", nonblocking);
    field(tail, first, "failed_middles", failed_middles);
  }
  tail << ",\"shards\":[";
  for (std::size_t s = 0; s < shards.size(); ++s) {
    if (s != 0) tail << ',';
    shard_object(tail, shards[s], flight_dropped[s]);
  }
  tail << ']';
  if (config_.include_metrics) {
    MetricsRegistry& registry = metrics();
    const TimerStat& connect_timer = registry.timer("sim.connect");
    bool first = true;
    tail << ",\"metrics\":{";
    field(tail, first, "sim_connect_p50_ns", connect_timer.percentile_ns(0.5));
    field(tail, first, "sim_connect_p99_ns", connect_timer.percentile_ns(0.99));
    for (const char* name :
         {"engine.connects", "engine.disconnects", "engine.grows",
          "engine.grow_blocked", "engine.stale_rejected", "engine.batches",
          "obs.snapshot_publishes", "obs.snapshot_reads",
          "obs.snapshot_retries"}) {
      std::string key(name);
      for (char& c : key) {
        if (c == '.') c = '_';
      }
      field(tail, first, key.c_str(), registry.counter(name).value());
    }
    tail << '}';
  }
  tail << '}';

  std::lock_guard lock(lines_mutex_);
  const std::size_t index = lines_.size();
  lines_.push_back(head + std::to_string(index) + tail.str());
  return index;
}

std::vector<std::string> TelemetrySampler::lines() const {
  std::lock_guard lock(lines_mutex_);
  return lines_;
}

std::size_t TelemetrySampler::sample_count() const {
  std::lock_guard lock(lines_mutex_);
  return lines_.size();
}

void TelemetrySampler::write(std::ostream& os) const {
  for (const std::string& line : lines()) os << line << '\n';
}

bool TelemetrySampler::write_file(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  write(os);
  return os.good();
}

}  // namespace wdm::obs
