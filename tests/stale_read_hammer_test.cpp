// Stale-id read hammer (tsan label): races the lock-free session reads
// (is_active / find_session, obs/session_table.h) against full-rate
// disconnect/reconnect slot reuse and asserts the core soundness property --
// a stale id NEVER validates.
//
// The attack surface: the engine reuses connection slots aggressively (the
// network's free-slot stack is LIFO), so a disposed id's slot is typically
// re-armed with a new generation within a few ops. A reader holding the old
// id probes concurrently, with no lock, while the writer cycles the slot. If
// the generation table's ordering were wrong anywhere (a mark_active visible
// before the prior mark_released, a torn word, a reordered publish), some
// interleaving here would validate a dead id -- and TSan would flag the race
// even when the assertion happens to pass.
//
// Structure: one or two writer threads churn sessions through the public
// engine API on both shards. With one writer every op runs inline on its
// submitter; with two, an op may also run on the other writer while that one
// holds the claim (flat combining). Reader threads continuously
// (a) probe ids the writer has retired -- handed over through a seqlock-ish
// release/acquire mailbox -- and assert they never validate, and (b) probe
// the writer's latest-live mailbox, where BOTH outcomes are legal (the probe
// races the session's teardown) but a validated id must decode to the
// exact slot/generation it was minted with.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "engine/sharded_engine.h"
#include "multistage/network.h"

namespace wdm::engine {
namespace {

EngineConfig hammer_config() {
  EngineConfig config;
  config.params = {2, 4, 3, 2};  // N=8 ports, k=2 lanes per shard replica
  config.shards = 2;
  return config;
}

/// Mailbox handing ConnectionId-sized values to racing readers (last post
/// wins). 0 means "nothing yet"; generations start at 1 so no real id
/// encodes to 0 (network.h make_id).
struct IdMailbox {
  std::atomic<std::uint64_t> word{0};
  void post(SessionId session) {
    // One mailbox per shard, so only the connection word needs to travel.
    word.store(session.connection, std::memory_order_release);
  }
  [[nodiscard]] ConnectionId read() const {
    return word.load(std::memory_order_acquire);
  }
};

void hammer(ShardedEngine& engine, int writer_count,
            std::size_t ops_per_writer) {
  const std::size_t shard_count = engine.shard_count();
  // Per-shard mailboxes: retired ids (must NEVER validate) and live ids
  // (may validate; if so, must decode exactly).
  std::vector<IdMailbox> retired(shard_count);
  std::vector<IdMailbox> live(shard_count);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> stale_validations{0};
  std::atomic<std::uint64_t> probes{0};

  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      while (!stop.load(std::memory_order_acquire)) {
        for (std::size_t s = 0; s < shard_count; ++s) {
          const ConnectionId dead = retired[s].read();
          if (dead != 0) {
            probes.fetch_add(1, std::memory_order_relaxed);
            const SessionId stale{static_cast<std::uint32_t>(s), dead};
            if (engine.is_active(stale) ||
                engine.find_session(stale).has_value()) {
              stale_validations.fetch_add(1, std::memory_order_relaxed);
            }
          }
          const ConnectionId maybe_live = live[s].read();
          if (maybe_live != 0 && (r % 2) == 0) {
            const SessionId candidate{static_cast<std::uint32_t>(s),
                                      maybe_live};
            const auto probe = engine.find_session(candidate);
            if (probe) {
              // Racy liveness is fine; a validated probe must be exact.
              if (probe->slot !=
                      ThreeStageNetwork::slot_of_id(maybe_live) ||
                  probe->generation !=
                      ThreeStageNetwork::generation_of_id(maybe_live)) {
                stale_validations.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }
          // The admission pre-check shares the read spine; keep it hot too.
          (void)engine.admission_precheck(s);
        }
      }
    });
  }

  // Writers: connect / immediately disconnect, cycling slots as fast as the
  // engine allows. Writer w owns lane w, so writers never contend for an
  // endpoint; alternating ports varies the slot-reuse pattern. Every
  // retirement is published to the readers.
  ASSERT_GE(writer_count, 1);
  ASSERT_LE(static_cast<std::size_t>(writer_count), engine.config().params.k);
  std::atomic<std::uint64_t> cycles{0};
  std::atomic<std::uint64_t> lost{0};
  std::vector<std::thread> writers;
  writers.reserve(static_cast<std::size_t>(writer_count));
  for (int w = 0; w < writer_count; ++w) {
    writers.emplace_back([&, w] {
      const auto lane = static_cast<Wavelength>(w);
      for (std::size_t i = 0; i < ops_per_writer; ++i) {
        const std::size_t port = i % engine.port_count();
        const auto session = engine.connect(
            {{port, lane}, {{(port + 3) % engine.port_count(), lane}}});
        if (!session) continue;
        live[session->shard].post(*session);
        if (!engine.disconnect(*session)) lost.fetch_add(1);
        retired[session->shard].post(*session);
        cycles.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : writers) t.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(stale_validations.load(), 0u)
      << "a stale id validated on the lock-free read path";
  EXPECT_EQ(lost.load(), 0u) << "a live session was rejected as stale";
  EXPECT_GT(cycles.load(), 0u);
  EXPECT_GT(probes.load(), 0u);
  EXPECT_EQ(engine.active_sessions(), 0u);
  engine.self_check();
}

// The two cases keep the names of the engine's former execution modes. A
// single writer reproduces the old mutex mode's shape: each op runs on the
// thread that submitted it. Two writers reproduce the old executor mode's:
// an op may run on a thread other than its submitter, racing the readers
// against table updates from either writer.
TEST(StaleReadHammer, MutexModeNeverValidatesAStaleId) {
  ShardedEngine engine(hammer_config());
  hammer(engine, 1, 20000);
}

TEST(StaleReadHammer, ExecutorModeNeverValidatesAStaleId) {
  ShardedEngine engine(hammer_config());
  hammer(engine, 2, 12000);
}

TEST(StaleReadHammer, GrowRenewalsRetireTheOldIdAtomically) {
  // Break-before-make grows renew ids mid-flight; the old id must go stale
  // the instant the grow commits, under concurrent probing.
  ShardedEngine engine(hammer_config());
  std::atomic<bool> stop{false};
  IdMailbox retired;
  std::atomic<std::uint64_t> stale_validations{0};
  std::uint32_t shard_of_stream = 0;

  const auto seed = engine.connect({{0, 0}, {{3, 0}}});
  ASSERT_TRUE(seed.has_value());
  shard_of_stream = seed->shard;

  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const ConnectionId dead = retired.read();
      if (dead == 0) continue;
      if (engine.is_active({shard_of_stream, dead})) {
        stale_validations.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  SessionId current = *seed;
  for (int i = 0; i < 4000; ++i) {
    // Alternate adding/removing a destination via grow + reconnect cycles:
    // grow to a second port, then disconnect and reconnect the single-output
    // original. Every step retires the previous id.
    const GrowResult grown = engine.grow(current, {5, 0});
    retired.post(current);
    ASSERT_NE(grown.status, GrowResult::Status::kStaleSession);
    current = {shard_of_stream, grown.connection};
    if (grown.status == GrowResult::Status::kGrown) {
      ASSERT_TRUE(engine.disconnect(current));
      retired.post(current);
      const auto fresh = engine.connect({{0, 0}, {{3, 0}}});
      ASSERT_TRUE(fresh.has_value());
      current = *fresh;
    }
  }
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(stale_validations.load(), 0u);
  engine.self_check();
}

}  // namespace
}  // namespace wdm::engine
