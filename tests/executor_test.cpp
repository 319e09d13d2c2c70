// The shard executor (DESIGN.md §3.13): the MPSC submission queue, the
// engine's claim-flag exclusivity with caller-runs flat combining (FIFO,
// exceptions delivered to their own submitter, backpressure on a full
// queue), ChurnDriver determinism across worker counts, batch sizes and
// connect_batch values, cross-shard grow (two-phase, with deterministic
// rollback via the test hook), and the lock-free read surface (is_active /
// find_session / admission_precheck / snapshot-spine active_sessions)
// agreeing with the exact ground truth.
//
// Runs under the tsan ctest label: the exclusivity handoff (claim-flag
// release/acquire) and the ticket publication are exactly the kind of
// protocol TSan can falsify.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "engine/churn_driver.h"
#include "engine/sharded_engine.h"
#include "util/metrics.h"
#include "util/mpsc_queue.h"

namespace wdm::engine {
namespace {

EngineConfig small_config() {
  EngineConfig config;
  config.params = {2, 4, 3, 2};  // n=2 r=4 m=3 k=2, N=8 per shard
  config.shards = 3;
  return config;
}

// -- BoundedMpscQueue ---------------------------------------------------------

TEST(BoundedMpscQueue, FifoAndBoundedSingleThreaded) {
  BoundedMpscQueue<int> queue(4);
  EXPECT_EQ(queue.capacity(), 4u);
  int out = 0;
  EXPECT_FALSE(queue.try_pop(out));  // empty
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(queue.try_push(i));
  EXPECT_FALSE(queue.try_push(99));  // full: backpressure, not overwrite
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.try_pop(out));
    EXPECT_EQ(out, i);  // FIFO
  }
  EXPECT_FALSE(queue.try_pop(out));
  // Wraparound: the ring stays usable after full/empty cycles.
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(queue.try_push(round));
    ASSERT_TRUE(queue.try_pop(out));
    EXPECT_EQ(out, round);
  }
}

TEST(BoundedMpscQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(BoundedMpscQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(BoundedMpscQueue<int>(5).capacity(), 8u);
  EXPECT_EQ(BoundedMpscQueue<int>(64).capacity(), 64u);
}

TEST(BoundedMpscQueue, MultiProducerSingleConsumerDeliversEverything) {
  // 4 producers x 2000 items through a deliberately tiny ring: heavy
  // full/empty churn, every item delivered exactly once.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2000;
  BoundedMpscQueue<std::uint64_t> queue(8);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::uint64_t item =
            (static_cast<std::uint64_t>(p) << 32) | static_cast<std::uint32_t>(i);
        while (!queue.try_push(item)) std::this_thread::yield();
      }
    });
  }
  std::vector<std::uint32_t> next(kProducers, 0);  // per-producer FIFO check
  std::size_t received = 0;
  while (received < kProducers * kPerProducer) {
    std::uint64_t item = 0;
    if (!queue.try_pop(item)) {
      std::this_thread::yield();
      continue;
    }
    const auto producer = static_cast<std::size_t>(item >> 32);
    const auto seq = static_cast<std::uint32_t>(item & 0xFFFFFFFFu);
    ASSERT_LT(producer, static_cast<std::size_t>(kProducers));
    EXPECT_EQ(seq, next[producer]);  // per-producer order preserved
    ++next[producer];
    ++received;
  }
  for (std::thread& t : producers) t.join();
  std::uint64_t leftover = 0;
  EXPECT_FALSE(queue.try_pop(leftover));
}

// -- ShardExecutor op round-trips --------------------------------------------

/// Parks one thread inside an op on `shard` (holding its claim) until
/// release() -- the test handle on "this shard is busy right now".
class ParkedOp {
 public:
  ParkedOp(const ShardedEngine& engine, std::size_t shard)
      : thread_([this, &engine, shard] {
          engine.run_exclusive(shard, [this] {
            parked_.store(true, std::memory_order_release);
            while (!released_.load(std::memory_order_acquire)) {
              std::this_thread::yield();
            }
          });
        }) {
    while (!parked_.load(std::memory_order_acquire)) std::this_thread::yield();
  }
  ~ParkedOp() {
    release();
    thread_.join();
  }
  void release() { released_.store(true, std::memory_order_release); }

 private:
  std::atomic<bool> parked_{false};
  std::atomic<bool> released_{false};
  std::thread thread_;
};

TEST(ShardExecutor, PublicSessionApiRoutesThroughTheExecutor) {
  ShardedEngine engine(small_config());
  const std::uint64_t waits_before = metrics().timer("engine.op_wait_ns").count();

  const auto session = engine.connect({{0, 0}, {{3, 0}, {5, 0}}});
  ASSERT_TRUE(session.has_value());
  EXPECT_EQ(engine.active_sessions(), 1u);
  EXPECT_TRUE(engine.is_active(*session));

  const GrowResult grown = engine.grow(*session, {6, 0});
  ASSERT_EQ(grown.status, GrowResult::Status::kGrown);
  EXPECT_FALSE(engine.is_active(*session));  // break-before-make renewed id
  EXPECT_TRUE(engine.is_active({session->shard, grown.connection}));

  engine.self_check();  // one op per shard

  EXPECT_TRUE(engine.disconnect({session->shard, grown.connection}));
  EXPECT_FALSE(engine.disconnect({session->shard, grown.connection}));
  EXPECT_EQ(engine.active_sessions(), 0u);
  EXPECT_EQ(engine.active_sessions_exact(), 0u);
  // Every op rode a shard queue: connect, grow, 3 self-checks, 2
  // disconnects and 3 exact counts each left an op-wait sample.
  if (metrics_enabled()) {
    EXPECT_GE(metrics().timer("engine.op_wait_ns").count() - waits_before,
              10u);
  }
}

TEST(ShardExecutor, ConcurrentSubmittersOnEveryShard) {
  // 8 client threads hammer connect/disconnect through the queues; the
  // engine must stay consistent (self_check) and end empty. TSan-audited
  // exclusivity is the real assertion here.
  ShardedEngine engine(small_config());
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 200;
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&engine, t] {
      const std::size_t port = static_cast<std::size_t>(t) % 8;
      for (int i = 0; i < kOpsPerThread; ++i) {
        const auto session = engine.connect(
            {{port, static_cast<Wavelength>(t % 2)}, {{(port + 3) % 8, 0}}});
        if (session) {
          EXPECT_TRUE(engine.is_active(*session));
          EXPECT_TRUE(engine.disconnect(*session));
          EXPECT_FALSE(engine.is_active(*session));
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  engine.self_check();
  EXPECT_EQ(engine.active_sessions(), 0u);
  EXPECT_EQ(engine.active_sessions_exact(), 0u);
}

TEST(ShardExecutor, ExceptionReachesItsOwnSubmitter) {
  // A throwing op queued behind a parked op runs on the PARKED thread (the
  // claim holder drains it), yet its exception must surface at its own
  // submitter -- never on the draining thread -- and the claim must be
  // released so the shard stays usable.
  ShardedEngine engine(small_config());
  std::thread::id submitted_on;
  std::thread::id ran_on;
  bool caught = false;
  {
    ParkedOp parked(engine, 0);
    std::thread submitter([&] {
      submitted_on = std::this_thread::get_id();
      try {
        engine.run_exclusive(0, [&] {
          ran_on = std::this_thread::get_id();
          throw std::runtime_error("op body failed");
        });
      } catch (const std::runtime_error& error) {
        caught = std::string(error.what()) == "op body failed";
      }
    });
    while (engine.queued_ops(0) == 0) std::this_thread::yield();
    parked.release();  // the parked thread drains the throwing op, unharmed
    submitter.join();
  }
  EXPECT_TRUE(caught);
  EXPECT_NE(ran_on, submitted_on);  // drained by a different thread
  EXPECT_EQ(engine.queued_ops(0), 0u);

  // The claim was released: the shard still serves ops.
  bool ran = false;
  engine.run_exclusive(0, [&] { ran = true; });
  EXPECT_TRUE(ran);
  for (const std::size_t port : engine.owned_ports(0)) {
    const auto session = engine.connect({{port, 0}, {{(port + 3) % 8, 0}}});
    ASSERT_TRUE(session.has_value());
    EXPECT_TRUE(engine.disconnect(*session));
  }
  engine.self_check();
}

TEST(ShardExecutor, FullQueueBackpressuresUntilTheClaimFreesIt) {
  // Park shard 0, then submit more ops than its queue holds: the queue
  // fills to capacity and the surplus submitters wait in the backpressure
  // loop. Releasing the claim must let every op run exactly once, in a
  // shard that stays consistent.
  ShardedEngine engine(small_config());
  constexpr std::size_t kSurplus = 3;
  constexpr std::size_t kSubmitters = ShardedEngine::kQueueCapacity + kSurplus;
  std::atomic<std::size_t> entered{0};
  std::size_t executed = 0;  // written only inside ops on shard 0
  std::vector<std::thread> submitters;
  {
    ParkedOp parked(engine, 0);
    submitters.reserve(kSubmitters);
    for (std::size_t t = 0; t < kSubmitters; ++t) {
      submitters.emplace_back([&] {
        entered.fetch_add(1);
        engine.run_exclusive(0, [&] { ++executed; });
      });
    }
    while (engine.queued_ops(0) < ShardedEngine::kQueueCapacity) {
      std::this_thread::yield();
    }
    while (entered.load() < kSubmitters) std::this_thread::yield();
    EXPECT_EQ(engine.queued_ops(0), ShardedEngine::kQueueCapacity);
    // Give the surplus submitters time to reach the full queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(engine.queued_ops(0), ShardedEngine::kQueueCapacity);
  }
  for (std::thread& t : submitters) t.join();
  std::size_t total = 0;
  engine.run_exclusive(0, [&] { total = executed; });
  EXPECT_EQ(total, kSubmitters);
  EXPECT_EQ(engine.queued_ops(0), 0u);
  engine.self_check();
}

// -- ChurnDriver determinism -------------------------------------------------

TEST(QueuedChurn, BitIdenticalToSerialAcrossWorkersBatchesAndConnectBatches) {
  // The determinism gate: ChurnStats -- every counter, every shard --
  // identical to the serial replay for every (workers, batch,
  // connect_batch) cell, classic (connect_batch 0) and batched arrivals.
  for (const std::size_t connect_batch : {0u, 8u, 32u}) {
    ChurnConfig config;
    config.ops_per_shard = 300;
    config.connect_batch = connect_batch;
    config.self_check_every = 150;
    std::optional<ChurnStats> reference;
    {
      ShardedEngine engine(small_config());
      reference = ChurnDriver(engine, config).run_serial();
    }
    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
      ThreadPool pool(workers);
      for (const std::size_t batch : {1u, 8u, 64u}) {
        config.workers = workers;
        config.batch = batch;
        ShardedEngine engine(small_config());
        const ChurnStats stats = ChurnDriver(engine, config).run(pool);
        EXPECT_EQ(stats, *reference)
            << "workers=" << workers << " batch=" << batch
            << " connect_batch=" << connect_batch << "\n got "
            << stats.to_string() << "\n want " << reference->to_string();
        EXPECT_EQ(stats.total.stale_accepted, 0u);
        EXPECT_EQ(engine.active_sessions(), engine.active_sessions_exact());
        EXPECT_EQ(engine.active_sessions(), stats.leftover_sessions);
      }
    }
  }
}

TEST(QueuedChurn, BatchedArrivalsStayDeterministicWhenQueued) {
  ChurnConfig config;
  config.ops_per_shard = 800;
  config.batch = 16;
  config.connect_batch = 8;
  std::optional<ChurnStats> reference;
  {
    ShardedEngine engine(small_config());
    ChurnDriver driver(engine, config);
    reference = driver.run_serial();
  }
  for (const std::size_t workers : {1u, 3u}) {
    config.workers = workers;
    ShardedEngine engine(small_config());
    ChurnDriver driver(engine, config);
    ThreadPool pool(workers);
    EXPECT_EQ(driver.run(pool), *reference) << "workers=" << workers;
  }
}

// -- lock-free read surface ---------------------------------------------------

TEST(LockFreeReads, FindSessionAndPrecheck) {
  ShardedEngine engine(small_config());
  EXPECT_FALSE(engine.is_active({99, 1}));  // out-of-range shard
  EXPECT_FALSE(engine.find_session({0, 0}).has_value());

  const auto session = engine.connect({{0, 0}, {{3, 0}}});
  ASSERT_TRUE(session.has_value());
  const auto probe = engine.find_session(*session);
  ASSERT_TRUE(probe.has_value());
  EXPECT_EQ(probe->shard, session->shard);
  EXPECT_EQ(probe->slot, ThreeStageNetwork::slot_of_id(session->connection));
  EXPECT_EQ(probe->generation,
            ThreeStageNetwork::generation_of_id(session->connection));
  EXPECT_GE(probe->generation, 1u);

  const std::int64_t expected_margin =
      static_cast<std::int64_t>(engine.config().params.m) -
      static_cast<std::int64_t>(engine.theorem_bound().m);
  for (std::size_t s = 0; s < engine.shard_count(); ++s) {
    const AdmissionPrecheck pre = engine.admission_precheck(s);
    EXPECT_GT(pre.version, 0u);  // construction published
    EXPECT_EQ(pre.margin, expected_margin);  // no faults injected
    EXPECT_EQ(pre.admit, expected_margin >= 0);
    EXPECT_EQ(pre.sessions, s == session->shard ? 1u : 0u);
  }

  ASSERT_TRUE(engine.disconnect(*session));
  EXPECT_FALSE(engine.find_session(*session).has_value());
}

TEST(LockFreeReads, ActiveSessionsAgreesWithLockedAtQuiescence) {
  // The agreement gate: drive real churn, then compare the snapshot-spine
  // sum against the exact per-shard count.
  ShardedEngine engine(small_config());
  ChurnConfig config;
  config.ops_per_shard = 1500;
  config.workers = 4;
  ChurnDriver driver(engine, config);
  const ChurnStats stats = driver.run();
  EXPECT_EQ(engine.active_sessions(), engine.active_sessions_exact());
  EXPECT_EQ(engine.active_sessions(), stats.leftover_sessions);
}

// -- cross-shard grow ---------------------------------------------------------

/// A source-shard session plus a target shard distinct from its home.
struct CrossPair {
  SessionId session;
  std::size_t target;
};

CrossPair connect_for_migration(ShardedEngine& engine) {
  const auto session = engine.connect({{0, 0}, {{3, 0}}});
  EXPECT_TRUE(session.has_value());
  const std::size_t target = (session->shard + 1) % engine.shard_count();
  return {*session, target};
}

TEST(CrossShardGrow, MigratesTheSessionToTheTargetShard) {
  ShardedEngine engine(small_config());
  const CrossPair pair = connect_for_migration(engine);

  const CrossGrowResult result = engine.grow_to_shard(pair.session, {5, 0},
                                                      pair.target);
  ASSERT_EQ(result.status, GrowResult::Status::kGrown);
  EXPECT_EQ(result.session.shard, pair.target);
  EXPECT_TRUE(engine.is_active(result.session));
  EXPECT_FALSE(engine.is_active(pair.session));  // original released
  EXPECT_EQ(engine.active_sessions(), 1u);

  // The migrated session carries both destinations on the target replica.
  const auto* entry = engine.shard_switch(pair.target)
                          .network()
                          .find_connection(result.session.connection);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->first.outputs.size(), 2u);
  engine.self_check();
  EXPECT_TRUE(engine.disconnect(result.session));
}

TEST(CrossShardGrow, StaleSessionRejectedUpFront) {
  ShardedEngine engine(small_config());
  const CrossPair pair = connect_for_migration(engine);
  ASSERT_TRUE(engine.disconnect(pair.session));
  const CrossGrowResult result = engine.grow_to_shard(pair.session, {5, 0},
                                                      pair.target);
  EXPECT_EQ(result.status, GrowResult::Status::kStaleSession);
  EXPECT_EQ(engine.active_sessions(), 0u);
  engine.self_check();
}

TEST(CrossShardGrow, BlockedTargetLeavesTheOriginalUntouched) {
  ShardedEngine engine(small_config());
  const CrossPair pair = connect_for_migration(engine);
  // Saturate the migrated request's input endpoint on the target replica:
  // a session from THIS engine cannot do it (port 0 belongs to the source
  // shard), but the replica is directly reachable for the setup.
  auto& target_switch = engine.shard_switch(pair.target);
  const auto blocker = target_switch.try_connect({{0, 0}, {{7, 0}}});
  ASSERT_TRUE(blocker.has_value());

  const CrossGrowResult result = engine.grow_to_shard(pair.session, {5, 0},
                                                      pair.target);
  EXPECT_EQ(result.status, GrowResult::Status::kBlocked);
  EXPECT_EQ(result.session, pair.session);       // same id, nothing renewed
  EXPECT_TRUE(engine.is_active(pair.session));   // original untouched
  engine.self_check();
}

TEST(CrossShardGrow, ConcurrentDisconnectTriggersRollback) {
  // Deterministic rollback: the between-phases hook tears the original down
  // after the grown copy was admitted, so phase 3 must lose the generation
  // race and roll the copy back.
  ShardedEngine engine(small_config());
  const CrossPair pair = connect_for_migration(engine);
  bool hook_ran = false;
  engine.cross_grow_between_phases_hook = [&](SessionId original,
                                              SessionId grown) {
    hook_ran = true;
    EXPECT_EQ(grown.shard, pair.target);
    EXPECT_TRUE(engine.is_active(grown));  // make-before-break: copy is live
    EXPECT_TRUE(engine.disconnect(original));
  };
  const CrossGrowResult result = engine.grow_to_shard(pair.session, {5, 0},
                                                      pair.target);
  EXPECT_TRUE(hook_ran);
  EXPECT_EQ(result.status, GrowResult::Status::kStaleSession);
  EXPECT_EQ(engine.active_sessions(), 0u);  // rollback released the copy
  EXPECT_EQ(engine.active_sessions_exact(), 0u);
  engine.self_check();
}

TEST(CrossShardGrow, WorksThroughTheExecutor) {
  // Each phase is one op; with the target shard parked, phase 2 queues
  // behind the parked op and runs on the parked thread once it lets go.
  ShardedEngine engine(small_config());
  const CrossPair pair = connect_for_migration(engine);
  CrossGrowResult result;
  {
    ParkedOp parked(engine, pair.target);
    std::thread grower([&] {
      result = engine.grow_to_shard(pair.session, {5, 0}, pair.target);
    });
    while (engine.queued_ops(pair.target) == 0) std::this_thread::yield();
    parked.release();
    grower.join();
  }
  ASSERT_EQ(result.status, GrowResult::Status::kGrown);
  EXPECT_TRUE(engine.is_active(result.session));
  EXPECT_EQ(engine.active_sessions_exact(), 1u);
  engine.self_check();
}

TEST(CrossShardGrow, GrowAnywhereFallsBackToAnotherShard) {
  ShardedEngine engine(small_config());
  // Find a shard with >= 2 owned ports and saturate the home replica's
  // middle stage enough that a local grow of `session` blocks, then verify
  // grow_anywhere lands it on a foreign shard.
  std::size_t shard = 0;
  while (engine.owned_ports(shard).size() < 2) ++shard;
  const std::size_t source_a = engine.owned_ports(shard)[0];
  const std::size_t source_b = engine.owned_ports(shard)[1];
  const auto session = engine.connect({{source_a, 0}, {{3, 0}}});
  ASSERT_TRUE(session.has_value());
  // Occupy the grow target's output endpoint locally so the local grow (and
  // only the local grow) blocks.
  const auto blocker = engine.connect({{source_b, 0}, {{5, 0}}});
  ASSERT_TRUE(blocker.has_value());

  const CrossGrowResult result = engine.grow_anywhere(*session, {5, 0});
  ASSERT_EQ(result.status, GrowResult::Status::kGrown);
  EXPECT_NE(result.session.shard, session->shard);
  EXPECT_TRUE(engine.is_active(result.session));
  EXPECT_EQ(engine.active_sessions(), 2u);
  engine.self_check();
}

}  // namespace
}  // namespace wdm::engine
