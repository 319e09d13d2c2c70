// Foundation substrate: RNG, thread pool, table/CSV rendering, CLI, logging.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <set>
#include <sstream>

#include "util/biguint.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace wdm {
namespace {

// --- Rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (const std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000000007ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
  EXPECT_THROW((void)rng.next_below(0), std::invalid_argument);
}

TEST(Rng, NextBelowCoversSmallRangeUniformly) {
  Rng rng(9);
  std::array<int, 5> histogram{};
  const int draws = 50000;
  for (int i = 0; i < draws; ++i) ++histogram[rng.next_below(5)];
  for (const int count : histogram) {
    EXPECT_NEAR(count, draws / 5, draws / 25);  // within 20% of expectation
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double value = rng.next_double();
    ASSERT_GE(value, 0.0);
    ASSERT_LT(value, 1.0);
    sum += value;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, SplitStreamsAreIndependentAndStable) {
  const Rng parent(99);
  Rng child_a = parent.split(0);
  Rng child_b = parent.split(1);
  Rng child_a2 = parent.split(0);
  EXPECT_EQ(child_a.next_u64(), child_a2.next_u64());
  int collisions = 0;
  for (int i = 0; i < 64; ++i) {
    if (child_a.next_u64() == child_b.next_u64()) ++collisions;
  }
  EXPECT_LT(collisions, 2);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(21);
  const auto sample = rng.sample_without_replacement(10, 10);
  EXPECT_EQ(std::set<std::size_t>(sample.begin(), sample.end()).size(), 10u);
  const auto small = rng.sample_without_replacement(100, 3);
  EXPECT_EQ(small.size(), 3u);
  EXPECT_THROW((void)rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(31);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7};
  auto shuffled = values;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

// --- ThreadPool ----------------------------------------------------------------

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.thread_count(), 2u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 20; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& future : futures) future.wait();
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&hits](std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  ThreadPool pool(1);
  bool touched = false;
  pool.parallel_for(0, [&touched](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlockOnSingleThreadPool) {
  // Regression: parallel_for from inside a pool task used to enqueue helper
  // chunks and block on their futures -- a guaranteed deadlock when the
  // calling task occupies the pool's only worker. Nested calls now run the
  // loop inline on the calling thread.
  ThreadPool pool(1);
  std::vector<std::atomic<int>> hits(50);
  auto future = pool.submit([&] {
    pool.parallel_for(50, [&hits](std::size_t i) { ++hits[i]; });
  });
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  future.get();
  for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, NestedParallelForPropagatesExceptionsInline) {
  ThreadPool pool(1);
  auto future = pool.submit([&] {
    pool.parallel_for(10, [](std::size_t i) {
      if (i == 3) throw std::runtime_error("nested boom");
    });
  });
  ASSERT_EQ(future.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, InWorkerThreadIdentifiesOnlyItsOwnPool) {
  ThreadPool a(1);
  ThreadPool b(1);
  EXPECT_FALSE(a.in_worker_thread());  // the test thread is in neither pool
  bool in_a = false;
  bool in_b = true;
  a.submit([&] {
     in_a = a.in_worker_thread();
     in_b = b.in_worker_thread();
   }).get();
  EXPECT_TRUE(in_a);
  EXPECT_FALSE(in_b);
  // A task on pool B that fans out through pool A still parallelizes: the
  // inline fallback only triggers for nesting within the *same* pool.
  std::atomic<int> covered{0};
  b.submit([&] { a.parallel_for(20, [&](std::size_t) { ++covered; }); }).get();
  EXPECT_EQ(covered.load(), 20);
}

// --- Table ----------------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  Table table({"name", "value"});
  table.add("alpha", 1);
  table.add("b", 22.5);
  const std::string text = table.to_text();
  EXPECT_NE(text.find("| name  | value |"), std::string::npos);
  EXPECT_NE(text.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(Table, RowWidthMismatchThrows) {
  Table table({"a", "b"});
  EXPECT_THROW(table.add_row({"only one"}), std::invalid_argument);
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, CsvEscapesSpecialCharacters) {
  Table table({"x"});
  table.add_row({"plain"});
  table.add_row({"has,comma"});
  table.add_row({"has\"quote"});
  const std::string csv = table.to_csv();
  EXPECT_NE(csv.find("plain\n"), std::string::npos);
  EXPECT_NE(csv.find("\"has,comma\""), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\""), std::string::npos);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(Table::to_cell(true), "yes");
  EXPECT_EQ(Table::to_cell(0.0), "0");
  EXPECT_EQ(Table::to_cell(42), "42");
  EXPECT_EQ(Table::to_cell(1.5e9), "1.5000e+09");
  EXPECT_EQ(Table::to_cell(BigUInt{7}), "7");
}

// --- CliParser -------------------------------------------------------------------

TEST(Cli, ParsesAllFlagForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "4.5", "--gamma"};
  CliParser cli(5, argv);
  cli.describe("alpha", "");
  cli.describe("beta", "");
  cli.describe("gamma", "");
  EXPECT_EQ(cli.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("beta", 0.0), 4.5);
  EXPECT_TRUE(cli.get_bool("gamma"));
  EXPECT_FALSE(cli.get_bool("delta"));
  EXPECT_EQ(cli.get_int("missing", 9), 9);
  EXPECT_NO_THROW(cli.validate());
}

TEST(Cli, UnknownFlagFailsValidation) {
  const char* argv[] = {"prog", "--oops=1"};
  CliParser cli(2, argv);
  EXPECT_THROW(cli.validate(), std::invalid_argument);
}

TEST(Cli, HelpRequestAndText) {
  const char* argv[] = {"prog", "--help"};
  CliParser cli(2, argv);
  cli.describe("size", "network size");
  EXPECT_TRUE(cli.wants_help());
  const std::string help = cli.help_text("summary line");
  EXPECT_NE(help.find("summary line"), std::string::npos);
  EXPECT_NE(help.find("--size"), std::string::npos);
  EXPECT_NE(help.find("network size"), std::string::npos);
}

TEST(Cli, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(CliParser(2, argv), std::invalid_argument);
}

}  // namespace
}  // namespace wdm
