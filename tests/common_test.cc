#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <thread>
#include <vector>

#include "src/common/byte_size.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/common/timer.h"

namespace inferturbo {
namespace {

TEST(RngTest, DeterministicUnderSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.NextUint64() == b.NextUint64();
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBoundedStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextBoundedHitsAllValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.NextBounded(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleIsUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 2000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 2000.0, 0.5, 0.05);
}

TEST(RngTest, GaussianHasRoughlyUnitVariance) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.08);
  EXPECT_NEAR(sq / n, 1.0, 0.12);
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversIndexSpaceExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(257, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForHandlesSmallN) {
  ThreadPool pool(4);
  int calls = 0;
  pool.ParallelFor(1, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
  pool.ParallelFor(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForIgnoresUnrelatedSubmittedTasks) {
  ThreadPool pool(4);
  // A task another caller submitted holds one worker until released.
  std::promise<void> release;
  const std::shared_future<void> released = release.get_future().share();
  std::atomic<bool> blocker_running{false};
  pool.Submit([&blocker_running, released] {
    blocker_running.store(true);
    released.wait();
  });
  while (!blocker_running.load()) std::this_thread::yield();

  // A watchdog releases the blocker after a bound, so a ParallelFor that
  // waits for the whole pool fails the test instead of hanging it.
  std::promise<void> returned;
  std::future<void> returned_future = returned.get_future();
  bool timed_out = false;
  std::thread watchdog([&] {
    timed_out = returned_future.wait_for(std::chrono::seconds(10)) !=
                std::future_status::ready;
    release.set_value();
  });
  std::atomic<int> calls{0};
  pool.ParallelFor(4, [&calls](std::size_t) { calls.fetch_add(1); });
  returned.set_value();
  watchdog.join();
  pool.Wait();
  EXPECT_FALSE(timed_out) << "ParallelFor waited for a task it did not launch";
  EXPECT_EQ(calls.load(), 4);
}

TEST(TimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  // A spin long enough to register at microsecond resolution.
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x += i;
  EXPECT_GT(timer.ElapsedSeconds(), 0.0);
  EXPECT_GE(timer.ElapsedMicros(), 0);
}

TEST(ByteSizeTest, MessageByteArithmetic) {
  EXPECT_EQ(EmbeddingBytes(64), 256u);
  EXPECT_EQ(MessageBytes(64), kMessageHeaderBytes + 256);
  EXPECT_EQ(IdOnlyMessageBytes(), kMessageHeaderBytes + 8);
}

TEST(ByteSizeTest, FormatBytesPicksUnits) {
  EXPECT_EQ(FormatBytes(512), "512 B");
  EXPECT_EQ(FormatBytes(2048), "2.0 KiB");
  EXPECT_EQ(FormatBytes(std::uint64_t{3} * 1024 * 1024 * 1024), "3.0 GiB");
}

}  // namespace
}  // namespace inferturbo
