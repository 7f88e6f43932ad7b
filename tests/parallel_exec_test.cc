// The kernel scheduling contracts on the one pool: the
// RangeBegin/RangeOwner partition algebra, exact task counts in
// ParallelForChunksFixed (even beyond the thread count), serial inline
// launches from inside a pool task, exact coverage under concurrent
// back-to-back launches (the tsan job runs this binary to vet the
// per-launch waits), and bit-identical kernels at every thread count.
// Kernels fan out on DefaultThreadPool(), capped at the hardware
// concurrency, so the multi-thread settings below genuinely run in
// parallel only on multi-core hosts; the explicit-task-count and
// explicit-pool cases cross threads on any host.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <span>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/tensor/kernels/kernel_config.h"
#include "src/tensor/kernels/kernels.h"
#include "tests/oracles/reference.h"

namespace inferturbo {
namespace {

TEST(RangePartition, BoundariesCoverEverythingExactlyOnce) {
  for (const std::int64_t n : {0, 1, 2, 7, 10, 16, 1000, 4097}) {
    for (const std::int64_t tasks : {1, 2, 3, 4, 7, 8, 16}) {
      if (tasks > n && n > 0) continue;
      std::int64_t covered = 0;
      for (std::int64_t t = 0; t < tasks; ++t) {
        const std::int64_t begin = kernels::RangeBegin(n, t, tasks);
        const std::int64_t end = kernels::RangeBegin(n, t + 1, tasks);
        ASSERT_LE(begin, end);
        covered += end - begin;
      }
      EXPECT_EQ(covered, n) << "n=" << n << " tasks=" << tasks;
      EXPECT_EQ(kernels::RangeBegin(n, 0, tasks), 0);
      EXPECT_EQ(kernels::RangeBegin(n, tasks, tasks), n);
    }
  }
}

TEST(RangePartition, OwnerIsTheClosedFormInverse) {
  for (const std::int64_t n : {1, 2, 7, 10, 16, 1000, 4097}) {
    for (const std::int64_t tasks : {1, 2, 3, 4, 7, 8}) {
      if (tasks > n) continue;
      for (std::int64_t t = 0; t < tasks; ++t) {
        const std::int64_t begin = kernels::RangeBegin(n, t, tasks);
        const std::int64_t end = kernels::RangeBegin(n, t + 1, tasks);
        for (std::int64_t i = begin; i < end; ++i) {
          ASSERT_EQ(kernels::RangeOwner(i, n, tasks), t)
              << "i=" << i << " n=" << n << " tasks=" << tasks;
        }
      }
    }
  }
}

class ChunkApiTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = kernels::GetKernelConfig(); }
  void TearDown() override { kernels::SetKernelConfig(saved_); }

  void UseThreads(int max_threads) {
    kernels::KernelConfig config;
    config.max_threads = max_threads;
    config.min_parallel_work = 1;
    kernels::SetKernelConfig(config);
  }

 private:
  kernels::KernelConfig saved_;
};

TEST_F(ChunkApiTest, FixedTaskCountIsHonoredBeyondThreads) {
  UseThreads(4);
  // 11 tasks on a pool of at most a few threads: every task index must
  // still be delivered exactly once with the exact partition
  // boundaries — owner-bucketed data built for 11 tasks depends on it.
  constexpr int kTasks = 11;
  constexpr std::int64_t kN = 103;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) h.store(0);
  std::vector<std::int64_t> begins(kTasks, -1), ends(kTasks, -1);
  kernels::ParallelForChunksFixed(
      kN, kTasks, [&](const kernels::RangeChunk& chunk) {
        hits[static_cast<std::size_t>(chunk.task)].fetch_add(1);
        begins[static_cast<std::size_t>(chunk.task)] = chunk.begin;
        ends[static_cast<std::size_t>(chunk.task)] = chunk.end;
        ASSERT_EQ(chunk.num_tasks, kTasks);
      });
  for (int t = 0; t < kTasks; ++t) {
    EXPECT_EQ(hits[static_cast<std::size_t>(t)].load(), 1);
    EXPECT_EQ(begins[static_cast<std::size_t>(t)],
              kernels::RangeBegin(kN, t, kTasks));
    EXPECT_EQ(ends[static_cast<std::size_t>(t)],
              kernels::RangeBegin(kN, t + 1, kTasks));
  }
}

TEST_F(ChunkApiTest, PlanNeverExceedsSchedulerThreads) {
  UseThreads(64);
  // Asking for 64 threads cannot plan more concurrency than the pool
  // has or the machine can run: excess tasks would serialize with pure
  // partitioning overhead.
  const int hardware_threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  const int planned = kernels::PlanParallelTasks(1 << 20, 1 << 10);
  EXPECT_LE(planned, static_cast<int>(DefaultThreadPool().num_threads()));
  EXPECT_LE(planned, hardware_threads);
  UseThreads(2);
  EXPECT_LE(kernels::PlanParallelTasks(1 << 20, 1 << 10), 2);
}

TEST_F(ChunkApiTest, NestedLaunchesRunInlineSerially) {
  UseThreads(4);
  // From inside a pool task, a kernel launch must not wait on the pool
  // (every worker could be waiting): it plans one task and runs it
  // inline on the calling worker, covering every index.
  constexpr std::int64_t kN = 1000;
  ThreadPool pool(4);
  std::atomic<int> failures{0};
  pool.ParallelFor(4, [&](std::size_t) {
    if (!ThreadPool::InPoolWorker()) failures.fetch_add(1);
    if (kernels::PlanParallelTasks(kN, 1 << 20) != 1) failures.fetch_add(1);
    const std::thread::id self = std::this_thread::get_id();
    std::vector<int> hits(kN, 0);
    kernels::ParallelForChunks(
        kN, 1 << 20, [&](const kernels::RangeChunk& chunk) {
          if (std::this_thread::get_id() != self) failures.fetch_add(1);
          for (std::int64_t i = chunk.begin; i < chunk.end; ++i) ++hits[i];
        });
    // An explicit task count also runs inline, every chunk in order.
    std::int64_t next_begin = 0;
    kernels::ParallelForChunksFixed(
        kN, 5, [&](const kernels::RangeChunk& chunk) {
          if (std::this_thread::get_id() != self) failures.fetch_add(1);
          if (chunk.begin != next_begin) failures.fetch_add(1);
          next_begin = chunk.end;
          for (std::int64_t i = chunk.begin; i < chunk.end; ++i) ++hits[i];
        });
    if (next_begin != kN) failures.fetch_add(1);
    for (const int h : hits) {
      if (h != 2) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ChunkApiTest, ConcurrentBackToBackLaunchesCoverExactly) {
  // Two threads fire 500 range launches each at one pool, with sizes
  // above and below its thread count: a launch that returns before its
  // own ranges finish, or a range run twice or never, breaks the
  // coverage. (This is the stress body the tsan CI job leans on.)
  ThreadPool pool(4);
  std::atomic<int> failures{0};
  const auto hammer = [&](std::uint64_t seed) {
    Rng rng(seed);
    for (int round = 0; round < 500; ++round) {
      const std::size_t n = 1 + rng.NextBounded(64);
      const std::size_t max_tasks = 1 + rng.NextBounded(9);
      std::vector<int> hits(n, 0);
      pool.ParallelForRanges(n, max_tasks,
                             [&](std::size_t begin, std::size_t end) {
                               for (std::size_t i = begin; i < end; ++i) {
                                 ++hits[i];
                               }
                             });
      for (const int h : hits) {
        if (h != 1) failures.fetch_add(1);
      }
    }
  };
  std::thread first(hammer, 7);
  std::thread second(hammer, 8);
  first.join();
  second.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ChunkApiTest, ThreadPoolRangeOverloadCoversEverythingOnce) {
  ThreadPool pool(3);
  for (const std::size_t n : {0u, 1u, 5u, 64u, 1000u}) {
    for (const std::size_t max_tasks : {1u, 2u, 3u, 8u}) {
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      pool.ParallelForRanges(n, max_tasks,
                             [&](std::size_t begin, std::size_t end) {
                               for (std::size_t i = begin; i < end; ++i) {
                                 hits[i].fetch_add(1);
                               }
                             });
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " tasks=" << max_tasks;
      }
    }
  }
}

// Bit-identity across thread counts is the contract that makes the
// scheduling knob safe to flip in production.
TEST_F(ChunkApiTest, KernelsBitIdenticalAcrossSchedulersAndThreadCounts) {
  Rng rng(11);
  const Tensor a = Tensor::RandomNormal(37, 29, 1.0f, &rng);
  const Tensor b = Tensor::RandomNormal(29, 41, 1.0f, &rng);
  const Tensor want_mm = kernels::reference::MatMul(a, b);

  const Tensor values = Tensor::RandomNormal(257, 9, 1.0f, &rng);
  std::vector<std::int64_t> ids(257);
  for (auto& id : ids) {
    id = static_cast<std::int64_t>(rng.NextBounded(31));
  }
  const Tensor want_seg = kernels::reference::SegmentSum(values, ids, 31);

  Tensor want_scatter(31, 9);
  std::span<const std::int64_t> ids_span(ids);
  {
    std::vector<std::int64_t> clipped(ids);
    kernels::reference::ScatterAddRows(&want_scatter, clipped, values);
  }

  for (const int threads : {1, 2, 3, 4}) {
    UseThreads(threads);
    const Tensor got_mm = kernels::MatMul(a, b);
    ASSERT_EQ(0,
              std::memcmp(want_mm.data(), got_mm.data(), want_mm.ByteSize()))
        << "matmul threads=" << threads;
    const Tensor got_seg = kernels::SegmentSum(values, ids, 31);
    ASSERT_EQ(0, std::memcmp(want_seg.data(), got_seg.data(),
                             want_seg.ByteSize()))
        << "segment_sum threads=" << threads;
    Tensor got_scatter(31, 9);
    kernels::ScatterAddRows(&got_scatter, ids_span, values);
    ASSERT_EQ(0, std::memcmp(want_scatter.data(), got_scatter.data(),
                             want_scatter.ByteSize()))
        << "scatter_add threads=" << threads;
  }
}

}  // namespace
}  // namespace inferturbo
