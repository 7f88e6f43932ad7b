#include "src/tensor/kernels/kernel_config.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "src/common/thread_pool.h"

namespace inferturbo {
namespace kernels {
namespace {

std::atomic<int> g_max_threads{0};
std::atomic<std::int64_t> g_min_parallel_work{1 << 18};

}  // namespace

KernelConfig GetKernelConfig() {
  KernelConfig config;
  config.max_threads = g_max_threads.load(std::memory_order_relaxed);
  config.min_parallel_work =
      g_min_parallel_work.load(std::memory_order_relaxed);
  return config;
}

void SetKernelConfig(const KernelConfig& config) {
  g_max_threads.store(config.max_threads, std::memory_order_relaxed);
  g_min_parallel_work.store(std::max<std::int64_t>(1,
                                                   config.min_parallel_work),
                            std::memory_order_relaxed);
}

int PlanParallelTasks(std::int64_t n, std::int64_t work_per_item) {
  if (n <= 0) return 1;
  // Nested launches run serially: a pool worker waiting on the pool can
  // deadlock.
  if (ThreadPool::InPoolWorker()) return 1;
  const KernelConfig config = GetKernelConfig();
  // Tasks beyond the pool's threads or the machine's cores cannot run
  // concurrently and would be pure partitioning overhead, so both cap
  // the plan; max_threads only lowers it (asking for 8 threads on a
  // 1-core host must degrade to serial, not to 8 serialized chunks with
  // worse locality).
  static const std::int64_t hardware_threads =
      std::max(1u, std::thread::hardware_concurrency());
  const std::int64_t scheduler_threads = std::min<std::int64_t>(
      static_cast<std::int64_t>(DefaultThreadPool().num_threads()),
      hardware_threads);
  const std::int64_t thread_cap =
      config.max_threads > 0 ? std::min<std::int64_t>(config.max_threads,
                                                      scheduler_threads)
                             : scheduler_threads;
  const std::int64_t total_work = n * std::max<std::int64_t>(1, work_per_item);
  return static_cast<int>(std::max<std::int64_t>(
      1, std::min({thread_cap, n, total_work / config.min_parallel_work})));
}

void ParallelForChunksFixed(std::int64_t n, int tasks,
                            const std::function<void(const RangeChunk&)>& fn) {
  if (n <= 0) return;
  tasks = std::max(1, tasks);
  const auto run_chunk = [&](std::int64_t t) {
    RangeChunk chunk;
    chunk.begin = RangeBegin(n, t, tasks);
    chunk.end = RangeBegin(n, t + 1, tasks);
    chunk.task = static_cast<int>(t);
    chunk.num_tasks = tasks;
    fn(chunk);
  };
  if (tasks == 1 || ThreadPool::InPoolWorker()) {
    for (int t = 0; t < tasks; ++t) run_chunk(t);
    return;
  }
  // One pool task per chunk: with max_tasks == tasks, the pool's range
  // overload hands every range exactly one task index.
  DefaultThreadPool().ParallelForRanges(
      static_cast<std::size_t>(tasks), static_cast<std::size_t>(tasks),
      [&](std::size_t t0, std::size_t t1) {
        for (std::size_t t = t0; t < t1; ++t) {
          run_chunk(static_cast<std::int64_t>(t));
        }
      });
}

void ParallelForChunks(std::int64_t n, std::int64_t work_per_item,
                       const std::function<void(const RangeChunk&)>& fn) {
  ParallelForChunksFixed(n, PlanParallelTasks(n, work_per_item), fn);
}

void ParallelForRanges(
    std::int64_t n, std::int64_t work_per_item,
    const std::function<void(std::int64_t, std::int64_t)>& fn) {
  ParallelForChunks(n, work_per_item, [&](const RangeChunk& chunk) {
    if (chunk.begin < chunk.end) fn(chunk.begin, chunk.end);
  });
}

}  // namespace kernels
}  // namespace inferturbo
