#ifndef INFERTURBO_TENSOR_KERNELS_KERNEL_CONFIG_H_
#define INFERTURBO_TENSOR_KERNELS_KERNEL_CONFIG_H_

#include <cstdint>
#include <functional>

namespace inferturbo {
namespace kernels {

/// Process-wide tuning knobs for the fast kernel layer. Thread fan-out
/// never changes results — every output row is owned by exactly one
/// task in a fixed contiguous partition — so the scheduling knobs only
/// trade latency against dispatch overhead.
struct KernelConfig {
  /// Upper bound on tasks per kernel launch; 0 means the scheduler's
  /// thread count (the default pool's, capped at the hardware
  /// concurrency).
  int max_threads = 0;
  /// Minimum work (multiply-adds or copied floats) a task must carry
  /// before a kernel fans out; below this everything runs on the
  /// calling thread.
  std::int64_t min_parallel_work = 1 << 18;
};

KernelConfig GetKernelConfig();
void SetKernelConfig(const KernelConfig& config);

/// One contiguous chunk of a fixed partition of [0, n): indices
/// [begin, end), owned exclusively by task `task` of `num_tasks`.
/// Ownership decisions must use (task, num_tasks) only, never the
/// executing thread — the determinism contract.
struct RangeChunk {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  int task = 0;
  int num_tasks = 1;
};

/// The partition boundary formula every parallel kernel shares: chunk
/// t of `tasks` owns [RangeBegin(n, t, tasks), RangeBegin(n, t+1,
/// tasks)). Depends only on (n, t, tasks) — never on scheduling.
inline std::int64_t RangeBegin(std::int64_t n, std::int64_t t,
                               std::int64_t tasks) {
  return n * t / tasks;
}

/// How many tasks a kernel launch over `n` items of `work_per_item`
/// cost would fan out to under the current config (1 when the caller
/// is already a pool worker — nested launches run serially).
/// Kernels that pre-partition auxiliary state (matmul panels) call
/// this and then ParallelForChunksFixed with the same count, so the
/// plan and the execution can never disagree.
int PlanParallelTasks(std::int64_t n, std::int64_t work_per_item);

/// Runs `fn(begin, end)` over a fixed contiguous partition of [0, n).
/// Partition boundaries depend only on (n, task count), never on
/// scheduling, and each index belongs to exactly one call — the
/// determinism contract every parallel kernel builds on. Chunks run on
/// DefaultThreadPool(); everything runs serially on the caller when the
/// work is too small or the caller is already a pool worker (nested
/// waits could deadlock).
void ParallelForRanges(
    std::int64_t n, std::int64_t work_per_item,
    const std::function<void(std::int64_t, std::int64_t)>& fn);

/// As ParallelForRanges, but hands each task its RangeChunk (task
/// index and count) for owner-indexed state.
void ParallelForChunks(std::int64_t n, std::int64_t work_per_item,
                       const std::function<void(const RangeChunk&)>& fn);

/// ParallelForChunks at an exact task count (from PlanParallelTasks):
/// runs precisely `tasks` chunks even when that exceeds the scheduler's
/// threads, so state partitioned for `tasks` stays valid. From
/// inside a pool worker the chunks run inline, in task order.
void ParallelForChunksFixed(std::int64_t n, int tasks,
                            const std::function<void(const RangeChunk&)>& fn);

}  // namespace kernels
}  // namespace inferturbo

#endif  // INFERTURBO_TENSOR_KERNELS_KERNEL_CONFIG_H_
