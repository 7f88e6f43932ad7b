#ifndef INFERTURBO_COMMON_THREAD_POOL_H_
#define INFERTURBO_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace inferturbo {

/// A fixed-size work-queue thread pool — the one scheduler in the
/// process.
///
/// Both distributed-engine simulations (Pregel workers, MapReduce
/// mappers/reducers) schedule their logical instances onto this pool, so
/// "1000 instances" can run on an N-core machine while per-instance cost
/// is still accounted individually, and the tensor kernels fan their
/// range chunks out on DefaultThreadPool().
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1). On Linux, when the pool
  /// is no larger than the CPUs the process may run on (and there are
  /// at least two), worker i is pinned to the i-th of those CPUs, so a
  /// worker keeps its core and its cache across launches. Threads a
  /// pinned worker starts inherit its one-CPU mask.
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` for execution. Must not be called after Shutdown.
  void Submit(std::function<void()> task);

  /// Enqueues `task` at the front of the queue. Retry and speculative
  /// backup attempts use this so recovery work is not stuck behind a
  /// long backlog of first attempts.
  void SubmitUrgent(std::function<void()> task);

  /// Blocks until every submitted task has finished running.
  void Wait();

  std::size_t num_threads() const { return threads_.size(); }

  /// Runs `fn(i)` for i in [0, n) across the pool and waits for all.
  /// `fn` must be safe to invoke concurrently. Waits for this launch's
  /// own tasks only: tasks other threads Submit meanwhile neither delay
  /// nor starve it.
  void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Runs `fn(begin, end)` over a fixed contiguous partition of [0, n)
  /// into at most `max_tasks` ranges — one queued task per range, so
  /// the per-index dispatch of ParallelFor (an atomic fetch_add and an
  /// indirect call per element) is paid once per range instead.
  /// Boundaries depend only on (n, task count); each index belongs to
  /// exactly one call. Waits for this launch's own tasks only.
  void ParallelForRanges(
      std::size_t n, std::size_t max_tasks,
      const std::function<void(std::size_t, std::size_t)>& fn);

  /// True when the calling thread is a worker of *any* ThreadPool.
  /// A pool task that launches on a pool and waits can deadlock (every
  /// worker may be waiting on tasks queued behind it), so layered
  /// parallelism — e.g. a tensor kernel invoked from a Pregel worker —
  /// checks this and runs serially instead. It is the process's one
  /// nested-parallelism rule.
  static bool InPoolWorker();

 private:
  void WorkerLoop(int cpu);

  std::vector<std::thread> threads_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// The process-wide default pool: max(2, hardware concurrency) threads.
ThreadPool& DefaultThreadPool();

}  // namespace inferturbo

#endif  // INFERTURBO_COMMON_THREAD_POOL_H_
