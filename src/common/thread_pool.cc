#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "src/common/logging.h"
#include "src/telemetry/metrics.h"

namespace inferturbo {
namespace {

thread_local bool t_in_pool_worker = false;

// The CPUs the calling thread may run on, ascending; empty where
// affinity is unsupported or unreadable.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
#endif
  return cpus;
}

void PinCurrentThread(int cpu) {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  // Best effort: a denied affinity call just leaves the thread floating.
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
#else
  (void)cpu;
#endif
}

// Counts down the tasks of one ParallelFor/ParallelForRanges launch, so
// the launch waits for its own tasks and not for the whole pool. The
// notify happens under the mutex, so the waiter cannot return (and
// destroy the latch) while a worker still touches it.
class LaunchLatch {
 public:
  explicit LaunchLatch(std::size_t count) : pending_(count) {}

  void CountDown() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--pending_ == 0) done_.notify_all();
  }

  void Wait() {
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [this] { return pending_ == 0; });
  }

 private:
  std::mutex mu_;
  std::condition_variable done_;
  std::size_t pending_;
};

}  // namespace

bool ThreadPool::InPoolWorker() { return t_in_pool_worker; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  // One worker per CPU when the pool fits the machine; a larger pool
  // (or a one-CPU mask) floats, since pinning would stack workers.
  const std::vector<int> cpus = AllowedCpus();
  const bool pin = cpus.size() > 1 && num_threads <= cpus.size();
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    const int cpu = pin ? cpus[i] : -1;
    threads_.emplace_back([this, cpu] { WorkerLoop(cpu); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    INFERTURBO_CHECK(!shutdown_) << "Submit after shutdown";
    queue_.push_back(std::move(task));
    ++in_flight_;
    if (MetricsEnabled()) {
      // Under mu_, so the size read is exact; the gauge's peak records
      // the worst backlog a run ever built up.
      GlobalMetrics().GetGauge("threadpool.queue_depth")->Set(
          static_cast<std::int64_t>(queue_.size()));
    }
  }
  work_available_.notify_one();
}

void ThreadPool::SubmitUrgent(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    INFERTURBO_CHECK(!shutdown_) << "SubmitUrgent after shutdown";
    queue_.push_front(std::move(task));
    ++in_flight_;
    if (MetricsEnabled()) {
      GlobalMetrics().GetGauge("threadpool.queue_depth")->Set(
          static_cast<std::int64_t>(queue_.size()));
    }
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::WorkerLoop(int cpu) {
  t_in_pool_worker = true;
  if (cpu >= 0) PinCurrentThread(cpu);
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock,
                           [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      if (MetricsEnabled()) {
        GlobalMetrics().GetGauge("threadpool.queue_depth")->Set(
            static_cast<std::int64_t>(queue_.size()));
        GlobalMetrics().GetCounter("threadpool.tasks_executed")->Increment();
      }
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void ThreadPool::ParallelFor(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1) {
    fn(0);
    return;
  }
  // Block-partition the index space; one task per worker keeps queue
  // overhead negligible for large n.
  const std::size_t num_blocks = std::min(n, threads_.size());
  std::atomic<std::size_t> next{0};
  LaunchLatch latch(num_blocks);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    Submit([&next, n, &fn, &latch] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
        fn(i);
      }
      latch.CountDown();
    });
  }
  latch.Wait();
}

void ThreadPool::ParallelForRanges(
    std::size_t n, std::size_t max_tasks,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t tasks = std::max<std::size_t>(1, std::min(n, max_tasks));
  if (tasks == 1) {
    fn(0, n);
    return;
  }
  // tasks <= n, so every range is non-empty.
  LaunchLatch latch(tasks);
  for (std::size_t t = 0; t < tasks; ++t) {
    const std::size_t begin = n * t / tasks;
    const std::size_t end = n * (t + 1) / tasks;
    Submit([&fn, &latch, begin, end] {
      fn(begin, end);
      latch.CountDown();
    });
  }
  latch.Wait();
}

ThreadPool& DefaultThreadPool() {
  static ThreadPool* pool =
      new ThreadPool(std::max(2u, std::thread::hardware_concurrency()));
  return *pool;
}

}  // namespace inferturbo
