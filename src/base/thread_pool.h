// Work-helping thread pool. Parallel sections (FFT stages, MSM windows,
// witness generation) nest freely: a thread waiting on its TaskGroup executes
// that group's own unstarted tasks instead of blocking, so a pool worker that
// spawns a nested parallel section can never deadlock the pool — and, because
// helping never picks up unrelated queue tasks, a task that blocks on a lock
// held by the helping thread can never be pulled onto it.
//
// Every task carries the submitting thread's TaskContext (kernel-counter sink
// and active trace span), so work done on pool workers is attributed to the
// activity that spawned it.
#ifndef SRC_BASE_THREAD_POOL_H_
#define SRC_BASE_THREAD_POOL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace zkml {

// Snapshot of pool utilization since construction. `workers` has one entry
// per pool worker plus a final "helper" entry for tasks drained by non-pool
// threads inside TaskGroup::Wait().
struct ThreadPoolStats {
  struct Worker {
    uint64_t tasks = 0;
    uint64_t busy_ns = 0;
    // Busy fraction of the pool's uptime; helpers report 0 (no meaningful
    // denominator — they are borrowed threads).
    double busy_fraction = 0.0;
    // CPU this worker is pinned to, or -1 when unpinned (non-global pools,
    // oversubscribed pools, platforms without affinity support).
    int pinned_cpu = -1;
  };
  std::vector<Worker> workers;
  uint64_t tasks_executed = 0;
  uint64_t total_task_ns = 0;
  uint64_t uptime_ns = 0;
};

class ThreadPool {
 public:
  // pin_workers: pin worker i to the i-th CPU of this process's affinity mask
  // (one worker per CPU keeps bucket/bench working sets in their local L2 and
  // stops the scheduler migrating hot loops). Pinning is skipped when the
  // pool is wider than the mask. Only the global pool pins by default;
  // ad-hoc pools (tests) stay unpinned so they compose.
  explicit ThreadPool(size_t num_threads, bool pin_workers = false);
  ~ThreadPool();

  // Deterministic shutdown: stops accepting queued work, drains every task
  // already in the queue, and joins the workers. Idempotent, and called by
  // the destructor. Tasks enqueued after (or racing with) shutdown run
  // inline on the submitting thread, so no task is ever silently dropped and
  // a TaskGroup::Wait can never hang on a closed pool — the previous
  // destructor made this a timing-dependent race.
  void Shutdown();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  ThreadPoolStats Stats() const;

  // Process-wide pool, sized to the CPUs this process may actually run on
  // (sched_getaffinity, not hardware_concurrency — containers and cpusets
  // routinely expose fewer). Overridable with ZKML_NUM_THREADS. Workers are
  // pinned one-per-CPU when the size matches the affinity mask.
  static ThreadPool& Global();

 private:
  friend class TaskGroup;

  void Enqueue(std::function<void()> task);
  // Runs one queued task if available; returns false when the queue is empty.
  bool TryRunOne();

  void RunTask(std::function<void()>& task, size_t slot);
  void WorkerLoop(size_t worker_index);

  // Cache-line separated so relaxed increments from different workers never
  // contend.
  struct alignas(64) WorkerCounters {
    std::atomic<uint64_t> tasks{0};
    std::atomic<uint64_t> busy_ns{0};
  };

  std::vector<std::thread> workers_;
  std::vector<int> pinned_cpus_;  // per worker; -1 = unpinned
  // num_threads() + 1 slots; the last slot accumulates help-work done by
  // threads that are not pool workers.
  std::unique_ptr<WorkerCounters[]> counters_;
  std::chrono::steady_clock::time_point start_time_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_available_;
  bool shutdown_ = false;
};

// A set of tasks whose completion can be awaited. Wait() helps execute
// unstarted tasks of THIS group while it is unfinished, making nested
// parallelism safe: a pool worker that spawns a nested parallel section runs
// its own chunks instead of blocking. Helping is deliberately restricted to
// the group's own tasks — running arbitrary pool tasks from Wait() can
// self-deadlock when the helped task blocks on a lock (or C++ static-init
// guard) the helping thread already holds, e.g. two sibling tasks both
// reaching the same lazily-initialized cache.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool = ThreadPool::Global());
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  // Tasks must not throw.
  void Submit(std::function<void()> task);
  void Wait();

 private:
  struct State;

  ThreadPool& pool_;
  // Tasks live in the group's own deque; the pool queue only carries claim
  // tickets holding shared ownership of the state, so a ticket that fires
  // after Wait() already drained the deque is a harmless no-op.
  std::shared_ptr<State> state_;
};

// Runs chunk_fn over [begin, end) split into contiguous chunks across the
// global pool. Serial for small ranges, so callers can use it unconditionally.
// Chunks target two per thread for load balance but are capped so one chunk's
// working set (bytes_per_elem per element) stays within a worker's share of
// L2 — large ranges split into more, cache-sized grains. bytes_per_elem
// defaults to a 32-byte field element; pass the real element footprint when
// iterating over wider rows.
void ParallelFor(size_t begin, size_t end, const std::function<void(size_t, size_t)>& chunk_fn,
                 size_t bytes_per_elem = 32);

// Runs chunk_fn over [begin, end) split into a few contiguous chunks per
// thread of `pool`, at every range size. For loops whose every element is
// expensive — a G1 scalar multiplication (~75 µs), a field square root —
// where ParallelFor's 1024-element serial cutoff and cache-sized grains
// (tuned for ~10 ns field operations) would leave a few hundred elements on
// one core. Serial only on a one-thread pool. Safe to call from inside a
// TaskGroup task: the nested Wait() runs this call's own chunks.
void ParallelForHeavy(size_t begin, size_t end,
                      const std::function<void(size_t, size_t)>& chunk_fn,
                      ThreadPool& pool = ThreadPool::Global());

}  // namespace zkml

#endif  // SRC_BASE_THREAD_POOL_H_
