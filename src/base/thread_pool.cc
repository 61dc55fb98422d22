#include "src/base/thread_pool.h"

#include <algorithm>
#include <deque>
#include <cstdlib>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "src/base/cpu_features.h"
#include "src/base/task_context.h"

namespace zkml {
namespace {

// The CPUs this process may run on, in mask order; empty when unavailable.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) {
        cpus.push_back(c);
      }
    }
  }
#endif
  return cpus;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads, bool pin_workers)
    : counters_(new WorkerCounters[num_threads + 1]), start_time_(std::chrono::steady_clock::now()) {
  workers_.reserve(num_threads);
  pinned_cpus_.assign(num_threads, -1);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
#if defined(__linux__)
  if (pin_workers) {
    const std::vector<int> cpus = AllowedCpus();
    // Pin only when every worker gets its own CPU; an oversubscribed pool is
    // better served by letting the scheduler juggle.
    if (!cpus.empty() && num_threads <= cpus.size()) {
      for (size_t i = 0; i < num_threads; ++i) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[i], &one);
        if (pthread_setaffinity_np(workers_[i].native_handle(), sizeof(one), &one) == 0) {
          pinned_cpus_[i] = cpus[i];
        }
      }
    }
  }
#else
  (void)pin_workers;
#endif
}

ThreadPool::~ThreadPool() { Shutdown(); }

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return;  // idempotent; workers were already joined
    }
    shutdown_ = true;
  }
  task_available_.notify_all();
  // Workers drain the queue before exiting (WorkerLoop only returns on
  // shutdown_ && tasks_.empty()), so every task enqueued before this point
  // has run by the time join returns.
  // The joined std::thread objects stay in workers_ so num_threads(), the
  // stats slots, and the helper counter index keep their meaning.
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Enqueue(std::function<void()> task) {
  // Capture the submitting thread's context so kernel counters and trace
  // spans attribute the task to the activity that spawned it, not to
  // whatever the executing worker ran last.
  std::function<void()> wrapped = [task = std::move(task), ctx = GetTaskContext()] {
    ScopedTaskContext scoped(ctx);
    task();
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!shutdown_) {
      tasks_.push(std::move(wrapped));
      task_available_.notify_one();
      return;
    }
  }
  // Pool already shut down (or shutting down): run inline on the submitting
  // thread. Deterministic — the task is never lost and waiters never hang.
  RunTask(wrapped, workers_.size());
}

void ThreadPool::RunTask(std::function<void()>& task, size_t slot) {
  const auto start = std::chrono::steady_clock::now();
  task();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() - start)
          .count();
  counters_[slot].tasks.fetch_add(1, std::memory_order_relaxed);
  counters_[slot].busy_ns.fetch_add(static_cast<uint64_t>(ns), std::memory_order_relaxed);
}

bool ThreadPool::TryRunOne() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (tasks_.empty()) {
      return false;
    }
    task = std::move(tasks_.front());
    tasks_.pop();
  }
  RunTask(task, workers_.size());  // helper slot
  return true;
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (shutdown_ && tasks_.empty()) {
        return;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    RunTask(task, worker_index);
  }
}

ThreadPoolStats ThreadPool::Stats() const {
  ThreadPoolStats stats;
  stats.uptime_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                           start_time_)
          .count());
  const size_t slots = workers_.size() + 1;
  stats.workers.resize(slots);
  for (size_t i = 0; i < slots; ++i) {
    ThreadPoolStats::Worker& w = stats.workers[i];
    w.tasks = counters_[i].tasks.load(std::memory_order_relaxed);
    w.busy_ns = counters_[i].busy_ns.load(std::memory_order_relaxed);
    if (i < workers_.size()) {
      w.pinned_cpu = pinned_cpus_[i];
      if (stats.uptime_ns > 0) {
        w.busy_fraction = static_cast<double>(w.busy_ns) / static_cast<double>(stats.uptime_ns);
      }
    }
    stats.tasks_executed += w.tasks;
    stats.total_task_ns += w.busy_ns;
  }
  return stats;
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool(
      [] {
        // The waiting thread helps drain the queue, so a pool of exactly
        // num_cpus workers already produces one transient extra runnable
        // thread; sizing to hardware_concurrency regardless of the affinity
        // mask (the old behavior) oversubscribed small containers badly.
        if (const char* env = std::getenv("ZKML_NUM_THREADS")) {
          char* end = nullptr;
          const long v = std::strtol(env, &end, 10);
          if (end != env && *end == '\0' && v > 0 && v <= 4096) {
            return static_cast<size_t>(v);
          }
        }
        return CpuFeatures::Get().num_cpus;
      }(),
      /*pin_workers=*/true);
  return pool;
}

struct TaskGroup::State {
  std::mutex mu;
  std::deque<std::function<void()>> unstarted;
  std::atomic<size_t> pending{0};
  std::mutex done_mu;
  std::condition_variable done_cv;

  // Claims one unstarted task and hands it to `run`; false when every task
  // has already been claimed (by a pool ticket or another helper). The
  // indirection lets Wait() route helper-run tasks through the pool's
  // helper-slot accounting while tickets execute them directly (the worker
  // loop already counts the ticket).
  bool RunOne(const std::function<void(std::function<void()>&)>& run) {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (unstarted.empty()) {
        return false;
      }
      task = std::move(unstarted.front());
      unstarted.pop_front();
    }
    run(task);
    // The decrement happens under the mutex so a waiter that sees zero while
    // holding (or subsequently acquiring) the mutex knows this runner will
    // never touch the group again — otherwise Wait() could return and the
    // group be destroyed between our fetch_sub and notify_all. Tickets are
    // safe regardless: they share ownership of this state.
    std::lock_guard<std::mutex> lock(done_mu);
    if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      done_cv.notify_all();
    }
    return true;
  }
};

TaskGroup::TaskGroup(ThreadPool& pool) : pool_(pool), state_(std::make_shared<State>()) {}

TaskGroup::~TaskGroup() { Wait(); }

void TaskGroup::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->unstarted.push_back(std::move(task));
  }
  state_->pending.fetch_add(1, std::memory_order_acq_rel);
  pool_.Enqueue([state = state_] {
    state->RunOne([](std::function<void()>& t) { t(); });
  });
}

void TaskGroup::Wait() {
  State& s = *state_;
  for (;;) {
    if (s.pending.load(std::memory_order_acquire) == 0) {
      break;
    }
    // Help run this group's own unstarted tasks. The waiting thread alone can
    // drain the whole group, so Wait() makes progress even on a pool with no
    // free workers; claimed tasks finish on whichever thread took them.
    if (s.RunOne([this](std::function<void()>& t) { pool_.RunTask(t, pool_.num_threads()); })) {
      continue;
    }
    // Everything is claimed but still running elsewhere: block until the last
    // runner's decrement. No new helpable work can appear (Submit and Wait
    // are not called concurrently), so an untimed wait is safe.
    std::unique_lock<std::mutex> lock(s.done_mu);
    s.done_cv.wait(lock, [&s] { return s.pending.load(std::memory_order_acquire) == 0; });
    return;
  }
  // Synchronize with the final runner's critical section before returning.
  std::lock_guard<std::mutex> lock(s.done_mu);
}

void ParallelFor(size_t begin, size_t end, const std::function<void(size_t, size_t)>& chunk_fn,
                 size_t bytes_per_elem) {
  if (end <= begin) {
    return;
  }
  const size_t n = end - begin;
  ThreadPool& pool = ThreadPool::Global();
  // Two chunks per thread for load balance, but no chunk larger than ~512KB
  // of working set (half a typical per-core L2): big ranges split into more,
  // cache-sized grains so a worker's chunk stays hot across the passes the
  // callback makes over it.
  constexpr size_t kGrainBytes = 512 * 1024;
  const size_t max_grain = std::max<size_t>(1024, kGrainBytes / std::max<size_t>(1, bytes_per_elem));
  const size_t num_chunks =
      std::min(n, std::max(pool.num_threads() * 2, (n + max_grain - 1) / max_grain));
  if (n < 1024 || num_chunks <= 1) {
    chunk_fn(begin, end);
    return;
  }
  const size_t chunk = (n + num_chunks - 1) / num_chunks;
  TaskGroup group(pool);
  for (size_t c = begin; c < end; c += chunk) {
    const size_t hi = std::min(end, c + chunk);
    group.Submit([&chunk_fn, c, hi] { chunk_fn(c, hi); });
  }
  group.Wait();
}

void ParallelForHeavy(size_t begin, size_t end,
                      const std::function<void(size_t, size_t)>& chunk_fn, ThreadPool& pool) {
  if (end <= begin) {
    return;
  }
  const size_t n = end - begin;
  // A few chunks per thread, not one: the waiting caller helps run chunks
  // while every pinned worker may be running one too, so one CPU can carry
  // two chunks at half speed. Finer chunks let the other workers absorb
  // that (a 2^9 Lagrange basis build on 4 CPUs: 95 -> 77 ms); each chunk is
  // still tens of scalar multiplications, far above the task overhead.
  constexpr size_t kChunksPerThread = 4;
  const size_t num_chunks =
      pool.num_threads() <= 1 ? 1 : std::min(n, pool.num_threads() * kChunksPerThread);
  if (num_chunks <= 1) {
    chunk_fn(begin, end);
    return;
  }
  TaskGroup group(pool);
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t lo = begin + n * c / num_chunks;
    const size_t hi = begin + n * (c + 1) / num_chunks;
    group.Submit([&chunk_fn, lo, hi] { chunk_fn(lo, hi); });
  }
  group.Wait();
}

}  // namespace zkml
