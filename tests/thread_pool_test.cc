// ThreadPool shutdown determinism: Shutdown() drains every queued task
// exactly once, tasks submitted after (or racing with) shutdown run inline on
// the submitting thread, and TaskGroup::Wait can never hang on a closed pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/thread_pool.h"

namespace zkml {
namespace {

TEST(ThreadPoolTest, ShutdownDrainsEveryQueuedTaskExactlyOnce) {
  ThreadPool pool(4);
  TaskGroup group(pool);
  std::atomic<int> runs{0};
  constexpr int kTasks = 256;
  for (int i = 0; i < kTasks; ++i) {
    group.Submit([&] {
      runs.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    });
  }
  pool.Shutdown();  // must block until the queue is fully drained
  EXPECT_EQ(runs.load(), kTasks);
  group.Wait();  // everything already ran; must return immediately, not hang
  EXPECT_EQ(runs.load(), kTasks);
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> runs{0};
  {
    TaskGroup group(pool);
    for (int i = 0; i < 8; ++i) {
      group.Submit([&] { runs.fetch_add(1); });
    }
  }
  pool.Shutdown();
  pool.Shutdown();  // second call is a no-op, not a double-join
  EXPECT_EQ(runs.load(), 8);
}  // destructor calls Shutdown a third time

TEST(ThreadPoolTest, PostShutdownSubmitRunsInlineOnSubmitter) {
  ThreadPool pool(2);
  pool.Shutdown();
  std::atomic<int> runs{0};
  std::thread::id ran_on;
  TaskGroup group(pool);
  group.Submit([&] {
    ran_on = std::this_thread::get_id();
    runs.fetch_add(1);
  });
  // The task already ran, synchronously, on this thread — never dropped.
  EXPECT_EQ(runs.load(), 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  group.Wait();  // must not hang waiting for dead workers
}

TEST(ThreadPoolTest, SubmitRacingShutdownNeverLosesTasks) {
  // Hammer the race window: submitters keep enqueueing while another thread
  // shuts the pool down. Every submitted task must run (queued ones drained
  // by Shutdown, late ones inline), and every Wait must return.
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(3);
    std::atomic<int> runs{0};
    std::atomic<int> submitted{0};
    std::vector<std::thread> submitters;
    for (int t = 0; t < 3; ++t) {
      submitters.emplace_back([&] {
        TaskGroup group(pool);
        for (int i = 0; i < 50; ++i) {
          submitted.fetch_add(1);
          group.Submit([&] { runs.fetch_add(1, std::memory_order_relaxed); });
        }
        group.Wait();
      });
    }
    pool.Shutdown();
    for (auto& t : submitters) t.join();
    EXPECT_EQ(runs.load(), submitted.load()) << "round " << round;
  }
}

TEST(ThreadPoolTest, StatsSlotsSurviveShutdown) {
  ThreadPool pool(3);
  {
    TaskGroup group(pool);
    for (int i = 0; i < 16; ++i) {
      group.Submit([] {});
    }
  }
  pool.Shutdown();
  // num_threads() and the per-worker stats layout (workers + helper slot)
  // keep their meaning after the workers are joined.
  EXPECT_EQ(pool.num_threads(), 3u);
  const ThreadPoolStats stats = pool.Stats();
  EXPECT_EQ(stats.workers.size(), 4u);  // 3 workers + helper slot
  uint64_t total = 0;
  for (const auto& w : stats.workers) total += w.tasks;
  EXPECT_EQ(total, stats.tasks_executed);
}

TEST(ThreadPoolTest, SiblingTasksSharingLazyInitDoNotDeadlock) {
  // Regression: sibling tasks of one group that all funnel through a shared
  // one-time initialization, where the initializer itself runs a nested
  // parallel section. With queue-wide work helping, the initializing thread's
  // nested Wait() could pick up a sibling task that then blocked on the
  // init guard the thread itself held — self-deadlock (seen with concurrent
  // shard compiles both reaching a lazily-measured hardware profile).
  // Group-local helping must complete this shape on any pool width.
  for (const size_t width : {size_t{1}, size_t{4}}) {
    ThreadPool pool(width);
    std::once_flag once;
    std::atomic<int> init_runs{0};
    std::atomic<int> task_runs{0};
    TaskGroup group(pool);
    for (int i = 0; i < 8; ++i) {
      group.Submit([&] {
        std::call_once(once, [&] {
          // Nested parallel section inside the guarded initializer.
          TaskGroup inner(pool);
          for (int c = 0; c < 16; ++c) {
            inner.Submit([&] { init_runs.fetch_add(1, std::memory_order_relaxed); });
          }
          inner.Wait();
        });
        task_runs.fetch_add(1, std::memory_order_relaxed);
      });
    }
    group.Wait();
    EXPECT_EQ(init_runs.load(), 16);
    EXPECT_EQ(task_runs.load(), 8);
  }
}

// ParallelForHeavy splits at every size: each index of [begin, end) lands in
// exactly one chunk for empty, single, below-thread-count and odd ranges,
// on the global pool and on ad-hoc pools of one and four workers.
TEST(ThreadPoolTest, ParallelForHeavyVisitsEveryIndexOnce) {
  ThreadPool one(1);
  ThreadPool four(4);
  for (ThreadPool* pool : {&ThreadPool::Global(), &one, &four}) {
    for (const size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{513}}) {
      std::vector<std::atomic<int>> visits(n + 2);
      ParallelForHeavy(
          1, n + 1,
          [&](size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i) {
              visits[i].fetch_add(1, std::memory_order_relaxed);
            }
          },
          *pool);
      for (size_t i = 0; i < n + 2; ++i) {
        EXPECT_EQ(visits[i].load(), (i >= 1 && i <= n) ? 1 : 0)
            << "pool width " << pool->num_threads() << ", n=" << n << ", index " << i;
      }
    }
  }
}

// Sharded proving and compiling run whole provers and set-ups as TaskGroup
// tasks, so the IPA generator fold, the KZG setup and the Lagrange basis
// build call ParallelForHeavy from inside one; the nested call must finish
// even when every worker is busy with an outer task.
TEST(ThreadPoolTest, ParallelForHeavyNestedInTaskGroupDoesNotDeadlock) {
  for (const size_t width : {size_t{1}, size_t{4}}) {
    ThreadPool pool(width);
    std::atomic<int> visits{0};
    TaskGroup group(pool);
    for (int t = 0; t < 8; ++t) {
      group.Submit([&] {
        ParallelForHeavy(
            0, 64,
            [&](size_t lo, size_t hi) {
              visits.fetch_add(static_cast<int>(hi - lo), std::memory_order_relaxed);
            },
            pool);
      });
    }
    group.Wait();
    EXPECT_EQ(visits.load(), 8 * 64) << "pool width " << width;
  }
}

}  // namespace
}  // namespace zkml
