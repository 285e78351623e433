#include "support/task_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/diagnostics.hpp"

namespace rtlock::support {
namespace {

TEST(TaskPoolTest, ResolveThreadCountPassesExplicitValuesThrough) {
  EXPECT_EQ(resolveThreadCount(1), 1);
  EXPECT_EQ(resolveThreadCount(4), 4);
  EXPECT_EQ(resolveThreadCount(64), 64);
}

TEST(TaskPoolTest, ResolveThreadCountDefaultsToAtLeastOne) {
  EXPECT_GE(resolveThreadCount(0), 1);
  EXPECT_GE(resolveThreadCount(-3), 1);
}

TEST(TaskPoolTest, MapReturnsResultsInSubmissionOrder) {
  TaskPool pool{4};
  // Later tasks finish first (earlier submissions sleep longer), so a pool
  // that collected by completion order would return a reversed vector.
  const auto results = pool.map(16, [](std::size_t index) {
    std::this_thread::sleep_for(std::chrono::microseconds((16 - index) * 200));
    return index;
  });
  ASSERT_EQ(results.size(), 16u);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i);
}

TEST(TaskPoolTest, SingleThreadPoolRunsTasksInlineOnCallingThread) {
  TaskPool pool{1};
  EXPECT_EQ(pool.threadCount(), 1);
  const auto caller = std::this_thread::get_id();
  const auto ids =
      pool.map(8, [&](std::size_t) { return std::this_thread::get_id(); });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(TaskPoolTest, MultiThreadPoolUsesWorkerThreads) {
  TaskPool pool{4};
  EXPECT_EQ(pool.threadCount(), 4);
  const auto caller = std::this_thread::get_id();
  const auto ids = pool.map(32, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    return std::this_thread::get_id();
  });
  for (const auto& id : ids) EXPECT_NE(id, caller);
}

TEST(TaskPoolTest, ExceptionPropagatesFromWait) {
  TaskPool pool{4};
  EXPECT_THROW(pool.map(8,
                        [](std::size_t index) {
                          if (index == 5) throw std::runtime_error("task 5 failed");
                          return index;
                        }),
               std::runtime_error);
}

TEST(TaskPoolTest, FirstExceptionBySubmissionOrderWins) {
  for (const int threads : {1, 4}) {
    TaskPool pool{threads};
    try {
      pool.map(8, [](std::size_t index) {
        // Make the *later* submission fail first in wall-clock time; the
        // earlier submission's error must still win.
        if (index == 6) throw std::runtime_error("task 6");
        if (index == 2) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          throw std::runtime_error("task 2");
        }
        return index;
      });
      FAIL() << "expected a task exception (threads=" << threads << ")";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "task 2") << "threads=" << threads;
    }
  }
}

TEST(TaskPoolTest, InlinePoolDefersExceptionsToWait) {
  TaskPool pool{1};
  // submit() must not throw even though the task does; the error surfaces
  // at wait(), matching the threaded pool's contract.
  EXPECT_NO_THROW(pool.submit([] { throw std::runtime_error("deferred"); }));
  EXPECT_THROW(pool.wait(), std::runtime_error);
}

TEST(TaskPoolTest, PoolIsReusableAcrossBatches) {
  TaskPool pool{3};
  for (int batch = 0; batch < 5; ++batch) {
    const auto results =
        pool.map(10, [batch](std::size_t index) { return batch * 100 + static_cast<int>(index); });
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i], batch * 100 + static_cast<int>(i));
    }
  }
}

TEST(TaskPoolTest, PoolIsReusableAfterAFailedBatch) {
  TaskPool pool{3};
  EXPECT_THROW(pool.map(4, [](std::size_t) -> int { throw std::runtime_error("boom"); }),
               std::runtime_error);
  const auto results = pool.map(4, [](std::size_t index) { return index + 1; });
  ASSERT_EQ(results.size(), 4u);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i + 1);
}

TEST(TaskPoolTest, SubmitWaitApiTracksSubmissionIndices) {
  TaskPool pool{2};
  std::atomic<int> counter{0};
  EXPECT_EQ(pool.submit([&] { ++counter; }), 0u);
  EXPECT_EQ(pool.submit([&] { ++counter; }), 1u);
  EXPECT_EQ(pool.submit([&] { ++counter; }), 2u);
  pool.wait();
  EXPECT_EQ(counter.load(), 3);
  // Indices restart per batch after wait().
  EXPECT_EQ(pool.submit([&] { ++counter; }), 0u);
  pool.wait();
  EXPECT_EQ(counter.load(), 4);
}

TEST(TaskPoolTest, NullTaskIsRejected) {
  TaskPool pool{2};
  EXPECT_THROW(pool.submit(std::function<void()>{}), ContractViolation);
}

TEST(TaskPoolTest, StressTasksCompletingOutOfOrderStayOrdered) {
  TaskPool pool{8};
  std::atomic<std::size_t> completionStamp{0};
  constexpr std::size_t kTasks = 400;
  // Pseudo-random sleeps decorrelate completion order from submission
  // order; each task records when it finished.
  const auto stamps = pool.map(kTasks, [&](std::size_t index) {
    std::this_thread::sleep_for(std::chrono::microseconds((index * 7919) % 293));
    return completionStamp.fetch_add(1);
  });
  ASSERT_EQ(stamps.size(), kTasks);
  // Every stamp is present exactly once (no lost or duplicated slots)...
  std::vector<std::size_t> sorted = stamps;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < kTasks; ++i) EXPECT_EQ(sorted[i], i);
  // ...and with 8 workers the completion order genuinely diverged from the
  // submission order somewhere, which is exactly what map() must hide.
  bool outOfOrder = false;
  for (std::size_t i = 1; i < kTasks && !outOfOrder; ++i) {
    outOfOrder = stamps[i] < stamps[i - 1];
  }
  EXPECT_TRUE(outOfOrder);
}

TEST(TaskPoolTest, MapWithZeroTasksReturnsEmpty) {
  TaskPool pool{4};
  const auto results = pool.map(0, [](std::size_t index) { return index; });
  EXPECT_TRUE(results.empty());
}

TEST(TaskPoolTest, DestructorDrainsOutstandingTasks) {
  std::atomic<int> counter{0};
  {
    TaskPool pool{4};
    for (int i = 0; i < 64; ++i) {
      pool.submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++counter;
      });
    }
    // No wait(): the destructor must drain the queue before joining.
  }
  EXPECT_EQ(counter.load(), 64);
}

TEST(TaskPoolTest, RequestStopSkipsQueuedTasksKeepsCompletedResults) {
  // Cancel mid-map: a task flips the stop flag partway through the batch.
  // Tasks that already ran keep their results; skipped tasks keep the
  // default-constructed slot value — the completed prefix a serial loop
  // stopping at the same point would produce.
  TaskPool pool{1};  // serial: deterministic stop point
  const std::size_t stopAt = 10;
  const auto results = pool.map(100, [&](std::size_t index) {
    if (index == stopAt) pool.requestStop();
    return static_cast<int>(index) + 1;
  });
  ASSERT_EQ(results.size(), 100u);
  for (std::size_t i = 0; i <= stopAt; ++i) {
    EXPECT_EQ(results[i], static_cast<int>(i) + 1) << i;
  }
  for (std::size_t i = stopAt + 1; i < results.size(); ++i) {
    EXPECT_EQ(results[i], 0) << i;  // skipped: default value
  }
  EXPECT_TRUE(pool.stopRequested());

  // The flag is sticky across batches until cleared.
  const auto drained = pool.map(5, [](std::size_t) { return 7; });
  for (const int value : drained) EXPECT_EQ(value, 0);
  pool.clearStop();
  EXPECT_FALSE(pool.stopRequested());
  const auto fresh = pool.map(5, [](std::size_t) { return 7; });
  for (const int value : fresh) EXPECT_EQ(value, 7);
}

TEST(TaskPoolTest, RequestStopDrainsThreadedPool) {
  // Threaded variant: the stop lands at a nondeterministic point, so only
  // the invariants are asserted — every result is either computed or left
  // at the default, wait() unblocks, and the batch after clearStop() runs
  // in full.
  TaskPool pool{4};
  std::atomic<int> ran{0};
  const auto results = pool.map(200, [&](std::size_t index) {
    if (index == 50) pool.requestStop();
    ran.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    return 1;
  });
  int computed = 0;
  for (const int value : results) {
    ASSERT_TRUE(value == 0 || value == 1);
    computed += value;
  }
  EXPECT_EQ(computed, ran.load());
  EXPECT_LT(computed, 200);  // something was actually skipped
  pool.clearStop();
  const auto fresh = pool.map(32, [](std::size_t) { return 1; });
  int freshComputed = 0;
  for (const int value : fresh) freshComputed += value;
  EXPECT_EQ(freshComputed, 32);
}

TEST(TaskPoolTrySubmitTest, InlinePoolAlwaysAcceptsAndRunsImmediately) {
  TaskPool pool{1, /*queueCapacity=*/1};
  EXPECT_EQ(pool.queueCapacity(), 1u);
  int ran = 0;
  // The serial path never queues, so capacity can never be exceeded: every
  // trySubmit accepts and the task has already run by the time it returns.
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(pool.trySubmit([&ran] { ++ran; }));
    EXPECT_EQ(ran, i + 1);
  }
  EXPECT_EQ(pool.queueDepth(), 0u);
  pool.wait();
}

TEST(TaskPoolTrySubmitTest, UnboundedPoolNeverRejects) {
  TaskPool pool{4};  // queueCapacity 0 = unbounded
  EXPECT_EQ(pool.queueCapacity(), 0u);
  std::atomic<int> ran{0};
  for (int i = 0; i < 256; ++i) {
    EXPECT_TRUE(pool.trySubmit([&ran] { ++ran; }));
  }
  pool.wait();
  EXPECT_EQ(ran.load(), 256);
}

TEST(TaskPoolTrySubmitTest, RejectsExactlyAtQueueCapacity) {
  TaskPool pool{2, /*queueCapacity=*/2};
  std::atomic<bool> release{false};
  std::atomic<int> started{0};
  std::atomic<int> ran{0};
  const auto blocker = [&] {
    ++started;
    while (!release.load()) std::this_thread::sleep_for(std::chrono::microseconds(50));
    ++ran;
  };
  // Occupy both workers, then wait until both blockers are *running* (off
  // the queue) so the capacity math below sees an empty queue.
  ASSERT_TRUE(pool.trySubmit(blocker));
  ASSERT_TRUE(pool.trySubmit(blocker));
  while (started.load() < 2) std::this_thread::sleep_for(std::chrono::microseconds(50));

  // Running tasks don't count toward capacity: two more fit in the queue...
  EXPECT_TRUE(pool.trySubmit([&ran] { ++ran; }));
  EXPECT_TRUE(pool.trySubmit([&ran] { ++ran; }));
  EXPECT_EQ(pool.queueDepth(), 2u);
  // ...and the next one is shed, repeatably, with no bookkeeping damage.
  EXPECT_FALSE(pool.trySubmit([&ran] { ++ran; }));
  EXPECT_FALSE(pool.trySubmit([&ran] { ++ran; }));

  release.store(true);
  pool.wait();
  EXPECT_EQ(ran.load(), 4);  // the two blockers + the two queued, none extra
  EXPECT_EQ(pool.queueDepth(), 0u);

  // After the drain the queue has room again.
  EXPECT_TRUE(pool.trySubmit([&ran] { ++ran; }));
  pool.wait();
  EXPECT_EQ(ran.load(), 5);
}

TEST(TaskPoolTrySubmitTest, SubmitAndMapIgnoreQueueCapacity) {
  TaskPool pool{2, /*queueCapacity=*/1};
  // Batch producers rely on unconditional enqueueing: submit()/map() must
  // accept far more tasks than the trySubmit bound.
  const auto results = pool.map(64, [](std::size_t index) { return index; });
  ASSERT_EQ(results.size(), 64u);
  for (std::size_t i = 0; i < results.size(); ++i) EXPECT_EQ(results[i], i);
}

TEST(TaskPoolTrySubmitTest, AfterRequestStopAcceptsAndSkips) {
  for (const int threads : {1, 4}) {
    TaskPool pool{threads, /*queueCapacity=*/4};
    pool.requestStop();
    std::atomic<int> ran{0};
    // Backpressure reports *fullness*, not shutdown: a stopped pool still
    // accepts (true) and then skips the task, exactly like submit().
    EXPECT_TRUE(pool.trySubmit([&ran] { ++ran; })) << "threads=" << threads;
    pool.wait();
    EXPECT_EQ(ran.load(), 0) << "threads=" << threads;
    pool.clearStop();
    EXPECT_TRUE(pool.trySubmit([&ran] { ++ran; })) << "threads=" << threads;
    pool.wait();
    EXPECT_EQ(ran.load(), 1) << "threads=" << threads;
  }
}

TEST(TaskPoolTrySubmitTest, NullTaskIsRejected) {
  TaskPool pool{2, 4};
  EXPECT_THROW((void)pool.trySubmit(std::function<void()>{}), ContractViolation);
}

TEST(TaskPoolTrySubmitTest, FailingTrySubmitTaskSurfacesAtWait) {
  TaskPool pool{2, /*queueCapacity=*/8};
  ASSERT_TRUE(pool.trySubmit([] { throw std::runtime_error("shed me not"); }));
  EXPECT_THROW(pool.wait(), std::runtime_error);
  // The failure was consumed; the pool is reusable.
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.trySubmit([&ran] { ++ran; }));
  pool.wait();
  EXPECT_EQ(ran.load(), 1);
}

// ---- nested fan-out ----------------------------------------------------------

/// Blocks each arriving thread until `count` threads have arrived.
class Latch {
 public:
  explicit Latch(int count) : remaining_(count) {}
  void arriveAndWait() {
    std::unique_lock<std::mutex> lock{mutex_};
    if (--remaining_ == 0) {
      released_.notify_all();
      return;
    }
    released_.wait(lock, [this] { return remaining_ <= 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable released_;
  int remaining_;
};

/// One per-worker slot: fails the test when two sub-tasks use it at once.
struct ExclusiveSlot {
  std::atomic<bool> inUse{false};
  int uses = 0;
};

TEST(TaskPoolFanOutTest, ResultsComeBackInIndexOrderFromAnyCaller) {
  TaskPool pool{4};
  const auto square = [](int /*worker*/, std::size_t index) {
    std::this_thread::sleep_for(std::chrono::microseconds((index * 131) % 97));
    return index * index;
  };
  // From a thread outside the pool.
  const auto outside = pool.fanOut(64, square);
  ASSERT_EQ(outside.size(), 64u);
  for (std::size_t i = 0; i < outside.size(); ++i) EXPECT_EQ(outside[i], i * i);
  // From a task running on the pool (the caller becomes the group's parent).
  std::vector<std::size_t> inside;
  pool.submit([&] { inside = pool.fanOut(64, square); });
  pool.wait();
  ASSERT_EQ(inside.size(), 64u);
  for (std::size_t i = 0; i < inside.size(); ++i) EXPECT_EQ(inside[i], i * i);
  EXPECT_TRUE(pool.fanOut(0, square).empty());
}

TEST(TaskPoolFanOutTest, WorkerIdsStayInRange) {
  TaskPool pool{4};
  std::vector<int> workers;
  const auto workerOf = [](int worker, std::size_t /*index*/) { return worker; };
  pool.submit([&] { workers = pool.fanOut(200, workerOf); });
  pool.wait();
  ASSERT_EQ(workers.size(), 200u);
  for (const int worker : workers) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, pool.threadCount());
  }
}

TEST(TaskPoolFanOutTest, FirstErrorByIndexIsRethrownAfterTheGroupDrains) {
  TaskPool pool{4};
  std::atomic<int> finished{0};
  std::string caught;
  int finishedAtRethrow = -1;
  pool.submit([&] {
    try {
      (void)pool.fanOut(40, [&](int /*worker*/, std::size_t index) {
        std::this_thread::sleep_for(std::chrono::microseconds((39 - index) * 20));
        finished.fetch_add(1);
        if (index == 7 || index == 23) throw std::runtime_error{"sub " + std::to_string(index)};
        return 1;
      });
    } catch (const std::runtime_error& error) {
      caught = error.what();
      finishedAtRethrow = finished.load();
    }
  });
  pool.wait();  // the sub-task errors are the group's, not the batch's
  EXPECT_EQ(caught, "sub 7");
  EXPECT_EQ(finishedAtRethrow, 40);
  // Nothing leaked into the pool's batch bookkeeping either.
  pool.submit([] {});
  pool.wait();
}

TEST(TaskPoolFanOutTest, OneThreadRunsInlineInIndexOrderAsWorkerZero) {
  TaskPool pool{1};
  const auto mainId = std::this_thread::get_id();
  std::vector<std::size_t> order;
  const auto results = pool.fanOut(8, [&](int worker, std::size_t index) {
    EXPECT_EQ(std::this_thread::get_id(), mainId);
    EXPECT_EQ(worker, 0);
    order.push_back(index);
    return index * 2;
  });
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * 2);
    EXPECT_EQ(order[i], i);
  }
  // Nested inside an inline task, with an error: still inline, still drained.
  int ran = 0;
  const auto failSecond = [&](int /*worker*/, std::size_t index) {
    ++ran;
    if (index == 1) throw std::runtime_error{"inline"};
    return 0;
  };
  pool.submit([&] { EXPECT_THROW((void)pool.fanOut(5, failSecond), std::runtime_error); });
  pool.wait();
  EXPECT_EQ(ran, 5);
}

TEST(TaskPoolFanOutTest, NoDeadlockWhenEveryWorkerIsAWaitingParent) {
  TaskPool pool{4};
  Latch allParents{pool.threadCount()};
  std::vector<std::vector<int>> results(static_cast<std::size_t>(pool.threadCount()));
  for (std::size_t p = 0; p < results.size(); ++p) {
    pool.submit([&, p] {
      allParents.arriveAndWait();  // every worker is a parent before any fans out
      results[p] = pool.fanOut(25, [p](int, std::size_t index) {
        std::this_thread::sleep_for(std::chrono::microseconds(index % 7 * 30));
        return static_cast<int>(p * 100 + index);
      });
    });
  }
  pool.wait();
  for (std::size_t p = 0; p < results.size(); ++p) {
    ASSERT_EQ(results[p].size(), 25u);
    for (std::size_t i = 0; i < 25; ++i) EXPECT_EQ(results[p][i], static_cast<int>(p * 100 + i));
  }
}

TEST(TaskPoolFanOutTest, QueuedTasksGoToIdleWorkersBeforeSubTasks) {
  // Two workers, three tasks: A fans out slow sub-tasks, B and C (the last
  // submitted) are quick.  The worker that finishes B must take C before it
  // helps A.
  TaskPool pool{2};
  std::atomic<int> clock{0};
  int cStarted = -1;
  std::vector<std::pair<std::thread::id, int>> helperStarts;
  std::mutex helperMutex;
  Latch queued{2};  // A fans out only once C is queued
  pool.submit([&] {
    queued.arriveAndWait();
    const std::thread::id parent = std::this_thread::get_id();
    (void)pool.fanOut(12, [&](int, std::size_t) {
      const int now = clock.fetch_add(1);
      if (std::this_thread::get_id() != parent) {
        const std::lock_guard<std::mutex> lock{helperMutex};
        helperStarts.emplace_back(std::this_thread::get_id(), now);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      return 0;
    });
  });
  pool.submit([] {});  // B
  pool.submit([&] { cStarted = clock.fetch_add(1); });
  queued.arriveAndWait();
  pool.wait();
  ASSERT_GE(cStarted, 0);
  ASSERT_FALSE(helperStarts.empty());  // the idle worker did help A afterwards
  for (const auto& [thread, start] : helperStarts) EXPECT_GT(start, cStarted);
}

TEST(TaskPoolFanOutTest, RequestStopNeverSkipsSubTasksOfStartedWork) {
  for (const int threads : {1, 4}) {
    TaskPool pool{threads};
    std::vector<int> results;
    std::atomic<int> laterTasks{0};
    pool.submit([&] {
      results = pool.fanOut(50, [&](int, std::size_t index) {
        if (index == 5) pool.requestStop();
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        return 1;
      });
    });
    pool.submit([&] { laterTasks.fetch_add(1); });  // queued: the drain drops it
    pool.wait();
    EXPECT_EQ(std::accumulate(results.begin(), results.end(), 0), 50) << "threads=" << threads;
    if (threads == 1) {
      EXPECT_EQ(laterTasks.load(), 0);
    }
  }
}

TEST(TaskPoolFanOutTest, StressFourHundredSubTasksAcrossNineParents) {
  // 9 parents on 4 workers (the eval grid's shape), 400 sub-tasks between
  // them, two of the parents fanning out again from inside a sub-task.  At
  // most threadCount() bodies run at once, every result lands in its slot,
  // and a per-worker slot of a group is never used by two sub-tasks at once.
  TaskPool pool{4};
  constexpr std::size_t kParents = 9;
  const std::size_t counts[kParents] = {44, 44, 44, 44, 44, 44, 44, 44, 48};
  const auto workers = static_cast<std::size_t>(pool.threadCount());
  std::mutex runningMutex;
  int running = 0;
  int peak = 0;
  const auto countRunning = [&](int delta) {
    const std::lock_guard<std::mutex> lock{runningMutex};
    running += delta;
    peak = std::max(peak, running);
  };
  std::vector<std::vector<std::size_t>> results(kParents);
  std::vector<std::unique_ptr<ExclusiveSlot[]>> slots;
  for (std::size_t p = 0; p < kParents; ++p) {
    slots.push_back(std::make_unique<ExclusiveSlot[]>(workers));
  }
  for (std::size_t p = 0; p < kParents; ++p) {
    pool.submit([&, p] {
      results[p] = pool.fanOut(counts[p], [&, p](int worker, std::size_t index) {
        countRunning(1);
        // The slot stays held across the nested fan-out below: no other
        // sub-task of this group may run as this worker meanwhile.
        ExclusiveSlot& slot = slots[p][static_cast<std::size_t>(worker)];
        EXPECT_FALSE(slot.inUse.exchange(true)) << "slot shared by running sub-tasks";
        ++slot.uses;
        std::this_thread::sleep_for(std::chrono::microseconds((index * 37) % 50));
        std::size_t nested = 0;
        if (p % 4 == 1 && index == 3) {
          countRunning(-1);  // the nested group's bodies are not counted
          const auto inner = pool.fanOut(6, [](int, std::size_t i) { return i + 1; });
          nested = std::accumulate(inner.begin(), inner.end(), std::size_t{0});
          countRunning(1);
        }
        slot.inUse.store(false);
        countRunning(-1);
        return p * 1000 + index + nested;
      });
    });
  }
  pool.wait();
  std::size_t total = 0;
  for (std::size_t p = 0; p < kParents; ++p) {
    ASSERT_EQ(results[p].size(), counts[p]);
    for (std::size_t i = 0; i < counts[p]; ++i) {
      const std::size_t nested = p % 4 == 1 && i == 3 ? 21 : 0;
      EXPECT_EQ(results[p][i], p * 1000 + i + nested) << p << "/" << i;
    }
    int uses = 0;
    for (std::size_t w = 0; w < workers; ++w) uses += slots[p][w].uses;
    EXPECT_EQ(static_cast<std::size_t>(uses), counts[p]);
    total += counts[p];
  }
  EXPECT_EQ(total, 400u);
  EXPECT_LE(peak, pool.threadCount());
}

}  // namespace
}  // namespace rtlock::support
