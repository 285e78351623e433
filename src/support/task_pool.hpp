// Deterministic fixed-size worker pool for the experiment engine.
//
// The evaluation pipeline (Sec. 5) is embarrassingly parallel: every locked
// sample, every (benchmark, algorithm) grid cell, and every figure scenario
// is an independent task once it owns its own RNG substream and module clone.
// TaskPool shards such batches across a fixed set of workers, and lets a
// running task fan its own sub-tasks out onto the same workers (fanOut: a
// grid cell's locked samples), while keeping the *observable* behaviour
// identical to a serial loop:
//
//  * results are collected in submission order, regardless of the order in
//    which workers finish (map() and fanOut() fill a result slot per index);
//  * exceptions thrown by tasks are captured and rethrown from wait() — the
//    first failure in submission order wins, exactly like a serial loop that
//    stops at the first throw;
//  * with threads == 1 no worker thread exists at all: submit() runs the
//    task inline on the calling thread, so the single-threaded pool *is* the
//    serial reference path, not a simulation of it.
//
// Determinism contract: the pool never provides randomness and never
// reorders observable results.  Tasks must not share mutable state; each
// task derives everything it needs from its submission index (see
// Rng::substream for the seeding convention).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace rtlock::support {

/// Effective worker count: `requested` >= 1 is taken as-is; 0 or negative
/// (the "pick for me" default) resolves to the hardware concurrency, with a
/// floor of 1 when the runtime reports nothing.
[[nodiscard]] int resolveThreadCount(int requested) noexcept;

/// Worker count for a batch of `tasks`: resolveThreadCount(requested) capped
/// to the batch size, so small grids don't spawn workers that never run a
/// task.  A zero-task batch still gets the one (inline) thread.
[[nodiscard]] int threadsForTasks(int requested, std::size_t tasks) noexcept;

class TaskPool {
 public:
  /// Creates the pool.  `threads` follows resolveThreadCount; a pool of one
  /// thread spawns no workers and runs every task inline in submit().
  /// `queueCapacity` bounds trySubmit() (0 = unbounded): it is the
  /// backpressure limit for open-ended producers like `rtlock serve`, and
  /// deliberately does NOT apply to submit()/map(), whose batch producers
  /// rely on unconditional enqueueing.
  explicit TaskPool(int threads = 0, std::size_t queueCapacity = 0);

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Drains outstanding tasks, then joins the workers.  Pending exceptions
  /// that were never collected through wait() are dropped.
  ~TaskPool();

  [[nodiscard]] int threadCount() const noexcept { return threadCount_; }

  /// Enqueues one task and returns its submission index within the current
  /// batch.  Tasks may run in any order and on any worker.
  std::size_t submit(std::function<void()> task);

  /// Bounded-queue submit: enqueues like submit() unless the pool was built
  /// with a queueCapacity and that many tasks are already *queued* (running
  /// tasks don't count), in which case it returns false without touching any
  /// batch bookkeeping — the caller sheds load (HTTP 429) instead of
  /// buffering unboundedly.  On the serial (inline) path the queue never
  /// holds tasks, so trySubmit always accepts.  After requestStop() the task
  /// is accepted-and-skipped exactly like submit(): backpressure reports
  /// *fullness*, not shutdown — the drain still owns shutdown semantics.
  [[nodiscard]] bool trySubmit(std::function<void()> task);

  [[nodiscard]] std::size_t queueCapacity() const noexcept { return queueCapacity_; }

  /// Tasks currently queued (excluding running ones).  A snapshot for stats
  /// surfaces; stale the moment it returns.
  [[nodiscard]] std::size_t queueDepth() const;

  /// Blocks until every task submitted since the last wait() has finished,
  /// then rethrows the earliest failure by *submission* order (if any) and
  /// resets the batch so the pool can be reused.
  void wait();

  // ---- cooperative cancellation ------------------------------------------
  //
  // requestStop() turns the pool into a drain: tasks already *running*
  // finish normally (long-running tasks should poll stopRequested() and cut
  // themselves short), tasks still queued are skipped entirely — their
  // map() result slots keep their default-constructed value
  // and submit/wait bookkeeping stays consistent, so wait() still unblocks
  // and the completed prefix of results is exactly what a serial loop that
  // stopped at the same point would have produced.  The flag is sticky
  // across batches (a SIGINT drain must not resume on the next batch);
  // clearStop() re-arms the pool.  fanOut() sub-tasks are never skipped
  // (see below).  Both calls are safe from any thread,
  // including from inside a running task.

  /// Stop claiming queued tasks; running tasks drain.  Idempotent.
  void requestStop() noexcept;

  /// True once requestStop() was called (and clearStop() was not).
  [[nodiscard]] bool stopRequested() const noexcept;

  /// Re-arms a stopped pool for the next batch.
  void clearStop() noexcept;

  /// Deterministic fan-out: runs `fn(index)` for every index in [0, count)
  /// and returns the results in index order regardless of completion order.
  /// The result type must be default-constructible and movable.  Rethrows
  /// the first failing task's exception (by index) after the batch drains.
  template <typename Fn>
  auto map(std::size_t count, Fn&& fn) {
    using Result = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
    // std::vector<bool> packs bits: concurrent writes to distinct indices
    // would race on shared bytes.  Return int/char instead.
    static_assert(!std::is_same_v<Result, bool>,
                  "TaskPool::map cannot return bool (vector<bool> bit-packing races)");
    std::vector<Result> results(count);
    try {
      for (std::size_t index = 0; index < count; ++index) {
        submit([&results, &fn, index] { results[index] = fn(index); });
      }
    } catch (...) {
      // submit() itself failed (e.g. bad_alloc): already-queued tasks still
      // reference `results`/`fn`, so drain them before unwinding.  The
      // submit failure outranks any task exception.
      try {
        wait();
      } catch (...) {  // NOLINT(bugprone-empty-catch)
      }
      throw;
    }
    wait();
    return results;
  }

  // ---- nested fan-out ------------------------------------------------------
  //
  // fanOut() splits one piece of work into `count` sub-tasks on this pool.
  // Called from a task running on one of the pool's workers (a grid cell
  // fanning out its locked samples), the calling worker becomes the group's
  // parent: it runs its own unclaimed sub-tasks itself, while workers with
  // no queued task take the rest, so a pool of N workers keeps at most N
  // things running however the work nests.  Queued submit() tasks go to
  // idle workers before any sub-task does, so the pool still works one task
  // per worker until the queue runs dry and only the tail is shared.  A
  // parent whose group has nothing left to claim waits for the sub-tasks
  // other workers are still running.  Called from any other thread, fanOut()
  // blocks while the workers run the group.  With threads == 1 every
  // sub-task runs inline on the calling thread in index order.
  //
  // Sub-tasks keep their own bookkeeping (claim index, in-flight count,
  // errors); the enclosing batch's submission indices, wait() and errors
  // never see them.  They also ignore requestStop(): a drain finishes every
  // sub-task of work that has already started, so no started piece of work
  // is ever cut in half.

  /// Runs `fn(workerId, index)` for every index in [0, count) and returns the
  /// results in index order.  Worker ids are in [0, threadCount()) (0 on the
  /// inline path); a worker id is never used by two running sub-tasks of one
  /// group, so `fn` may index per-worker reusable state by it — for reuse
  /// only, never to influence a result.  Once every sub-task has finished,
  /// rethrows the failing sub-task's exception with the lowest index.
  template <typename Fn>
  auto fanOut(std::size_t count, Fn&& fn) {
    using Result = std::decay_t<std::invoke_result_t<Fn&, int, std::size_t>>;
    static_assert(!std::is_same_v<Result, bool>,
                  "TaskPool::fanOut cannot return bool (vector<bool> bit-packing races)");
    std::vector<Result> results(count);
    runFanOut(count, [&results, &fn](int worker, std::size_t index) {
      results[index] = fn(worker, index);
    });
    return results;
  }

 private:
  struct FanOutGroup;
  using ErrorList = std::vector<std::pair<std::size_t, std::exception_ptr>>;

  /// The failure with the lowest index in `errors`, or null.
  [[nodiscard]] static std::exception_ptr firstError(const ErrorList& errors);

  void workerLoop(int workerId);
  void runTask(std::size_t index, const std::function<void()>& task) noexcept;
  void runFanOut(std::size_t count, const std::function<void(int, std::size_t)>& body);
  /// Claims and runs the next sub-task of `group` as `workerId`; called and
  /// returns with `lock` held.
  void runSubTask(FanOutGroup& group, std::unique_lock<std::mutex>& lock, int workerId);

  int threadCount_ = 1;
  std::size_t queueCapacity_ = 0;  // trySubmit() bound; 0 = unbounded
  std::vector<std::thread> workers_;

  mutable std::mutex mutex_;
  std::condition_variable workAvailable_;
  std::condition_variable batchDone_;
  std::condition_variable groupDone_;  // a fan-out group finished
  std::deque<std::pair<std::size_t, std::function<void()>>> queue_;
  // Failures only, unordered: a long-running pool that never fails (the
  // serve worker pool) must not grow a slot per submission between wait()s.
  ErrorList errors_;
  std::size_t nextIndex_ = 0;  // submissions in the current batch
  std::size_t inFlight_ = 0;   // queued + running tasks
  std::vector<FanOutGroup*> openGroups_;  // groups with unclaimed sub-tasks, oldest first
  bool stopping_ = false;
  std::atomic<bool> stopRequested_{false};  // cooperative cancellation flag
};

}  // namespace rtlock::support
