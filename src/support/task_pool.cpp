#include "support/task_pool.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"

namespace rtlock::support {

namespace {

// The pool the current thread is a worker of (null elsewhere), and its id.
thread_local const TaskPool* tlsPool = nullptr;
thread_local int tlsWorkerId = 0;

}  // namespace

struct TaskPool::FanOutGroup {
  const std::function<void(int, std::size_t)>* body = nullptr;
  std::size_t count = 0;
  std::size_t next = 0;     // next unclaimed index
  std::size_t running = 0;  // claimed, not yet finished
  ErrorList errors;

  [[nodiscard]] bool done() const noexcept { return next == count && running == 0; }
};

int resolveThreadCount(int requested) noexcept {
  if (requested >= 1) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

int threadsForTasks(int requested, std::size_t tasks) noexcept {
  const int resolved = resolveThreadCount(requested);
  if (tasks == 0) return 1;
  return tasks < static_cast<std::size_t>(resolved) ? static_cast<int>(tasks) : resolved;
}

TaskPool::TaskPool(int threads, std::size_t queueCapacity)
    : threadCount_(resolveThreadCount(threads)), queueCapacity_(queueCapacity) {
  // One thread means "the calling thread": submit() runs tasks inline, so
  // the serial reference path involves no worker, no queue hand-off, and no
  // scheduling at all.
  if (threadCount_ > 1) {
    workers_.reserve(static_cast<std::size_t>(threadCount_));
    for (int i = 0; i < threadCount_; ++i) {
      workers_.emplace_back([this, i] { workerLoop(i); });
    }
  }
}

TaskPool::~TaskPool() {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    stopping_ = true;
  }
  workAvailable_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::size_t TaskPool::submit(std::function<void()> task) {
  RTLOCK_REQUIRE(task != nullptr, "TaskPool::submit requires a callable task");
  if (workers_.empty()) {
    // Serial reference path: run inline, capture failures for wait() so the
    // error contract matches the threaded pool exactly.  A stopped pool
    // skips the task — the same drain semantics a worker applies when it
    // dequeues after requestStop().
    const std::size_t index = nextIndex_++;
    if (!stopRequested_.load(std::memory_order_acquire)) runTask(index, task);
    return index;
  }
  std::size_t index = 0;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    index = nextIndex_++;
    queue_.emplace_back(index, std::move(task));
    ++inFlight_;
  }
  workAvailable_.notify_one();
  return index;
}

bool TaskPool::trySubmit(std::function<void()> task) {
  RTLOCK_REQUIRE(task != nullptr, "TaskPool::trySubmit requires a callable task");
  if (workers_.empty()) {
    // Inline path: nothing ever queues, so capacity cannot be exceeded.
    submit(std::move(task));
    return true;
  }
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (queueCapacity_ != 0 && queue_.size() >= queueCapacity_) return false;
    queue_.emplace_back(nextIndex_++, std::move(task));
    ++inFlight_;
  }
  workAvailable_.notify_one();
  return true;
}

std::size_t TaskPool::queueDepth() const {
  if (workers_.empty()) return 0;
  const std::lock_guard<std::mutex> lock{mutex_};
  return queue_.size();
}

std::exception_ptr TaskPool::firstError(const ErrorList& errors) {
  // The earliest failure by index wins, like a serial loop that stops at
  // its first throw.  The list holds failures only (not a slot per task), so
  // the scan is over actual failures.
  std::exception_ptr first;
  std::size_t firstIndex = 0;
  for (const auto& [index, error] : errors) {
    if (!first || index < firstIndex) {
      first = error;
      firstIndex = index;
    }
  }
  return first;
}

void TaskPool::wait() {
  std::exception_ptr first;
  if (workers_.empty()) {
    first = firstError(errors_);
    errors_.clear();
    nextIndex_ = 0;
  } else {
    std::unique_lock<std::mutex> lock{mutex_};
    batchDone_.wait(lock, [this] { return inFlight_ == 0; });
    first = firstError(errors_);
    errors_.clear();
    nextIndex_ = 0;
  }
  if (first) std::rethrow_exception(first);
}

void TaskPool::requestStop() noexcept {
  stopRequested_.store(true, std::memory_order_release);
}

bool TaskPool::stopRequested() const noexcept {
  return stopRequested_.load(std::memory_order_acquire);
}

void TaskPool::clearStop() noexcept {
  stopRequested_.store(false, std::memory_order_release);
}

void TaskPool::workerLoop(int workerId) {
  tlsPool = this;
  tlsWorkerId = workerId;
  const auto hasWork = [this] { return stopping_ || !queue_.empty() || !openGroups_.empty(); };
  std::unique_lock<std::mutex> lock{mutex_};
  for (;;) {
    workAvailable_.wait(lock, hasWork);
    if (queue_.empty()) {
      if (openGroups_.empty()) return;  // stopping_ and nothing left to drain
      // No queued task: help the oldest fan-out group.
      runSubTask(*openGroups_.front(), lock, workerId);
      continue;
    }
    std::pair<std::size_t, std::function<void()>> job = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    // A stop request skips tasks that have not started yet; the inFlight_
    // bookkeeping below still runs so wait() unblocks once running tasks
    // drain.
    if (!stopRequested_.load(std::memory_order_acquire)) runTask(job.first, job.second);
    lock.lock();
    --inFlight_;
    if (inFlight_ == 0) batchDone_.notify_all();
  }
}

void TaskPool::runTask(std::size_t index, const std::function<void()>& task) noexcept {
  try {
    task();
  } catch (...) {
    if (workers_.empty()) {
      errors_.emplace_back(index, std::current_exception());
    } else {
      const std::lock_guard<std::mutex> lock{mutex_};
      errors_.emplace_back(index, std::current_exception());
    }
  }
}

void TaskPool::runFanOut(std::size_t count, const std::function<void(int, std::size_t)>& body) {
  if (count == 0) return;
  FanOutGroup group;
  group.body = &body;
  group.count = count;
  // The inline pool's caller is its only worker; any other thread that is
  // not one of this pool's workers can only wait.
  const int self = workers_.empty() ? 0 : (tlsPool == this ? tlsWorkerId : -1);
  {
    std::unique_lock<std::mutex> lock{mutex_};
    openGroups_.push_back(&group);
    workAvailable_.notify_all();
    while (!group.done()) {
      if (self >= 0 && group.next < group.count) {
        runSubTask(group, lock, self);
      } else {
        groupDone_.wait(lock);
      }
    }
  }
  if (const std::exception_ptr first = firstError(group.errors)) std::rethrow_exception(first);
}

void TaskPool::runSubTask(FanOutGroup& group, std::unique_lock<std::mutex>& lock,
                          int workerId) {
  const std::size_t index = group.next++;
  ++group.running;
  if (group.next == group.count) {
    openGroups_.erase(std::find(openGroups_.begin(), openGroups_.end(), &group));
  }
  lock.unlock();
  std::exception_ptr error;
  try {
    (*group.body)(workerId, index);
  } catch (...) {
    error = std::current_exception();
  }
  lock.lock();
  if (error) group.errors.emplace_back(index, std::move(error));
  --group.running;
  if (group.done()) groupDone_.notify_all();
}

}  // namespace rtlock::support
