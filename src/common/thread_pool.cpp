#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

#include "common/check.hpp"

namespace cumf {

namespace {
/// Set for the duration of worker_loop: lets wait_idle detect that it is
/// running on one of this pool's own workers and must help drain the queue
/// rather than block it.
thread_local const ThreadPool* t_worker_pool = nullptr;
/// How many in-flight tasks this thread is currently inside (nested via
/// helping). A thread blocked in wait_idle contributes exactly this many
/// tasks to in_flight_ that can make no progress until wait_idle returns.
thread_local std::size_t t_task_depth = 0;
/// Portion of t_task_depth this thread has already accounted into
/// waiting_depth_. Nested wait_idle frames (helping runs a task that itself
/// waits) must only add the delta, or the outer frames get double-counted
/// and the drained predicate can never hold.
thread_local std::size_t t_depth_contributed = 0;

/// Global profiler hook; relaxed is enough — installation happens before
/// the instrumented run and callbacks tolerate a stale nullptr/pointer.
std::atomic<ThreadPool::Observer*> g_observer{nullptr};
}  // namespace

void ThreadPool::set_observer(Observer* observer) noexcept {
  g_observer.store(observer, std::memory_order_release);
}

ThreadPool::Observer* ThreadPool::observer() noexcept {
  return g_observer.load(std::memory_order_acquire);
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

bool ThreadPool::on_worker_thread() const noexcept {
  return t_worker_pool == this;
}

void ThreadPool::submit(std::function<void()> task) {
  CUMF_EXPECTS(task != nullptr, "cannot submit an empty task");
  // Capture the tag outside the lock: the observer may take its own locks
  // (e.g. the tracer's flow-id map) and must see the submitting thread's
  // span context, not the pool's critical section.
  std::uint64_t tag = 0;
  if (Observer* obs = observer()) {
    tag = obs->task_submitted();
  }
  {
    std::lock_guard lock(mutex_);
    CUMF_EXPECTS(!stopping_, "pool is shutting down");
    queue_.push(Task{std::move(task), tag});
    ++in_flight_;
  }
  cv_.notify_all();
}

void ThreadPool::run_one(std::unique_lock<std::mutex>& lock) {
  Task task = std::move(queue_.front());
  queue_.pop();
  lock.unlock();
  ++t_task_depth;
  Observer* const obs = task.tag != 0 ? observer() : nullptr;
  if (obs != nullptr) {
    obs->task_started(task.tag);
  }
  task.fn();
  if (obs != nullptr) {
    obs->task_finished(task.tag);
  }
  --t_task_depth;
  lock.lock();
  // The decrement happens after the task body: a task that submits
  // follow-ups keeps in_flight_ above zero throughout, so wait_idle cannot
  // observe a spurious idle window between parent and child. Every
  // completion may satisfy an idle or drained-to-waiters predicate.
  --in_flight_;
  cv_.notify_all();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  if (on_worker_thread()) {
    // Called from inside a task (e.g. nested parallel_for): blocking would
    // strand the queue with one fewer worker and deadlocks once every
    // worker waits. Instead, help drain the queue, and treat the pool as
    // idle when the only in-flight tasks are the stacks of threads blocked
    // here (in_flight_ == waiting_depth_): those can make no progress until
    // their wait_idle returns, and nothing else is queued or running.
    const std::size_t contribution = t_task_depth - t_depth_contributed;
    const std::size_t saved_contributed = t_depth_contributed;
    waiting_depth_ += contribution;
    t_depth_contributed = t_task_depth;
    cv_.notify_all();  // other waiters' predicates may hold now
    for (;;) {
      if (!queue_.empty()) {
        run_one(lock);
        continue;
      }
      if (in_flight_ == waiting_depth_) {
        break;
      }
      cv_.wait(lock);
    }
    waiting_depth_ -= contribution;
    t_depth_contributed = saved_contributed;
    return;
  }
  cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::parallel_for(std::size_t n, const ForBody& body) {
  if (n == 0) {
    return;
  }
  const std::size_t workers = std::min(n, size());
  // shared_ptr keeps the counter alive even if a task outlives this frame's
  // locals in a helping-waiter interleaving; `body` is safe by reference
  // because wait_idle blocks until every chunk has run.
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  for (std::size_t c = 0; c < workers; ++c) {
    submit([next, n, workers, &body, c] {
      for (;;) {
        // Guided chunk size from a (possibly stale) snapshot: halves as the
        // range drains, floors at 1. Staleness only affects granularity.
        const std::size_t seen = next->load(std::memory_order_relaxed);
        if (seen >= n) {
          break;
        }
        const std::size_t chunk =
            std::max<std::size_t>(1, (n - seen) / (2 * workers));
        const std::size_t begin =
            next->fetch_add(chunk, std::memory_order_relaxed);
        if (begin >= n) {
          break;
        }
        body(begin, std::min(begin + chunk, n), c);
      }
    });
  }
  wait_idle();
}

void ThreadPool::parallel_for_chunks(std::span<const std::size_t> bounds,
                                     const ForBody& body) {
  CUMF_EXPECTS(bounds.size() >= 2, "need at least one chunk boundary pair");
  CUMF_EXPECTS(bounds.front() == 0, "bounds must start at 0");
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    CUMF_EXPECTS(bounds[i] >= bounds[i - 1], "bounds must be ascending");
  }
  const std::size_t chunks = bounds.size() - 1;
  const std::size_t workers = std::min(chunks, size());
  auto next = std::make_shared<std::atomic<std::size_t>>(workers);
  for (std::size_t c = 0; c < workers; ++c) {
    submit([next, bounds, chunks, &body, c] {
      for (std::size_t i = c; i < chunks;
           i = next->fetch_add(1, std::memory_order_relaxed)) {
        if (bounds[i] < bounds[i + 1]) {
          body(bounds[i], bounds[i + 1], c);
        }
      }
    });
  }
  wait_idle();
}

void ThreadPool::worker_loop(std::size_t worker) {
  t_worker_pool = this;
  if (Observer* obs = observer()) {
    obs->worker_started(worker);
  }
  std::unique_lock lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      break;  // stopping_ and drained
    }
    run_one(lock);
  }
  t_worker_pool = nullptr;
}

}  // namespace cumf
