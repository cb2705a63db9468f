// A minimal fixed-size thread pool with a parallel_for primitive.
//
// The CPU baselines (LIBMF-style blocked SGD, NOMAD-style asynchronous SGD)
// are genuinely multi-threaded algorithms; this pool gives them a
// shared-memory substrate. The pool also backs the functional execution of
// "GPU" kernels: thread-blocks of the simulated device map onto pool tasks.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <span>
#include <thread>
#include <vector>

namespace cumf {

class ThreadPool {
 public:
  /// Instrumentation hook for profilers (the cuprof tracer installs one).
  /// The observer is global to all pools and not owned; callbacks must be
  /// cheap, thread-safe and noexcept. `task_submitted` runs on the
  /// submitting thread and returns an opaque tag (0 = untracked) that is
  /// handed back to `task_started`/`task_finished` on the executing thread,
  /// so a profiler can stitch submit→run edges (parent span, flow arrows)
  /// across threads. The hook inverts the layering: common/ defines the
  /// interface, prof/ implements it, and the pool never depends on the
  /// profiler.
  class Observer {
   public:
    virtual ~Observer() = default;
    virtual void worker_started(std::size_t worker) noexcept = 0;
    virtual std::uint64_t task_submitted() noexcept = 0;
    virtual void task_started(std::uint64_t tag) noexcept = 0;
    virtual void task_finished(std::uint64_t tag) noexcept = 0;
  };

  /// Installs (or clears, with nullptr) the global observer. The caller
  /// keeps ownership and must keep the observer alive while installed.
  static void set_observer(Observer* observer) noexcept;
  static Observer* observer() noexcept;

  /// Creates `threads` workers. 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueue a task. Safe to call from worker threads (a task may submit
  /// follow-up tasks). Tasks must not throw; exceptions terminate the
  /// program (matching the behaviour of an unhandled exception on a
  /// device).
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished, including tasks
  /// submitted by other tasks while waiting. When called from a worker
  /// thread the caller helps drain the queue instead of blocking it, so
  /// nested parallel_for / submit+wait patterns cannot deadlock the pool.
  void wait_idle();

  using ForBody = std::function<void(std::size_t begin, std::size_t end,
                                     std::size_t worker)>;

  /// Run `body(begin, end, worker)` over [0, n) with a guided schedule:
  /// up to `size()` worker tasks pull variable-size chunks from a shared
  /// atomic counter (chunk ≈ remaining / (2·workers), never below 1), so a
  /// skewed cost distribution cannot strand the range behind one worker.
  /// Each worker index is held by exactly one task, and that task invokes
  /// `body` sequentially — per-worker scratch indexed by `worker` stays
  /// race-free. Blocks until the whole range completes.
  void parallel_for(std::size_t n, const ForBody& body);

  /// Caller-weighted schedule: `bounds` is an ascending boundary list
  /// (bounds.front() == 0, bounds.back() == n) and chunk i is
  /// [bounds[i], bounds[i+1]). Worker c runs chunk c first, then the
  /// workers pull the remaining chunk indices from an atomic counter in
  /// order, so front-loading the heavy chunks (e.g. equal total nnz per
  /// chunk) balances skewed work. With no more chunks than workers the
  /// chunk→worker map is therefore fixed: one range per worker (or device)
  /// lands on the same per-worker scratch every run. Empty chunks are
  /// skipped.
  void parallel_for_chunks(std::span<const std::size_t> bounds,
                           const ForBody& body);

 private:
  /// A queued task plus the observer tag captured at submit time.
  struct Task {
    std::function<void()> fn;
    std::uint64_t tag = 0;
  };

  void worker_loop(std::size_t worker);
  bool on_worker_thread() const noexcept;
  /// Pops and runs one task. Caller holds `lock`; the lock is released
  /// while the task runs and re-acquired afterwards.
  void run_one(std::unique_lock<std::mutex>& lock);

  std::vector<std::thread> workers_;
  std::queue<Task> queue_;
  mutable std::mutex mutex_;
  /// One cv for all transitions (task available, pool idle, stopping):
  /// submitters, workers, and helpers all wait with predicates, so the
  /// extra wakeups are benign and no notification can be missed.
  std::condition_variable cv_;
  /// Tasks queued or currently executing. Reaches 0 only when the pool is
  /// truly idle; guarded by mutex_ together with queue_.
  std::size_t in_flight_ = 0;
  /// Sum of the task depths of worker threads currently blocked in
  /// wait_idle. Those stack frames are in_flight_ but cannot progress, so a
  /// helping waiter treats in_flight_ == waiting_depth_ as "drained".
  std::size_t waiting_depth_ = 0;
  bool stopping_ = false;
};

}  // namespace cumf
