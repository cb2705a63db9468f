// cuprof — a profiler-grade span tracer for the simulated-GPU MF engine.
//
// The paper's whole argument is made through measurement (Fig. 4's
// load/compute/write split, Fig. 5's solver breakdown, Fig. 7's achieved
// FLOPS/bandwidth); cuprof makes every training run produce the same kind of
// evidence. Design, in the nvprof/rocprof tradition:
//
//   * per-thread fixed-capacity ring buffers — recording a span is a couple
//     of steady-clock reads and one in-cache array store, no locks, no
//     allocation on the hot path (the only lock is taken once per thread, at
//     buffer registration);
//   * RAII scopes (`CUMF_PROF_SCOPE("solve")`) guarantee strictly nested
//     begin/end pairs per thread, so exports always form a valid timeline;
//   * a Chrome trace-event JSON exporter: load the file in chrome://tracing
//     or https://ui.perfetto.dev and a training run renders as per-worker
//     get_hermitian / solve / staging / RMSE-eval tracks, with flow arrows
//     from each ThreadPool submit site to the task that ran it.
//
// Overhead control is layered: the `CUMF_PROF` CMake option compiles the
// macros to nothing (`CUMF_PROF_ENABLED` undefined — the null-tracer build
// the perf-smoke gate runs); with macros compiled in, a disabled tracer
// costs one relaxed atomic load per scope.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/stopwatch.hpp"

namespace cumf::prof {

/// Monotonic nanoseconds on the process-wide epoch shared with Stopwatch.
inline std::uint64_t now_ns() noexcept { return Stopwatch::now_ns(); }

enum class EventKind : std::uint8_t {
  kSpan,       ///< complete slice: [start_ns, start_ns + dur_ns)
  kCounter,    ///< sampled value at start_ns
  kFlowBegin,  ///< submit site of a cross-thread edge (id = flow id)
  kFlowEnd,    ///< execution site of the same edge
};

/// One fixed-size trace record. `name`/`category` must point at
/// static-lifetime strings (string literals) so recording never copies.
struct Event {
  EventKind kind = EventKind::kSpan;
  const char* name = "";
  const char* category = "";
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint64_t id = 0;      ///< span id / flow id
  std::uint64_t parent = 0;  ///< enclosing span id at record time (0 = root)
  double value = 0.0;        ///< counter payload
};

/// Single-writer ring of events. Only the owning thread pushes; readers
/// (export/summary) run after the traced work has quiesced — the
/// happens-before edge is whatever joined the work (ThreadPool::wait_idle,
/// thread join), which is exactly when a trace is coherent anyway.
class ThreadBuffer {
 public:
  ThreadBuffer(std::uint32_t tid, std::size_t capacity);

  void push(const Event& e) noexcept {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    ring_[h & mask_] = e;
    head_.store(h + 1, std::memory_order_release);
  }

  std::uint32_t tid() const noexcept { return tid_; }
  const std::string& name() const noexcept { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  std::size_t capacity() const noexcept { return ring_.size(); }
  std::uint64_t pushed() const noexcept {
    return head_.load(std::memory_order_acquire);
  }
  /// Events dropped because the ring wrapped (oldest-first eviction).
  std::uint64_t dropped() const noexcept {
    const std::uint64_t n = pushed();
    return n > ring_.size() ? n - ring_.size() : 0;
  }
  /// Copies the retained events, oldest first.
  std::vector<Event> snapshot() const;

  void clear() noexcept { head_.store(0, std::memory_order_release); }

 private:
  std::uint32_t tid_;
  std::string name_;
  std::vector<Event> ring_;
  std::uint64_t mask_;
  std::atomic<std::uint64_t> head_{0};
};

/// Aggregated per-name statistics over the retained spans (the
/// `--prof-summary` table).
struct SpanStat {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double mean_us = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double max_us = 0.0;
};

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 15;

  static Tracer& instance();

  /// Starts recording. `ring_capacity` (rounded up to a power of two) is
  /// fixed at the first enable; later calls reuse the existing buffers.
  /// Also installs the ThreadPool observer so task spans and submit→run
  /// flow arrows are recorded.
  void enable(std::size_t ring_capacity = kDefaultCapacity);
  void disable();

  static bool enabled() noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Drops every recorded event (buffers and thread registrations remain).
  void reset();

  std::uint64_t new_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The calling thread's buffer; registers it on first use.
  ThreadBuffer& local();

  /// Names the calling thread's track in the exported trace.
  void set_thread_name(const std::string& name);

  /// Records a counter sample ("ph":"C" in the export) on this thread.
  void counter(const char* name, double value) noexcept;

  /// Records a complete span from explicit timestamps (for callers that
  /// already measured, e.g. the ALS row loop aggregating phase time).
  void complete_span(const char* name, const char* category,
                     std::uint64_t start_ns, std::uint64_t end_ns) noexcept;

  /// Chrome trace-event JSON of everything retained, loadable in
  /// chrome://tracing / Perfetto.
  std::string chrome_trace_json() const;
  bool write_chrome_trace(const std::string& path) const;

  /// Per-name duration statistics, sorted by total time descending.
  std::vector<SpanStat> summarize() const;

  std::uint64_t total_dropped() const;

 private:
  Tracer() = default;

  static std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;  ///< registration and export
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::size_t capacity_ = 0;
};

/// Id of the innermost open span on this thread (0 when outside any span).
std::uint64_t current_span() noexcept;

/// Pushes/pops the thread-local span stack around externally managed spans
/// (the ThreadPool task bracket). Regular code should use ScopedSpan.
void push_span(std::uint64_t id) noexcept;
void pop_span() noexcept;

/// RAII span. Construction snapshots the clock and claims an id; the
/// destructor records one complete event. When the tracer is disabled the
/// constructor is a single relaxed load.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name,
                      const char* category = "cumf") noexcept
      : name_(name), category_(category), active_(Tracer::enabled()) {
    if (!active_) {
      return;
    }
    Tracer& t = Tracer::instance();
    id_ = t.new_id();
    parent_ = current_span();
    push_span(id_);
    start_ns_ = now_ns();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (!active_) {
      return;
    }
    const std::uint64_t end = now_ns();
    pop_span();
    Event e;
    e.kind = EventKind::kSpan;
    e.name = name_;
    e.category = category_;
    e.start_ns = start_ns_;
    e.dur_ns = end - start_ns_;
    e.id = id_;
    e.parent = parent_;
    Tracer::instance().local().push(e);
  }

 private:
  const char* name_;
  const char* category_;
  std::uint64_t start_ns_ = 0;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  bool active_;
};

}  // namespace cumf::prof

// --- Instrumentation macros ----------------------------------------------
// Compiled in only under the CUMF_PROF CMake option (CUMF_PROF_ENABLED); a
// translation unit can additionally force the null expansion by defining
// CUMF_PROF_FORCE_OFF before including this header (the no-op compile test
// uses this). Only the macros vary per TU — the class definitions above are
// identical everywhere, so mixing instrumented and null TUs is ODR-safe.
#if defined(CUMF_PROF_ENABLED) && !defined(CUMF_PROF_FORCE_OFF)

#define CUMF_PROF_CONCAT_IMPL(a, b) a##b
#define CUMF_PROF_CONCAT(a, b) CUMF_PROF_CONCAT_IMPL(a, b)

/// CUMF_PROF_SCOPE("name") or CUMF_PROF_SCOPE("name", "category").
#define CUMF_PROF_SCOPE(...)                                     \
  ::cumf::prof::ScopedSpan CUMF_PROF_CONCAT(cumf_prof_scope_,    \
                                            __COUNTER__) {       \
    __VA_ARGS__                                                  \
  }

/// Records a counter sample when tracing is on.
#define CUMF_PROF_COUNTER(name, value)                           \
  do {                                                           \
    if (::cumf::prof::Tracer::enabled()) {                       \
      ::cumf::prof::Tracer::instance().counter((name), (value)); \
    }                                                            \
  } while (false)

#else  // null expansion: zero code, zero data

#define CUMF_PROF_SCOPE(...) \
  do {                       \
  } while (false)
#define CUMF_PROF_COUNTER(name, value) \
  do {                                 \
    (void)sizeof(value);               \
  } while (false)

#endif
