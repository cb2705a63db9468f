#include "prof/prof.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace cumf::prof {

namespace {

/// Thread-local span stack. Fixed depth: deeper nesting than this is a bug
/// in the instrumentation, not a workload property (the deepest real chain
/// is epoch → update side → task → row kernel ≈ 5).
constexpr std::size_t kMaxSpanDepth = 64;

struct SpanStack {
  std::uint64_t ids[kMaxSpanDepth];
  std::size_t depth = 0;
};
thread_local SpanStack t_span_stack;

thread_local ThreadBuffer* t_buffer = nullptr;

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

/// ThreadPool instrumentation: one span per executed task, plus a
/// flow-begin at the submit site and a flow-end at the start of execution,
/// so Perfetto draws an arrow from each parallel_for/submit call to the
/// worker slice that ran it. Task spans under guided and static schedules
/// then line up visually against the same submit row.
class PoolObserver final : public ThreadPool::Observer {
 public:
  void worker_started(std::size_t worker) noexcept override {
    if (!Tracer::enabled()) {
      return;
    }
    char name[32];
    std::snprintf(name, sizeof name, "pool-worker-%zu", worker);
    Tracer::instance().set_thread_name(name);
  }

  std::uint64_t task_submitted() noexcept override {
    if (!Tracer::enabled()) {
      return 0;
    }
    Tracer& t = Tracer::instance();
    const std::uint64_t tag = t.new_id();
    Event e;
    e.kind = EventKind::kFlowBegin;
    e.name = "task";
    e.category = "pool";
    e.start_ns = now_ns();
    e.id = tag;
    e.parent = current_span();
    t.local().push(e);
    return tag;
  }

  void task_started(std::uint64_t tag) noexcept override {
    if (!Tracer::enabled()) {
      return;
    }
    Tracer& t = Tracer::instance();
    Event e;
    e.kind = EventKind::kFlowEnd;
    e.name = "task";
    e.category = "pool";
    e.start_ns = now_ns();
    e.id = tag;
    t.local().push(e);
    // Open the task span: recorded as a complete event at task_finished;
    // the stack entry makes spans inside the task children of the task.
    push_span(tag);
    t_task_start[t_task_depth++] = e.start_ns;
  }

  void task_finished(std::uint64_t tag) noexcept override {
    if (t_task_depth == 0) {
      return;  // tracer was off at task_started; nothing to unwind
    }
    const std::uint64_t start = t_task_start[--t_task_depth];
    pop_span();
    if (!Tracer::enabled()) {
      return;
    }
    Event e;
    e.kind = EventKind::kSpan;
    e.name = "task";
    e.category = "pool";
    e.start_ns = start;
    e.dur_ns = now_ns() - start;
    e.id = tag;
    e.parent = current_span();
    Tracer::instance().local().push(e);
  }

 private:
  // Tasks nest strictly per thread (helping waiters run tasks inside
  // tasks), so a small per-thread stack of start timestamps suffices.
  static thread_local std::uint64_t t_task_start[kMaxSpanDepth];
  static thread_local std::size_t t_task_depth;
};

thread_local std::uint64_t PoolObserver::t_task_start[kMaxSpanDepth];
thread_local std::size_t PoolObserver::t_task_depth = 0;

PoolObserver g_pool_observer;

void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Microseconds with nanosecond resolution kept as a decimal fraction.
void append_us(std::string& out, std::uint64_t ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%" PRIu64 ".%03u", ns / 1000,
                static_cast<unsigned>(ns % 1000));
  out += buf;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

ThreadBuffer::ThreadBuffer(std::uint32_t tid, std::size_t capacity)
    : tid_(tid), ring_(capacity), mask_(capacity - 1) {
  CUMF_EXPECTS((capacity & mask_) == 0 && capacity > 0,
               "ring capacity must be a power of two");
}

std::vector<Event> ThreadBuffer::snapshot() const {
  const std::uint64_t n = pushed();
  const std::uint64_t cap = ring_.size();
  const std::uint64_t retained = std::min(n, cap);
  std::vector<Event> out;
  out.reserve(static_cast<std::size_t>(retained));
  for (std::uint64_t i = n - retained; i < n; ++i) {
    out.push_back(ring_[i & mask_]);
  }
  return out;
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable(std::size_t ring_capacity) {
  {
    std::lock_guard lock(mutex_);
    if (capacity_ == 0) {
      capacity_ = round_up_pow2(std::max<std::size_t>(ring_capacity, 64));
    }
  }
  ThreadPool::set_observer(&g_pool_observer);
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::reset() {
  std::lock_guard lock(mutex_);
  for (auto& buffer : buffers_) {
    buffer->clear();
  }
}

ThreadBuffer& Tracer::local() {
  if (t_buffer == nullptr) {
    std::lock_guard lock(mutex_);
    const auto tid = static_cast<std::uint32_t>(buffers_.size() + 1);
    const std::size_t cap = capacity_ == 0 ? kDefaultCapacity : capacity_;
    buffers_.push_back(std::make_unique<ThreadBuffer>(tid, cap));
    t_buffer = buffers_.back().get();
  }
  return *t_buffer;
}

void Tracer::set_thread_name(const std::string& name) {
  ThreadBuffer& buffer = local();
  std::lock_guard lock(mutex_);
  buffer.set_name(name);
}

void Tracer::counter(const char* name, double value) noexcept {
  Event e;
  e.kind = EventKind::kCounter;
  e.name = name;
  e.category = "counter";
  e.start_ns = now_ns();
  e.value = value;
  local().push(e);
}

void Tracer::complete_span(const char* name, const char* category,
                           std::uint64_t start_ns,
                           std::uint64_t end_ns) noexcept {
  Event e;
  e.kind = EventKind::kSpan;
  e.name = name;
  e.category = category;
  e.start_ns = start_ns;
  e.dur_ns = end_ns >= start_ns ? end_ns - start_ns : 0;
  e.id = new_id();
  e.parent = current_span();
  local().push(e);
}

std::string Tracer::chrome_trace_json() const {
  std::lock_guard lock(mutex_);
  std::string out;
  out.reserve(1 << 16);
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"tool\":\"cuprof\"},"
         "\"traceEvents\":[";
  bool first = true;
  const auto emit_prefix = [&out, &first] {
    if (!first) {
      out += ",\n";
    }
    first = false;
  };
  char buf[96];
  for (const auto& buffer : buffers_) {
    const std::uint32_t tid = buffer->tid();
    if (!buffer->name().empty()) {
      emit_prefix();
      out += "{\"ph\":\"M\",\"pid\":1,\"tid\":";
      out += std::to_string(tid);
      out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
      append_escaped(out, buffer->name().c_str());
      out += "\"}}";
    }
    for (const Event& e : buffer->snapshot()) {
      emit_prefix();
      switch (e.kind) {
        case EventKind::kSpan:
          out += "{\"ph\":\"X\",\"pid\":1,\"tid\":";
          out += std::to_string(tid);
          out += ",\"name\":\"";
          append_escaped(out, e.name);
          out += "\",\"cat\":\"";
          append_escaped(out, e.category);
          out += "\",\"ts\":";
          append_us(out, e.start_ns);
          out += ",\"dur\":";
          append_us(out, e.dur_ns);
          std::snprintf(buf, sizeof buf,
                        ",\"args\":{\"id\":%" PRIu64 ",\"parent\":%" PRIu64
                        "}}",
                        e.id, e.parent);
          out += buf;
          break;
        case EventKind::kCounter:
          out += "{\"ph\":\"C\",\"pid\":1,\"tid\":";
          out += std::to_string(tid);
          out += ",\"name\":\"";
          append_escaped(out, e.name);
          out += "\",\"ts\":";
          append_us(out, e.start_ns);
          std::snprintf(buf, sizeof buf, ",\"args\":{\"value\":%.9g}}",
                        e.value);
          out += buf;
          break;
        case EventKind::kFlowBegin:
        case EventKind::kFlowEnd:
          out += e.kind == EventKind::kFlowBegin
                     ? "{\"ph\":\"s\",\"pid\":1,\"tid\":"
                     : "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":1,\"tid\":";
          out += std::to_string(tid);
          out += ",\"name\":\"";
          append_escaped(out, e.name);
          out += "\",\"cat\":\"";
          append_escaped(out, e.category);
          out += "\",\"ts\":";
          append_us(out, e.start_ns);
          std::snprintf(buf, sizeof buf, ",\"id\":%" PRIu64 "}", e.id);
          out += buf;
          break;
      }
    }
  }
  out += "]}\n";
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  const std::string json = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool ok = std::fclose(f) == 0 && written == json.size();
  return ok;
}

std::vector<SpanStat> Tracer::summarize() const {
  std::map<std::string, std::vector<std::uint64_t>> durations;
  {
    std::lock_guard lock(mutex_);
    for (const auto& buffer : buffers_) {
      for (const Event& e : buffer->snapshot()) {
        if (e.kind == EventKind::kSpan) {
          durations[e.name].push_back(e.dur_ns);
        }
      }
    }
  }
  std::vector<SpanStat> stats;
  stats.reserve(durations.size());
  for (auto& [name, ns] : durations) {
    std::sort(ns.begin(), ns.end());
    SpanStat s;
    s.name = name;
    s.count = ns.size();
    double total_ns = 0;
    for (const std::uint64_t d : ns) {
      total_ns += static_cast<double>(d);
    }
    const auto pct = [&ns](double q) {
      const auto idx = static_cast<std::size_t>(
          q * static_cast<double>(ns.size() - 1) + 0.5);
      return static_cast<double>(ns[idx]) / 1e3;
    };
    s.total_ms = total_ns / 1e6;
    s.mean_us = total_ns / static_cast<double>(ns.size()) / 1e3;
    s.p50_us = pct(0.50);
    s.p95_us = pct(0.95);
    s.max_us = static_cast<double>(ns.back()) / 1e3;
    stats.push_back(std::move(s));
  }
  std::sort(stats.begin(), stats.end(),
            [](const SpanStat& a, const SpanStat& b) {
              return a.total_ms > b.total_ms;
            });
  return stats;
}

std::uint64_t Tracer::total_dropped() const {
  std::lock_guard lock(mutex_);
  std::uint64_t dropped = 0;
  for (const auto& buffer : buffers_) {
    dropped += buffer->dropped();
  }
  return dropped;
}

std::uint64_t current_span() noexcept {
  return t_span_stack.depth == 0
             ? 0
             : t_span_stack.ids[t_span_stack.depth - 1];
}

void push_span(std::uint64_t id) noexcept {
  if (t_span_stack.depth < kMaxSpanDepth) {
    t_span_stack.ids[t_span_stack.depth] = id;
  }
  ++t_span_stack.depth;
}

void pop_span() noexcept {
  if (t_span_stack.depth > 0) {
    --t_span_stack.depth;
  }
}

}  // namespace cumf::prof
