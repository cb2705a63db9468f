// Shared helpers of the train→serve benchmark client: clock, argument
// parsing, a flat JSON writer for the one-line results run.py parses, order
// statistics, and the span recorder used by the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace tsb {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// "--key value" pairs after the subcommand; a missing required key or an
/// unparsable number throws std::runtime_error naming the key.
class Args {
 public:
  Args(int argc, char** argv, int first);
  std::string str(const std::string& key) const;
  std::string str(const std::string& key, const std::string& def) const;
  double num(const std::string& key) const;
  double num(const std::string& key, double def) const;

 private:
  std::map<std::string, std::string> kv_;
};

/// One flat JSON object; values are numbers, strings or raw JSON.
class Json {
 public:
  Json& set(const std::string& key, double value);
  Json& set(const std::string& key, const std::string& value);
  Json& set_raw(const std::string& key, const std::string& raw);
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Nearest-rank percentile (q in [0, 1]) of unsorted values; 0 when empty.
double percentile(std::vector<double> values, double q);

/// Peak resident set of this process so far in MB (VmHWM).
double peak_rss_mb();

// --- Spans -------------------------------------------------------------
//
// The traced run records a span around every call the client makes into a
// module's public function: name, start, end, parent (the enclosing span on
// the same thread) and, for serving, the request id. Spans stay in memory
// and are written out when the run ends. Per-row kernel calls are too many
// to keep one by one; they go through Counter, which aggregates a count and
// a total per name.
struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t id = -1;
  std::int64_t parent = -1;
  std::int64_t request = -1;
};

class Spans {
 public:
  static Spans& instance();
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// Opens a span on the calling thread; returns its id (-1 when off).
  std::int64_t open(const char* name, std::int64_t request = -1);
  void close(std::int64_t id);
  /// Aggregated per-call timing for hot per-row calls.
  void count(const char* name, std::uint64_t ns, std::uint64_t n = 1);

  struct Summary {
    std::uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  /// Per-name totals; self time is a span's duration minus its children's.
  std::map<std::string, Summary> summarize() const;
  /// Writes every span and counter as JSON to `path`.
  bool write(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> counters_;
};

/// RAII span; free when tracing is off.
class Span {
 public:
  explicit Span(const char* name, std::int64_t request = -1)
      : id_(Spans::instance().enabled() ? Spans::instance().open(name, request)
                                        : -1) {}
  ~Span() {
    if (id_ >= 0) {
      Spans::instance().close(id_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t id_;
};

}  // namespace tsb
