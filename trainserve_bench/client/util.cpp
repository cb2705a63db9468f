#include "util.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace tsb {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("expected '--key value', got '" + key + "'");
    }
    kv_[key.substr(2)] = argv[++i];
  }
}

std::string Args::str(const std::string& key) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) {
    throw std::runtime_error("missing --" + key);
  }
  return it->second;
}

std::string Args::str(const std::string& key, const std::string& def) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? def : it->second;
}

double Args::num(const std::string& key) const {
  const std::string s = str(key);
  double v = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size() || !std::isfinite(v)) {
    throw std::runtime_error("invalid value '" + s + "' for --" + key);
  }
  return v;
}

double Args::num(const std::string& key, double def) const {
  return kv_.count(key) != 0 ? num(key) : def;
}

Json& Json::set(const std::string& key, double value) {
  char buf[64];
  if (!std::isfinite(value)) {
    fields_.emplace_back(key, "null");
    return *this;
  }
  std::snprintf(buf, sizeof buf, "%.17g", value);
  fields_.emplace_back(key, buf);
  return *this;
}

Json& Json::set(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      quoted += '\\';
    }
    quoted += c;
  }
  fields_.emplace_back(key, quoted + "\"");
  return *this;
}

Json& Json::set_raw(const std::string& key, const std::string& raw) {
  fields_.emplace_back(key, raw);
  return *this;
}

std::string Json::str() const {
  std::string out = "{";
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    out += (i ? ", \"" : "\"") + fields_[i].first + "\": " + fields_[i].second;
  }
  return out + "}";
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const std::size_t idx = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(idx),
                   values.end());
  return values[idx];
}

double peak_rss_mb() {
  // VmHWM is the peak of this process's own address space, which exec
  // starts afresh; getrusage's ru_maxrss would also hold the parent's peak,
  // which the kernel folds in at exec.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

namespace {
thread_local std::vector<std::int64_t> open_stack;
}  // namespace

Spans& Spans::instance() {
  static Spans spans;
  return spans;
}

std::int64_t Spans::open(const char* name, std::int64_t request) {
  SpanRecord rec;
  rec.name = name;
  rec.parent = open_stack.empty() ? -1 : open_stack.back();
  rec.request = request;
  std::int64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    id = static_cast<std::int64_t>(spans_.size());
    rec.id = id;
    spans_.push_back(std::move(rec));
  }
  open_stack.push_back(id);
  const std::uint64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].start_ns = t;
  return id;
}

void Spans::close(std::int64_t id) {
  const std::uint64_t t = now_ns();
  if (!open_stack.empty() && open_stack.back() == id) {
    open_stack.pop_back();
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

void Spans::count(const char* name, std::uint64_t ns, std::uint64_t n) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto& c = counters_[name];
  c.first += n;
  c.second += ns;
}

std::map<std::string, Spans::Summary> Spans::summarize() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_s(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_s[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  std::map<std::string, Summary> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    Summary& sum = out[s.name];
    ++sum.count;
    sum.total_s += dur;
    sum.self_s += dur - child_s[i];
  }
  for (const auto& [name, c] : counters_) {
    Summary& sum = out[name];
    sum.count += c.first;
    sum.total_s += static_cast<double>(c.second) * 1e-9;
    sum.self_s += static_cast<double>(c.second) * 1e-9;
  }
  return out;
}

bool Spans::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  std::fprintf(out, "{\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\": \"%s\", \"id\": %lld, \"parent\": %lld, "
                 "\"request\": %lld, \"start_ns\": %llu, \"end_ns\": %llu}",
                 i ? "," : "", s.name.c_str(), static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  std::fprintf(out, "],\n\"counters\": {");
  bool first = true;
  for (const auto& [name, c] : counters_) {
    std::fprintf(out, "%s\n\"%s\": {\"count\": %llu, \"total_ns\": %llu}",
                 first ? "" : ",", name.c_str(),
                 static_cast<unsigned long long>(c.first),
                 static_cast<unsigned long long>(c.second));
    first = false;
  }
  std::fprintf(out, "}}\n");
  return std::fclose(out) == 0;
}

}  // namespace tsb
