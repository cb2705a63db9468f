#include "prof/counters.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace cumf::prof {

std::uint64_t Histogram::bucket_key(double value) noexcept {
  if (!(value > 0.0)) {
    return 0;
  }
  const auto v = static_cast<std::uint64_t>(std::llround(value));
  if (v <= 128) {
    return v;
  }
  // v lies in the octave (2^e, 2^(e+1)], cut into 8 equal sub-buckets, each
  // keyed by its upper bound: a key overstates its values by less than an
  // eighth of 2^e, and the map stays small for wide-range values (bytes,
  // nnz) while every histogram buckets a value the same way.
  const int e = std::bit_width(v - 1) - 1;
  const std::uint64_t base = std::uint64_t{1} << e;
  const std::uint64_t width = base >> 3;
  return base + (v - base + width - 1) / width * width;
}

void Histogram::observe(double value) noexcept {
  ++count_;
  sum_ += value;
  ++buckets_[bucket_key(value)];
}

double Histogram::percentile(double q) const noexcept {
  if (count_ == 0) {
    return 0.0;
  }
  q = std::min(1.0, std::max(0.0, q));
  const double exact_rank = q * static_cast<double>(count_);
  auto rank = static_cast<std::uint64_t>(std::ceil(exact_rank));
  rank = std::max<std::uint64_t>(rank, 1);
  std::uint64_t cumulative = 0;
  for (const auto& [key, n] : buckets_) {
    cumulative += n;
    if (cumulative >= rank) {
      return static_cast<double>(key);
    }
  }
  // Unreachable while the count/bucket invariant holds; keep the compiler
  // and a torn snapshot honest.
  return static_cast<double>(buckets_.rbegin()->first);
}

void Histogram::merge(const Histogram& other) {
  count_ += other.count_;
  sum_ += other.sum_;
  for (const auto& [key, n] : other.buckets_) {
    buckets_[key] += n;
  }
}

void CounterRegistry::observe(const std::string& name, double value) {
  histograms_[name].observe(value);
}

const Histogram* CounterRegistry::histogram(const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

void CounterRegistry::merge(const CounterRegistry& other) {
  for (const auto& [name, h] : other.histograms_) {
    histograms_[name].merge(h);
  }
}

}  // namespace cumf::prof
