// cuprof counter & histogram registry.
//
// Named scalar counters (monotonic sums) and sparse-bucket histograms,
// snapshotted per epoch into the JSONL telemetry stream next to the
// ConvergenceTracker RMSE points. The registry is a value type: workers
// accumulate into private registries and the epoch loop merges them.
// merge() is associative and commutative (sums and bucket-wise sums), so
// any merge tree over any worker/schedule interleaving yields the same
// snapshot — the property the scheduling-comparison telemetry relies on,
// and one the tests check directly.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace cumf::prof {

/// Sparse-bucket histogram. Values map to deterministic bucket keys: exact
/// integers up to 128 (CG iteration counts, batch sizes), then 8 equal
/// sub-buckets per octave, each keyed by its upper bound (129–144 → 144,
/// 1000 → 1024) — so two histograms built from different shards bucket
/// identically and merge exactly.
class Histogram {
 public:
  void observe(double value) noexcept;
  void merge(const Histogram& other);

  std::uint64_t count() const noexcept { return count_; }
  double sum() const noexcept { return sum_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  const std::map<std::uint64_t, std::uint64_t>& buckets() const noexcept {
    return buckets_;
  }

  /// Nearest-rank percentile over the bucketed values: the smallest bucket
  /// key whose cumulative count reaches ⌈q·count⌉. Exact for integer-valued
  /// observations ≤ 128 (CG iterations, latencies recorded in µs); beyond
  /// that the answer is its sub-bucket's upper bound, within an eighth of
  /// an octave above the value (a 150 µs p99 reads 160). Deterministic and
  /// merge-stable: any merge tree over worker shards yields the same
  /// percentiles. q is clamped to [0, 1]; an empty histogram reports 0.
  double percentile(double q) const noexcept;

  /// Deterministic bucket key for a value (clamped at 0 below).
  static std::uint64_t bucket_key(double value) noexcept;

  bool operator==(const Histogram& other) const noexcept = default;

 private:
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::map<std::uint64_t, std::uint64_t> buckets_;
};

class CounterRegistry {
 public:
  /// Adds `delta` to the named counter (created at 0).
  void add(const std::string& name, double delta);

  /// Records one observation into the named histogram.
  void observe(const std::string& name, double value);

  double value(const std::string& name) const;
  const Histogram* histogram(const std::string& name) const;

  const std::map<std::string, double>& counters() const noexcept {
    return counters_;
  }
  const std::map<std::string, Histogram>& histograms() const noexcept {
    return histograms_;
  }

  /// Bucket-wise/element-wise merge; associative and commutative.
  void merge(const CounterRegistry& other);

  void clear();

  /// JSON object: {"counters":{...},"histograms":{name:{"count":..,
  /// "sum":..,"mean":..,"buckets":{"6":123,...}}}}.
  std::string to_json() const;

  bool operator==(const CounterRegistry& other) const noexcept = default;

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace cumf::prof
