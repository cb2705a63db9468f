// Wall-clock stopwatch used by the CPU-side benchmark harness.
//
// Modeled GPU seconds come from the gpusim cost model; this class measures
// real host time for the parts of the evaluation that run natively.
#pragma once

#include <chrono>
#include <cstdint>

namespace cumf {

class Stopwatch {
 public:
  Stopwatch() noexcept { reset(); }

  void reset() noexcept { start_ = lap_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  double seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  double milliseconds() const noexcept { return seconds() * 1e3; }

  /// Seconds since the last lap() (or reset/construction for the first
  /// lap), then restarts the lap interval. seconds() keeps measuring from
  /// the original start, so per-epoch laps and the cumulative total come
  /// from one stopwatch.
  double lap() noexcept {
    const clock::time_point now = clock::now();
    const double s = std::chrono::duration<double>(now - lap_).count();
    lap_ = now;
    return s;
  }

  /// Monotonic nanoseconds relative to a process-wide epoch (the first call
  /// anywhere in the process). One shared anchor means timestamps taken on
  /// different threads — the cuprof tracer, the benches, per-epoch laps —
  /// are directly comparable without re-deriving a base time.
  static std::uint64_t now_ns() noexcept {
    static const clock::time_point epoch = clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                             epoch)
            .count());
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
  clock::time_point lap_;
};

}  // namespace cumf
