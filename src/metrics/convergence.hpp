// Convergence tracking: test-RMSE as a function of (simulated) training time.
//
// Fig. 6 and Fig. 8 plot test RMSE against training seconds; Table IV reports
// the time at which each solver first reaches the dataset's acceptable RMSE.
// This tracker records the curve and answers both queries.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace cumf {

class ConvergenceTracker {
 public:
  struct Point {
    double seconds = 0.0;  ///< cumulative training time (simulated or wall)
    double rmse = 0.0;     ///< test RMSE after this epoch
    int epoch = 0;
  };

  void record(double seconds, double rmse, int epoch);

  const std::vector<Point>& curve() const noexcept { return points_; }

  /// First time at which RMSE ≤ target; empty if never reached.
  std::optional<double> time_to(double target_rmse) const;

  /// Epochs needed to reach the target; empty if never reached.
  std::optional<int> epochs_to(double target_rmse) const;

  /// Renders "seconds rmse" rows, one per epoch — the Fig. 6/8 series.
  std::string series(const std::string& label) const;

  /// Machine-readable companion of series(): "epoch,seconds,rmse" CSV with
  /// a header row, ready for pandas/gnuplot.
  std::string to_csv() const;

 private:
  std::vector<Point> points_;
};

}  // namespace cumf
