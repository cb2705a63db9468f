#include "metrics/convergence.hpp"

#include <sstream>

#include "common/check.hpp"

namespace cumf {

void ConvergenceTracker::record(double seconds, double rmse, int epoch) {
  CUMF_EXPECTS(points_.empty() || seconds >= points_.back().seconds,
               "time must be monotone");
  points_.push_back(Point{seconds, rmse, epoch});
}

std::optional<double> ConvergenceTracker::time_to(double target_rmse) const {
  for (const Point& p : points_) {
    if (p.rmse <= target_rmse) {
      return p.seconds;
    }
  }
  return std::nullopt;
}

std::optional<int> ConvergenceTracker::epochs_to(double target_rmse) const {
  for (const Point& p : points_) {
    if (p.rmse <= target_rmse) {
      return p.epoch;
    }
  }
  return std::nullopt;
}

std::string ConvergenceTracker::to_csv() const {
  std::ostringstream os;
  os << "epoch,seconds,rmse\n";
  for (const Point& p : points_) {
    os << p.epoch << ',' << p.seconds << ',' << p.rmse << '\n';
  }
  return os.str();
}

std::string ConvergenceTracker::series(const std::string& label) const {
  std::ostringstream os;
  os << "# " << label << "  (seconds  test-RMSE)\n";
  for (const Point& p : points_) {
    os << p.seconds << '\t' << p.rmse << '\n';
  }
  return os.str();
}

}  // namespace cumf
