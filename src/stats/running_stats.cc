#include "src/stats/running_stats.h"

#include <algorithm>
#include <cmath>

namespace cvopt {

RunningStats RunningStats::Constant(uint64_t count, double x) {
  RunningStats rs;
  if (count == 0) return rs;
  rs.count_ = count;
  rs.mean_ = x;
  rs.min_ = rs.max_ = x;
  return rs;
}

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance_population() const {
  if (count_ == 0) return 0.0;
  return std::max(0.0, m2_ / static_cast<double>(count_));
}

double RunningStats::variance_sample() const {
  if (count_ < 2) return 0.0;
  return std::max(0.0, m2_ / static_cast<double>(count_ - 1));
}

double RunningStats::stddev_population() const {
  return std::sqrt(variance_population());
}

double RunningStats::cv() const {
  if (count_ == 0) return 0.0;
  const double sigma = stddev_population();
  if (sigma == 0.0) return 0.0;
  const double abs_mu = std::fabs(mean_);
  const double floor = sigma * kCvMuFloorRatio;
  return sigma / std::max(abs_mu, floor);
}

bool RunningStats::operator==(const RunningStats& other) const {
  return count_ == other.count_ && mean_ == other.mean_ && m2_ == other.m2_ &&
         min_ == other.min_ && max_ == other.max_;
}

}  // namespace cvopt
