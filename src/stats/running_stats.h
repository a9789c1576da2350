// RunningStats: single-pass mean/variance/min/max (Welford), mergeable so
// statistics can be computed in parallel or combined across strata.
#ifndef CVOPT_STATS_RUNNING_STATS_H_
#define CVOPT_STATS_RUNNING_STATS_H_

#include <cstdint>

namespace cvopt {

/// Numerically-stable streaming moments over a sequence of doubles.
class RunningStats {
 public:
  RunningStats() = default;

  /// The statistics of `count` observations of the finite value `x`: count,
  /// mean x, M2 0, min and max x (default-constructed when count is 0).
  /// Bit-identical to `count` Add(x) calls merged in any chunking, since
  /// every Welford and Chan delta after the first observation is exactly 0.
  static RunningStats Constant(uint64_t count, double x);

  /// Adds one observation.
  void Add(double x);

  /// Merges another accumulator into this one (Chan et al. parallel merge).
  void Merge(const RunningStats& other);

  uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

  /// Population variance: sum((x-mean)^2) / n. The per-group sigma^2 in the
  /// paper's allocation formulas is the population variance of the group.
  double variance_population() const;

  /// Sample variance: sum((x-mean)^2) / (n-1).
  double variance_sample() const;

  /// Population standard deviation.
  double stddev_population() const;

  /// Coefficient of variation sigma/|mu| of the observed values, with the
  /// population sigma. Returns 0 when count == 0; when |mu| underflows
  /// relative to sigma, returns sigma / mu_floor (see cv_mu_floor below).
  double cv() const;

  double min() const { return min_; }
  double max() const { return max_; }

  bool operator==(const RunningStats& other) const;

 private:
  uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Floor applied to |mu| when computing CVs, relative to sigma. The paper
/// assumes non-zero means; this keeps the optimization finite when a group
/// mean is ~0 (documented deviation, DESIGN.md §4).
inline constexpr double kCvMuFloorRatio = 1e-9;

}  // namespace cvopt

#endif  // CVOPT_STATS_RUNNING_STATS_H_
