// Streaming and batch statistics used by the test harness.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <vector>

namespace dtnsim {

// Welford streaming mean/variance with min/max tracking.
class RunningStats {
 public:
  void add(double x) { add(x, 1); }
  // `x` observed `times` times in one batched Welford step; add(x, 1) is
  // add(x) bit for bit.
  void add(double x, std::size_t times) {
    n_ += times;
    const double w = static_cast<double>(times);
    const double delta = x - mean_;
    mean_ += delta * w / static_cast<double>(n_);
    m2_ += delta * (x - mean_) * w;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  // Sample variance / stddev (n-1 denominator), 0 for n < 2.
  double variance() const;
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Batch helpers over a vector of samples.
double min_of(const std::vector<double>& xs);
double max_of(const std::vector<double>& xs);
// Linear-interpolated percentile, p in [0,100].
double percentile_of(std::vector<double> xs, double p);

}  // namespace dtnsim
