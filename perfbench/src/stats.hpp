// Order statistics for benchmark samples.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

/// A uniform random sample of at most `capacity` values from a stream
/// (reservoir sampling, Algorithm R). Its memory is fixed up front, so a
/// long or fast run does not grow the process's peak RSS, which the
/// benchmark reports as the program's.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed);
  void add(double value);
  const std::vector<double>& samples() const noexcept { return samples_; }

 private:
  std::size_t capacity_;
  std::uint64_t seen_ = 0;
  std::vector<double> samples_;
  fedpower::util::Rng rng_;
};

/// The q-quantile (0 <= q <= 1) of the samples by linear interpolation
/// between closest ranks: position q * (n - 1) in the sorted samples, the
/// definition numpy.percentile uses by default. 0 for an empty sample.
double percentile(std::vector<double> samples, double q);

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

}  // namespace perfbench
