#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  samples_.reserve(capacity);
}

void Reservoir::add(double value) {
  ++seen_;
  if (samples_.size() < capacity_) {
    samples_.push_back(value);
    return;
  }
  const std::uint64_t slot = rng_.uniform_index(seen_);
  if (slot < capacity_) samples_[slot] = value;
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

}  // namespace perfbench
