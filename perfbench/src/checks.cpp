#include "checks.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstring>
#include <exception>

namespace perfbench {

std::vector<double> float32_rounded(const std::vector<double>& model) {
  std::vector<double> out(model.size());
  for (std::size_t i = 0; i < model.size(); ++i)
    out[i] = static_cast<double>(static_cast<float>(model[i]));
  return out;
}

bool matches_mean_of_uploads(const std::vector<double>& global,
                             const std::vector<std::vector<double>>& uploads) {
  if (uploads.empty()) return false;
  for (const auto& upload : uploads)
    if (upload.size() != global.size()) return false;
  const double n = static_cast<double>(uploads.size());
  for (std::size_t i = 0; i < global.size(); ++i) {
    double sum = 0.0;
    double largest = 0.0;
    for (const auto& upload : uploads) {
      const double v = static_cast<double>(static_cast<float>(upload[i]));
      sum += v;
      largest = std::max(largest, std::abs(v));
    }
    const double tolerance = 2.0 * static_cast<double>(FLT_EPSILON) * largest;
    if (!(std::abs(global[i] - sum / n) <= tolerance)) return false;
  }
  return true;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool each_acked_once(std::size_t clients,
                     const std::vector<std::size_t>& acked) {
  if (acked.size() != clients) return false;
  std::vector<int> seen(clients, 0);
  for (const std::size_t c : acked) {
    if (c >= clients || seen[c]++ != 0) return false;
  }
  return true;
}

bool resume_reproduces(
    const fedpower::core::ExperimentConfig& config,
    const std::vector<std::vector<fedpower::sim::AppProfile>>& device_apps,
    const std::vector<fedpower::sim::AppProfile>& eval_apps,
    bool eval_each_round, const std::string& snapshot,
    const std::vector<double>& expected) {
  fedpower::core::ExperimentConfig resumed = config;
  resumed.checkpoint.every_rounds = 0;
  resumed.checkpoint.resume_from = snapshot;
  try {
    const auto result = fedpower::core::run_federated(
        resumed, device_apps, eval_apps, eval_each_round);
    return same_bits(result.global_params, expected);
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace perfbench
