// Correctness checks the benchmark applies to the program's outputs. Each
// compares against a computation made here, apart from the program, or
// against a property the method must have; selftest.cpp shows that each
// one rejects a deliberately perturbed input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment.hpp"

namespace perfbench {

/// Rounds a model to the float32 wire precision, as the codec does.
std::vector<double> float32_rounded(const std::vector<double>& model);

/// True when `global` equals the coordinate-wise mean of the uploads after
/// each upload is rounded to float32, to within float32 rounding of the
/// largest contribution to each coordinate. Rounding is idempotent, so
/// uploads that already hold decoded float32 values are fine.
bool matches_mean_of_uploads(const std::vector<double>& global,
                             const std::vector<std::vector<double>>& uploads);

/// True when the two vectors hold the same doubles bit for bit.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b);

/// True when every one of `clients` uplinks was acknowledged exactly once:
/// `acked` lists the client id of each acknowledged upload.
bool each_acked_once(std::size_t clients,
                     const std::vector<std::size_t>& acked);

/// Resumes the experiment from one snapshot file and runs it to
/// config.rounds; true when the final global model equals `expected` bit
/// for bit. A snapshot that does not load counts as a failure.
bool resume_reproduces(const fedpower::core::ExperimentConfig& config,
                       const std::vector<std::vector<fedpower::sim::AppProfile>>&
                           device_apps,
                       const std::vector<fedpower::sim::AppProfile>& eval_apps,
                       bool eval_each_round, const std::string& snapshot,
                       const std::vector<double>& expected);

}  // namespace perfbench
