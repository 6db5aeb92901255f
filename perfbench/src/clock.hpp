// The benchmark's one clock: a monotonic nanosecond counter. Every timing
// in perfbench goes through now_ns(), so the single clock read below is the
// only nondeterminism source the benchmark adds; timings are reported,
// never fed back into what the program computes.
#pragma once

#include <cstdint>

namespace perfbench {

std::uint64_t now_ns() noexcept;
/// CPU time of the whole process, every thread's, in nanoseconds.
std::uint64_t cpu_ns() noexcept;

/// Seconds between two now_ns() readings.
inline double seconds_between(std::uint64_t start, std::uint64_t end) {
  return static_cast<double>(end - start) * 1e-9;
}

}  // namespace perfbench
