#include "clock.hpp"

#include <time.h>

#include <chrono>

namespace perfbench {

std::uint64_t now_ns() noexcept {
  const auto t = std::chrono::steady_clock::now();  // lint: nondet-ok(benchmark timing; reported only, never feeds a computation)
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
          .count());
}

std::uint64_t cpu_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);  // lint: nondet-ok(benchmark timing; reported only, never feeds a computation)
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace perfbench
