// What a workload run takes and what it reports.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome trace-event JSON written at the end of a traced run.
  std::string trace_path;
  /// Directory for the run's own files (snapshot rotations).
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Each failed correctness check, one line each; empty = correct.
  std::vector<std::string> check_failures;
  std::vector<Metric> metrics;
  /// Diagnostics for standard error (per-pass rates and the like).
  std::vector<std::string> notes;

  /// Records a failed check once, however often it fails.
  void check(bool ok, const std::string& what) {
    if (ok) return;
    for (const std::string& seen : check_failures)
      if (seen == what) return;
    check_failures.push_back(what);
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// fleet_train and paper_protocol.
Outcome run_in_process(const RunOptions& options);
/// serve_tcp.
Outcome run_serve_tcp(const RunOptions& options);

/// Peak resident set of this process, MiB.
double peak_rss_mib();

/// Keeps this thread, and the threads it starts later (pool and shard
/// workers, the epoll loop), on the CPU it runs on now. On a shared virtual
/// machine a wakeup aimed at another vCPU waits until the hypervisor runs
/// that vCPU, and those waits moved the timed figures by a quarter or more
/// of their median from run to run; on one CPU a hand-off is a context
/// switch (README, "Noise").
void pin_to_current_cpu();

}  // namespace perfbench
