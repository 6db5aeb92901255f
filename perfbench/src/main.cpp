// perfbench: one FedPower workload per run, its correctness checks, and its
// metrics as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {name: {value, unit}}}
// Untraced runs (--trace 0) print the end-to-end metrics, traced runs
// (--trace 1) the per-layer ones and write a Chrome trace file.
//
//   perfbench --workload fleet_train|paper_protocol|serve_tcp --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [--work-dir DIR]
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "workload.hpp"

namespace perfbench {

double peak_rss_mib() {
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

}  // namespace perfbench

namespace {

/// Every per-layer metric a traced run prints (BENCHMARK.json "per_layer"),
/// in that order; a layer the workload does not exercise reads 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"core.step_us_p50", "us"},        {"core.train_step_us_p50", "us"},
    {"core.step_us_p99", "us"},        {"core.eval_us_p50", "us"},
    {"sim.interval_us_p50", "us"},     {"nn.greedy_us_p50", "us"},
    {"rl.updates", "count"},           {"runtime.parallel_efficiency", "ratio"},
    {"fed.local_round_ms_p50", "ms"},  {"fed.round_self_ms_p50", "ms"},
    {"fed.transfer_us_p50", "us"},     {"fed.bytes_per_round", "bytes"},
    {"ckpt.snapshot_ms_p50", "ms"},    {"ckpt.snapshot_bytes", "bytes"},
    {"serve.commit_us_p50", "us"},     {"serve.codec_us_p50", "us"},
    {"serve.upload_us_p99", "us"},     {"serve.fetch_us_p99", "us"},
    {"serve.deferred", "count"},       {"core.share", "ratio"},
    {"sim.share", "ratio"},            {"nn.share", "ratio"},
    {"fed.share", "ratio"},            {"runtime.share", "ratio"},
    {"ckpt.share", "ratio"},           {"serve.share", "ratio"},
    {"trace.coverage", "ratio"},       {"trace.rounds_per_s", "rounds/s"},
};

std::vector<perfbench::Metric> all_layer_metrics(
    const std::vector<perfbench::Metric>& measured) {
  std::vector<perfbench::Metric> out;
  for (const auto& [name, unit] : kLayerMetrics) {
    const auto it = std::find_if(
        measured.begin(), measured.end(),
        [name = name](const perfbench::Metric& m) { return m.name == name; });
    out.push_back(it != measured.end() ? *it : perfbench::Metric{name, 0.0, unit});
  }
  return out;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fleet_train|paper_protocol|serve_tcp --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--work-dir DIR]\n",
               why);
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.work_dir = ".bench_build/work";
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0))
        return usage("--seconds must be a positive number");
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return usage("--trace must be 0 or 1");
      options.trace = value == "1";
      have_trace = true;
    } else if (arg == "--trace-out") {
      options.trace_path = value;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed) return usage("--seed must be a whole number");
  if (!have_trace) return usage("--trace is required");

  perfbench::Outcome outcome;
  try {
    std::filesystem::create_directories(options.work_dir);
    if (options.workload == "fleet_train" ||
        options.workload == "paper_protocol")
      outcome = perfbench::run_in_process(options);
    else if (options.workload == "serve_tcp")
      outcome = perfbench::run_serve_tcp(options);
    else
      return usage(("unknown workload " + options.workload).c_str());
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }

  if (options.trace) outcome.metrics = all_layer_metrics(outcome.metrics);
  for (const std::string& note : outcome.notes)
    std::fprintf(stderr, "perfbench: %s\n", note.c_str());
  for (const std::string& failure : outcome.check_failures)
    std::fprintf(stderr, "perfbench: check failed: %s\n", failure.c_str());
  std::string json = "{\"correct\": ";
  json += outcome.check_failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + json_escape(m.name) +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            json_escape(m.unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
