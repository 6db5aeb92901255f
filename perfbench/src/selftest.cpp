// Self-tests for the benchmark's own checks: each correctness check must
// accept the unperturbed case and reject a deliberately perturbed one (a
// parameter nudged, a snapshot byte flipped, an upload dropped), and the
// percentile helper and trace analysis must match hand-computed values.
// Prints one line per expectation; exits non-zero if any failed.
//
//   perfbench_selftest          (ctest runs it as perfbench.selftest)
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "checks.hpp"
#include "ckpt/rotation.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "sim/splash2.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-9; }

void percentile_matches_hand_values() {
  using perfbench::percentile;
  expect(near(percentile({3.0, 1.0, 4.0, 2.0}, 0.5), 2.5),
         "p50 of {1,2,3,4} (unsorted input) is 2.5");
  expect(near(percentile({1.0, 2.0, 3.0, 4.0}, 0.25), 1.75),
         "p25 of {1,2,3,4} is 1.75");
  expect(near(percentile({1.0, 2.0, 3.0, 4.0}, 0.0), 1.0) &&
             near(percentile({1.0, 2.0, 3.0, 4.0}, 1.0), 4.0),
         "p0 and p100 are the extremes");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(near(percentile(hundred, 0.99), 99.01), "p99 of 1..100 is 99.01");
  expect(near(percentile({7.0}, 0.99), 7.0), "one sample is every percentile");
  expect(percentile({}, 0.5) == 0.0, "an empty sample gives 0");
  expect(near(perfbench::median({5.0, 1.0, 3.0}), 3.0), "median of {5,1,3} is 3");

  perfbench::Reservoir small(8, 1);
  for (int i = 0; i < 5; ++i) small.add(i);
  expect(small.samples().size() == 5 && near(perfbench::median(small.samples()), 2.0),
         "a reservoir under capacity keeps every value");
  perfbench::Reservoir capped(1000, 1);
  for (int i = 0; i < 100000; ++i) capped.add(i % 100);
  const double p50 = perfbench::median(capped.samples());
  expect(capped.samples().size() == 1000 && p50 >= 45.0 && p50 <= 54.0,
         "a full reservoir stays at capacity and samples uniformly");
}

std::vector<std::vector<double>> sample_uploads() {
  std::vector<std::vector<double>> uploads(4, std::vector<double>(687));
  for (std::size_t c = 0; c < uploads.size(); ++c)
    for (std::size_t i = 0; i < 687; ++i)
      uploads[c][i] = std::sin(static_cast<double>(i * 7 + c * 13)) * 0.3;
  return uploads;
}

/// The aggregate the program computes: float32 uploads, summed in client
/// order, times 1/n.
std::vector<double> mean_of(const std::vector<std::vector<double>>& uploads) {
  std::vector<double> global(uploads.front().size(), 0.0);
  const double inv_n = 1.0 / static_cast<double>(uploads.size());
  for (std::size_t i = 0; i < global.size(); ++i) {
    double sum = 0.0;
    for (const auto& u : uploads) sum += static_cast<double>(static_cast<float>(u[i]));
    global[i] = sum * inv_n;
  }
  return global;
}

void mean_check_rejects_perturbations() {
  const auto uploads = sample_uploads();
  const std::vector<double> global = mean_of(uploads);
  expect(perfbench::matches_mean_of_uploads(global, uploads),
         "mean check accepts the true aggregate");
  expect(perfbench::matches_mean_of_uploads(perfbench::float32_rounded(global),
                                            uploads),
         "mean check accepts the aggregate as fetched in float32");
  std::vector<double> nudged = global;
  nudged[100] += 1e-4;
  expect(!perfbench::matches_mean_of_uploads(nudged, uploads),
         "mean check rejects one parameter nudged by 1e-4");
  std::vector<std::vector<double>> dropped(uploads.begin(), uploads.end() - 1);
  expect(!perfbench::matches_mean_of_uploads(global, dropped),
         "mean check rejects the aggregate when one upload is dropped");
}

void ack_check_rejects_perturbations() {
  expect(perfbench::each_acked_once(4, {2, 0, 3, 1}),
         "ack check accepts every client acked once");
  expect(!perfbench::each_acked_once(4, {0, 1, 3}),
         "ack check rejects one upload dropped");
  expect(!perfbench::each_acked_once(4, {0, 1, 1, 3}),
         "ack check rejects a duplicate ack");
}

void bit_check_rejects_one_ulp() {
  const std::vector<double> a = sample_uploads().front();
  std::vector<double> b = a;
  b[5] = std::nextafter(b[5], 1.0);
  expect(perfbench::same_bits(a, a), "bit check accepts identical models");
  expect(!perfbench::same_bits(a, b), "bit check rejects a one-ulp change");
}

void resume_check_rejects_flipped_snapshot() {
  using namespace fedpower;
  const std::string dir = "perfbench_selftest_snapshots";
  std::filesystem::remove_all(dir);
  core::ExperimentConfig config;
  config.rounds = 4;
  config.seed = 7;
  config.controller.steps_per_round = 20;
  config.checkpoint.every_rounds = 1;
  config.checkpoint.keep = 4;
  config.checkpoint.dir = dir;
  const auto apps = core::resolve(core::table2_scenarios().front());
  const auto eval_apps = sim::splash2_suite();
  const auto run = core::run_federated(config, apps, eval_apps, false);
  const ckpt::SnapshotRotation rotation(dir, config.checkpoint.keep);
  const auto seqs = rotation.sequences();
  if (seqs.size() < 2) {
    expect(false, "tiny run wrote its snapshots");
    return;
  }
  const std::string snapshot = rotation.path_for(seqs[seqs.size() - 2]);
  expect(perfbench::resume_reproduces(config, apps, eval_apps, false, snapshot,
                                      run.global_params),
         "resume check accepts an intact snapshot");
  std::vector<double> nudged = run.global_params;
  nudged[0] += 1e-9;
  expect(!perfbench::resume_reproduces(config, apps, eval_apps, false,
                                       snapshot, nudged),
         "resume check rejects an expected model nudged by 1e-9");

  std::vector<char> bytes;
  {
    std::ifstream in(snapshot, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::string flipped = dir + "/flipped.fpck";
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  {
    std::ofstream out(flipped, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  expect(!perfbench::resume_reproduces(config, apps, eval_apps, false, flipped,
                                       run.global_params),
         "resume check rejects a snapshot with one byte flipped");
  std::filesystem::remove_all(dir);
}

void trace_analysis_matches_hand_values() {
  using perfbench::Span;
  // One round of 10 us: fed.round 8 us holding a 2-wide region of 6 us
  // whose two workers ran core.step for 6 us and 4 us (2 us of it in
  // sim.interval); 2 us of the round is the frame's own.
  const auto span = [](const char* name, std::uint64_t start,
                       std::uint64_t end, std::uint64_t id,
                       std::uint64_t parent, std::uint32_t width = 0) {
    Span s;
    s.name = name;
    s.start_ns = start * 1000;
    s.end_ns = end * 1000;
    s.id = id;
    s.parent = parent;
    s.width = width;
    return s;
  };
  const std::vector<Span> spans = {
      span("bench.round", 0, 10, 1, 0),
      span("fed.round", 1, 9, 2, 1),
      span("runtime.train", 2, 8, 3, 2, 2),
      span("core.step", 2, 8, 4, 3),
      span("core.step", 2, 6, 5, 3),
      span("sim.interval", 3, 5, 6, 5),
  };
  const perfbench::TraceReport r = perfbench::analyze(spans);
  expect(near(r.wall_s, 10e-6), "trace wall is the round span");
  expect(near(r.coverage, 0.8), "trace coverage excludes the frame's 2 us");
  // Region: 6 us wall, children 10 us / 2 = 5 us -> 1 us idle (runtime).
  expect(near(r.layer_self_s.at("runtime"), 1e-6), "pool idle is runtime time");
  // fed.round self: 8 - 6 = 2 us.
  expect(near(r.layer_self_s.at("fed"), 2e-6), "fed self time");
  // core: (6 + (4 - 2)) / 2 = 4 us; sim: 2 / 2 = 1 us.
  expect(near(r.layer_self_s.at("core"), 4e-6), "worker core time folds by width");
  expect(near(r.layer_self_s.at("sim"), 1e-6), "nested worker sim time folds by width");
  expect(r.durations_us.at("core.step").size() == 2,
         "durations are kept per span name");
}

}  // namespace

int main() {
  percentile_matches_hand_values();
  mean_check_rejects_perturbations();
  ack_check_rejects_perturbations();
  bit_check_rejects_one_ulp();
  resume_check_rejects_flipped_snapshot();
  trace_analysis_matches_hand_values();
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
