// The two in-process workloads, fleet_train and paper_protocol.
//
// Untraced, a run times whole passes of core::run_federated, the program's
// public experiment API, exactly as its callers use it, serially, on one
// CPU and by the CPU clock. Traced, it runs the same federation composed
// from the program's own parts (runtime::make_hardware devices,
// core::PowerController, fed::FederatedAveraging or serve::ServeFederation,
// a 2-wide runtime::ThreadPool, core::Evaluator, ckpt::SnapshotRotation)
// with a timing wrapper around every interface a layer exposes. Both modes
// check that the composition ends on the same model bytes as
// run_federated, so the trace describes the program that the untraced
// figures time.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>

#include "checks.hpp"
#include "ckpt/rotation.hpp"
#include "clock.hpp"
#include "core/evaluate.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "fed/codec.hpp"
#include "fed/federation.hpp"
#include "fed/transport.hpp"
#include "runtime/fleet_runtime.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/serve_federation.hpp"
#include "sim/splash2.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace fedpower;

/// Zero-round run_federated calls timed after the warm-up pass and after
/// every timed pass; setup_s is the median of all of them, so it samples
/// the host over the whole run like rounds_per_s does.
constexpr std::size_t kSetupsPerPass = 16;
/// Untraced runs follow every this many timed passes with an untimed
/// composed pass, which checks the aggregates and times the workload's own
/// model transfers, so the link figures also span the whole run.
constexpr std::size_t kComposedEvery = 4;
/// Traced runs record spans for whole passes until this many are held.
constexpr std::size_t kSpanBudget = 400000;
/// fleet_train rounds per pass.
constexpr std::size_t kFleetRounds = 20;
constexpr std::size_t kFleetDevices = 16;
/// Pool width of the composed federation. The timed run_federated passes
/// are serial (README, "Noise"); the composed passes train and evaluate on
/// a runtime::ThreadPool this wide, so the traced figures time the pool's
/// dispatch and barrier. With the driving thread and paper_protocol's shard
/// worker that makes four threads.
constexpr std::size_t kComposedPoolWidth = 2;

struct Scenario {
  std::string name;
  std::vector<std::vector<sim::AppProfile>> device_apps;
};

struct Spec {
  core::ExperimentConfig config;
  std::vector<Scenario> scenarios;
  std::vector<sim::AppProfile> eval_apps;
  bool eval_each_round = false;
  bool completion_eval = false;
  std::string snapshot_root;  ///< empty = no snapshots

  /// The run_federated config of one scenario.
  core::ExperimentConfig scenario_config(std::size_t s,
                                         const char* suffix = "") const {
    core::ExperimentConfig c = config;
    if (!snapshot_root.empty())
      c.checkpoint.dir = snapshot_root + "/" + scenarios[s].name + suffix;
    return c;
  }
};

/// The per-(round, device) evaluation seed run_federated derives.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                    (b * 0xbf58476d1ce4e5b9ULL);
  return util::splitmix64(s);
}

/// 16 devices, each training on two distinct SPLASH-2 apps drawn from the
/// seed; Table I controller; full participation, no evaluation, no
/// snapshots.
Spec fleet_train_spec(std::uint64_t seed) {
  Spec spec;
  spec.config.rounds = kFleetRounds;
  spec.config.seed = seed;
  spec.config.num_threads = 1;
  spec.eval_apps = sim::splash2_suite();
  util::Rng draw(seed ^ 0x5eedf1ee7ULL);
  Scenario fleet{"fleet", {}};
  const std::size_t n_apps = spec.eval_apps.size();
  for (std::size_t d = 0; d < kFleetDevices; ++d) {
    const std::size_t a = draw.uniform_index(n_apps);
    const std::size_t b = (a + 1 + draw.uniform_index(n_apps - 1)) % n_apps;
    fleet.device_apps.push_back({spec.eval_apps[a], spec.eval_apps[b]});
  }
  spec.scenarios.push_back(std::move(fleet));
  return spec;
}

/// Paper §IV-A: Table II scenarios S1-S3, 2 devices, 100 rounds of 100
/// steps, greedy evaluation every round on the cycling SPLASH-2 app, a
/// snapshot every 10 rounds, rounds through the in-process sharded serve
/// pipeline, then a Table III completion evaluation of the final policy.
Spec paper_protocol_spec(std::uint64_t seed, const std::string& work_dir) {
  Spec spec;
  spec.config.rounds = 100;
  spec.config.seed = seed;
  // Serial: with 2 devices the pool has almost nothing to parallelise, and
  // its per-round dispatch and barrier wakeups made pass rates swing on a
  // shared host (README, "Noise").
  spec.config.num_threads = 1;
  spec.config.serve.enabled = true;
  spec.config.serve.workers = 1;
  spec.config.serve.deterministic = true;
  spec.config.checkpoint.every_rounds = 10;
  spec.config.checkpoint.keep = 3;
  spec.eval_apps = sim::splash2_suite();
  spec.eval_each_round = true;
  spec.completion_eval = true;
  spec.snapshot_root = work_dir + "/snapshots";
  for (const core::Scenario& s : core::table2_scenarios())
    spec.scenarios.push_back({"S" + s.name, core::resolve(s)});
  return spec;
}

// --- timing wrappers around the program's interfaces ---------------------

core::PolicyFn timed_policy(core::PolicyFn inner) {
  return [inner = std::move(inner)](const sim::TelemetrySample& sample) {
    const ScopedSpan span("nn.greedy");
    return inner(sample);
  };
}

class TimedDevice final : public sim::CpuDevice {
 public:
  explicit TimedDevice(sim::CpuDevice& inner) : inner_(inner) {}
  void set_level(std::size_t level) override { inner_.set_level(level); }
  std::size_t level() const override { return inner_.level(); }
  sim::TelemetrySample run_interval(double dt_s) override {
    const ScopedSpan span("sim.interval");
    return inner_.run_interval(dt_s);
  }
  const sim::VfTable& vf_table() const override { return inner_.vf_table(); }

 private:
  sim::CpuDevice& inner_;
};

/// Each device's model transfers in the composed run, timed whether or
/// not spans are recorded. Both servers call the link and the clients
/// serially, in client-index order, so one pending start suffices. A fetch
/// runs from the start of a downlink Transport::transfer to the end of the
/// client's receive_global (transfer, decode, model load). An uplink runs
/// from the start of the client's local_parameters to the end of the
/// uplink transfer (parameter read-out, encode, transfer).
struct LinkLog {
  std::uint64_t pending_ns = 0;
  std::vector<double> fetch_us;
  std::vector<double> uplink_us;
};

/// The controller as a federated client, one timed step at a time. The
/// parameters the server reads for the uplink are kept in *upload so the
/// benchmark can recompute the aggregate itself.
class TimedClient final : public fed::FederatedClient {
 public:
  TimedClient(core::PowerController& controller, std::vector<double>* upload,
              LinkLog* link)
      : controller_(controller), upload_(upload), link_(link) {}

  void receive_global(std::span<const double> params) override {
    {
      const ScopedSpan span("core.receive");
      controller_.receive_global(params);
    }
    link_->fetch_us.push_back(seconds_between(link_->pending_ns, now_ns()) * 1e6);
  }
  std::vector<double> local_parameters() const override {
    link_->pending_ns = now_ns();
    const ScopedSpan span("core.parameters");
    *upload_ = controller_.local_parameters();
    return *upload_;
  }
  // Same steps as PowerController::run_local_round (run_steps), timed one
  // by one.
  void run_local_round() override {
    const ScopedSpan round("fed.local_round");
    for (std::size_t t = 0; t < controller_.config().steps_per_round; ++t) {
      ScopedSpan step("core.step");
      const std::size_t updates = controller_.agent().update_count();
      controller_.step();
      if (controller_.agent().update_count() != updates)
        step.rename("core.train_step");
    }
  }
  std::size_t local_sample_count() const override {
    return controller_.local_sample_count();
  }

 private:
  core::PowerController& controller_;
  std::vector<double>* upload_;
  LinkLog* link_;
};

class TimedTransport final : public fed::Transport {
 public:
  TimedTransport(fed::Transport& inner, LinkLog* link)
      : inner_(inner), link_(link) {}
  std::vector<std::uint8_t> transfer(
      fed::Direction direction, std::vector<std::uint8_t> payload) override {
    if (direction == fed::Direction::kDownlink) link_->pending_ns = now_ns();
    std::vector<std::uint8_t> delivered;
    {
      const ScopedSpan span("fed.transfer");
      delivered = inner_.transfer(direction, std::move(payload));
    }
    if (direction == fed::Direction::kUplink)
      link_->uplink_us.push_back(
          seconds_between(link_->pending_ns, now_ns()) * 1e6);
    return delivered;
  }
  const fed::TrafficStats& stats() const noexcept override {
    return inner_.stats();
  }
  double cumulative_latency_s() const noexcept override {
    return inner_.cumulative_latency_s();
  }

 private:
  fed::Transport& inner_;
  LinkLog* link_;
};

// --- one scenario, run either way ----------------------------------------

struct Completion {
  bool all_completed = true;
  std::vector<double> power_w;
};

/// Table III: every SPLASH-2 app to completion under the final policy.
Completion completion_eval(const core::ExperimentConfig& config,
                           const std::vector<double>& global,
                           const std::vector<sim::AppProfile>& apps) {
  const ScopedSpan span("core.completion");
  core::EvalConfig eval;
  eval.processor = config.processor;
  const core::Evaluator evaluator(config.controller, eval);
  const core::PolicyFn policy = timed_policy(evaluator.neural_policy(global));
  Completion out;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const core::EvalResult r =
        evaluator.run_to_completion(policy, apps[i], mix_seed(config.seed, i, 0));
    out.all_completed = out.all_completed && r.completed;
    out.power_w.push_back(r.mean_power_w);
  }
  return out;
}

struct ScenarioRun {
  std::vector<double> final_global;
  std::vector<double> fleet_reward;  ///< per-round evaluation reward
  std::uint64_t rounds = 0;
  std::uint64_t aborted = 0;
  std::uint64_t updates = 0;         ///< composed runs only
  std::uint64_t traffic_bytes = 0;   ///< composed runs only
  std::vector<double> snapshot_bytes;
  LinkLog link;                      ///< composed runs only
  bool means_ok = true;              ///< composed runs only
  std::optional<Completion> completion;
};

ScenarioRun run_api(const Spec& spec, const core::ExperimentConfig& config,
                    const Scenario& scenario) {
  core::FederatedRunResult result = core::run_federated(
      config, scenario.device_apps, spec.eval_apps, spec.eval_each_round);
  ScenarioRun out;
  out.final_global = std::move(result.global_params);
  out.fleet_reward = std::move(result.fleet.reward);
  out.rounds = config.rounds;
  out.aborted = result.robustness.aborted_rounds;
  if (spec.completion_eval)
    out.completion = completion_eval(config, out.final_global, spec.eval_apps);
  return out;
}

constexpr ckpt::Tag kSnapshotTag{'P', 'B', 'N', 'C'};

/// The same federation run_federated builds, from the program's parts,
/// with every layer call wrapped in a span. Round ids continue from
/// *round_id.
ScenarioRun run_composed(const Spec& spec, const core::ExperimentConfig& config,
                         const Scenario& scenario, std::uint32_t* round_id) {
  ScenarioRun out;
  util::Rng root(config.seed);
  std::vector<runtime::DeviceHardware> hardware =
      runtime::make_hardware(config.processor, scenario.device_apps, root);
  const std::size_t n = hardware.size();
  std::vector<std::unique_ptr<TimedDevice>> devices;
  std::vector<std::unique_ptr<core::PowerController>> controllers;
  std::vector<std::vector<double>> uploads(n);
  std::vector<std::unique_ptr<TimedClient>> clients;
  std::vector<fed::FederatedClient*> client_ptrs;
  for (std::size_t d = 0; d < n; ++d) {
    devices.push_back(std::make_unique<TimedDevice>(*hardware[d].processor));
    controllers.push_back(std::make_unique<core::PowerController>(
        config.controller, devices[d].get(), hardware[d].brain_rng));
    clients.push_back(
        std::make_unique<TimedClient>(*controllers[d], &uploads[d], &out.link));
    client_ptrs.push_back(clients.back().get());
  }

  runtime::ThreadPool pool(kComposedPoolWidth);
  const auto region = [&](const char* name, std::size_t count,
                          const std::function<void(std::size_t)>& body) {
    const ScopedSpan span(name, static_cast<std::uint32_t>(kComposedPoolWidth));
    pool.parallel_for(0, count, body);
  };
  const util::ParallelFor train_executor =
      [&](std::size_t count, const std::function<void(std::size_t)>& body) {
        region("runtime.train", count, body);
      };

  fed::InProcessTransport link;
  TimedTransport wire(link, &out.link);
  std::optional<fed::FederatedAveraging> sync_server;
  std::optional<serve::ServeFederation> serve_server;
  if (config.serve.enabled) {
    serve::ServeConfig serve_config;
    serve_config.workers = config.serve.workers;
    serve_config.queue_depth = config.serve.queue_depth;
    serve_config.batch_max = config.serve.batch_max;
    serve_config.mode = config.serve.deterministic
                            ? serve::CommitMode::kDeterministic
                            : serve::CommitMode::kThroughput;
    serve_config.aggregation = config.aggregation;
    serve_config.mixing_rate = config.serve.mixing_rate;
    serve_config.staleness_power = config.serve.staleness_power;
    serve_server.emplace(client_ptrs, &wire, serve_config);
    serve_server->set_local_executor(train_executor);
    serve_server->set_sampling(config.sampling);
    serve_server->set_quorum(config.quorum);
    serve_server->initialize(controllers[0]->local_parameters());
  } else {
    sync_server.emplace(client_ptrs, &wire, config.aggregation);
    sync_server->set_local_executor(train_executor);
    sync_server->enable_defense(config.defense);
    sync_server->set_sampling(config.sampling);
    sync_server->set_quorum(config.quorum);
    sync_server->initialize(controllers[0]->local_parameters());
  }
  const auto global_model = [&]() -> const std::vector<double>& {
    return serve_server ? serve_server->global_model()
                        : sync_server->global_model();
  };

  // The evaluator run_federated builds: nominal silicon, the controller's
  // DVFS interval.
  core::EvalConfig eval = config.eval;
  eval.processor = config.processor;
  eval.processor.power.variation = 1.0;
  eval.dvfs_interval_s = config.controller.dvfs_interval_s;
  const core::Evaluator evaluator(config.controller, eval);

  std::optional<ckpt::SnapshotRotation> rotation;
  if (config.checkpoint.every_rounds > 0)
    rotation.emplace(config.checkpoint.dir, config.checkpoint.keep);

  for (std::size_t round = 0; round < config.rounds; ++round) {
    tracer::set_round((*round_id)++);
    {
      const ScopedSpan frame("bench.round");
      for (;;) {
        try {
          const ScopedSpan span("fed.round");
          if (serve_server)
            serve_server->run_round();
          else
            sync_server->run_round();
          break;
        } catch (const fed::QuorumError&) {
          if (++out.aborted >= 64) throw;
        }
      }
      if (spec.eval_each_round) {
        const sim::AppProfile& app = spec.eval_apps[round % spec.eval_apps.size()];
        std::vector<core::EvalResult> evals(n);
        region("runtime.eval", n, [&](std::size_t d) {
          const ScopedSpan span("core.eval");
          const core::PolicyFn policy =
              timed_policy(evaluator.neural_policy(global_model()));
          evals[d] = evaluator.run_episode(policy, app,
                                           mix_seed(config.seed, round, d));
        });
        util::RunningStats reward;
        for (const core::EvalResult& e : evals) reward.add(e.mean_reward);
        out.fleet_reward.push_back(reward.mean());
      }
      if (rotation && (round + 1) % config.checkpoint.every_rounds == 0) {
        const ScopedSpan span("ckpt.snapshot");
        ckpt::Writer state;
        ckpt::write_tag(state, kSnapshotTag);
        state.u64(round + 1);
        for (std::size_t d = 0; d < n; ++d) {
          hardware[d].processor->save_state(state);
          controllers[d]->save_state(state);
        }
        if (serve_server)
          serve_server->save_state(state);
        else
          sync_server->save_state(state);
        rotation->save(state.data());
        out.snapshot_bytes.push_back(static_cast<double>(state.data().size()));
      }
    }
    out.means_ok = out.means_ok && matches_mean_of_uploads(global_model(), uploads);
  }
  out.final_global = global_model();
  out.rounds = config.rounds;
  for (const auto& controller : controllers)
    out.updates += controller->agent().update_count();
  out.traffic_bytes = link.stats().total_bytes();
  if (spec.completion_eval) {
    const ScopedSpan frame("bench.final");
    out.completion = completion_eval(config, out.final_global, spec.eval_apps);
  }
  return out;
}

// --- passes ---------------------------------------------------------------

struct Pass {
  std::vector<ScenarioRun> scenarios;
  double wall_s = 0.0;
  /// CPU time of the whole process over the pass, every thread's.
  double cpu_s = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t aborted = 0;
};

Pass run_pass(const Spec& spec, bool composed, const char* dir_suffix,
              std::uint32_t* round_id) {
  if (!spec.snapshot_root.empty())
    for (std::size_t s = 0; s < spec.scenarios.size(); ++s)
      std::filesystem::remove_all(spec.scenario_config(s, dir_suffix).checkpoint.dir);
  Pass pass;
  const std::uint64_t start = now_ns();
  const std::uint64_t cpu_start = cpu_ns();
  for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
    const core::ExperimentConfig config = spec.scenario_config(s, dir_suffix);
    pass.scenarios.push_back(
        composed ? run_composed(spec, config, spec.scenarios[s], round_id)
                 : run_api(spec, config, spec.scenarios[s]));
  }
  pass.wall_s = seconds_between(start, now_ns());
  pass.cpu_s = seconds_between(cpu_start, cpu_ns());
  for (const ScenarioRun& r : pass.scenarios) {
    pass.rounds += r.rounds;
    pass.aborted += r.aborted;
  }
  return pass;
}

/// The checks every pass must pass against the reference pass.
void check_pass(const Spec& spec, const Pass& reference, const Pass& pass,
                bool composed, Outcome& out) {
  for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
    const ScenarioRun& ref = reference.scenarios[s];
    const ScenarioRun& run = pass.scenarios[s];
    const std::string where = spec.scenarios[s].name + ": ";
    out.check(same_bits(run.final_global, ref.final_global),
              where + "final global model differs from run_federated's");
    out.check(same_bits(run.fleet_reward, ref.fleet_reward),
              where + "evaluation rewards differ from run_federated's");
    if (!composed) continue;
    out.check(run.means_ok,
              where + "a committed model is not the mean of its uploads");
    const core::ControllerConfig& c = spec.config.controller;
    const std::uint64_t expected_updates =
        spec.scenarios[s].device_apps.size() * run.rounds *
        c.steps_per_round / c.agent.optimize_interval;
    out.check(run.updates == expected_updates,
              where + "rl updates != devices x rounds x T / H");
  }
}

/// Completion runs finish, and their mean power over every app and
/// scenario stays below P_crit.
void check_completion(const Spec& spec, const Pass& pass, Outcome& out) {
  if (!spec.completion_eval) return;
  double power_sum = 0.0;
  std::size_t runs = 0;
  for (const ScenarioRun& r : pass.scenarios) {
    out.check(r.completion && r.completion->all_completed,
              "a Table III completion run hit its timeout");
    if (!r.completion) continue;
    for (const double p : r.completion->power_w) power_sum += p;
    runs += r.completion->power_w.size();
  }
  const double mean_w = runs > 0 ? power_sum / static_cast<double>(runs) : 0.0;
  out.notes.push_back("Table III mean power " + std::to_string(mean_w) +
                      " W over " + std::to_string(runs) +
                      " completion runs (P_crit " +
                      std::to_string(spec.config.controller.p_crit_w) + " W)");
  out.check(runs > 0 && mean_w < spec.config.controller.p_crit_w,
            "Table III mean power is not below P_crit");
}

/// Mean greedy evaluation reward of the run's global policy: the
/// per-round curve where the workload evaluates every round, else the
/// final global policy on every SPLASH-2 app.
double eval_reward(const Spec& spec, const Pass& reference) {
  util::RunningStats reward;
  for (const ScenarioRun& r : reference.scenarios) {
    if (spec.eval_each_round) {
      reward.add(util::mean(r.fleet_reward));
      continue;
    }
    core::EvalConfig eval = spec.config.eval;
    eval.processor = spec.config.processor;
    eval.processor.power.variation = 1.0;
    const core::Evaluator evaluator(spec.config.controller, eval);
    const core::PolicyFn policy = evaluator.neural_policy(r.final_global);
    for (std::size_t i = 0; i < spec.eval_apps.size(); ++i)
      reward.add(evaluator
                     .run_episode(policy, spec.eval_apps[i],
                                  mix_seed(spec.config.seed, i, 1))
                     .mean_reward);
  }
  return reward.mean();
}

/// Resumes each scenario from its second-newest snapshot (round 90; the
/// newest is the final round) and checks the final model bit for bit.
void check_resume(const Spec& spec, const Pass& reference, Outcome& out) {
  if (spec.snapshot_root.empty()) return;
  for (std::size_t s = 0; s < spec.scenarios.size(); ++s) {
    const core::ExperimentConfig config = spec.scenario_config(s);
    const ckpt::SnapshotRotation rotation(config.checkpoint.dir,
                                          config.checkpoint.keep);
    const std::vector<std::uint64_t> seqs = rotation.sequences();
    const bool have = seqs.size() >= 2;
    out.check(have, spec.scenarios[s].name + ": fewer than two snapshots");
    if (!have) continue;
    out.check(resume_reproduces(config, spec.scenarios[s].device_apps,
                                spec.eval_apps, spec.eval_each_round,
                                rotation.path_for(seqs[seqs.size() - 2]),
                                reference.scenarios[s].final_global),
              spec.scenarios[s].name +
                  ": resuming from a snapshot did not reproduce the model");
  }
}

std::string join(const std::vector<double>& values) {
  std::string out;
  for (const double v : values) {
    out += ' ';
    out += std::to_string(v);
  }
  return out;
}

// --- trace analysis -------------------------------------------------------

double p50_of(const TraceReport& report, const char* name) {
  const auto it = report.durations_us.find(name);
  return it == report.durations_us.end() ? 0.0 : median(it->second);
}

void add_trace_metrics(const std::vector<Span>& spans,
                       const TraceReport& report, const Pass& one_pass,
                       double traced_rounds_per_s, Outcome& out) {
  // Round self time: fed.round minus the training phase it contains.
  std::unordered_map<std::uint64_t, double> train_us;
  double local_round_s = 0.0;
  double train_wall_s = 0.0;
  for (const Span& s : spans) {
    const std::string_view name(s.name);
    if (name == "runtime.train") {
      train_us[s.parent] += s.duration_us();
      train_wall_s += s.duration_us() * 1e-6;
    } else if (name == "fed.local_round") {
      local_round_s += s.duration_us() * 1e-6;
    }
  }
  std::vector<double> round_self_ms;
  for (const Span& s : spans)
    if (std::string_view(s.name) == "fed.round")
      round_self_ms.push_back((s.duration_us() - train_us[s.id]) * 1e-3);

  std::vector<double> all_steps;
  for (const char* name : {"core.step", "core.train_step"}) {
    const auto it = report.durations_us.find(name);
    if (it != report.durations_us.end())
      all_steps.insert(all_steps.end(), it->second.begin(), it->second.end());
  }
  std::vector<double> snapshot_bytes;
  std::uint64_t updates = 0;
  std::uint64_t traffic = 0;
  for (const ScenarioRun& r : one_pass.scenarios) {
    snapshot_bytes.insert(snapshot_bytes.end(), r.snapshot_bytes.begin(),
                          r.snapshot_bytes.end());
    updates += r.updates;
    traffic += r.traffic_bytes;
  }
  out.metric("core.step_us_p50", p50_of(report, "core.step"), "us");
  out.metric("core.train_step_us_p50", p50_of(report, "core.train_step"), "us");
  out.metric("core.step_us_p99", percentile(all_steps, 0.99), "us");
  out.metric("core.eval_us_p50", p50_of(report, "core.eval"), "us");
  out.metric("sim.interval_us_p50", p50_of(report, "sim.interval"), "us");
  out.metric("nn.greedy_us_p50", p50_of(report, "nn.greedy"), "us");
  out.metric("rl.updates", static_cast<double>(updates), "count");
  out.metric("runtime.parallel_efficiency",
             train_wall_s > 0.0
                 ? local_round_s /
                       (static_cast<double>(kComposedPoolWidth) * train_wall_s)
                 : 0.0,
             "ratio");
  out.metric("fed.local_round_ms_p50", p50_of(report, "fed.local_round") * 1e-3,
             "ms");
  out.metric("fed.round_self_ms_p50", median(round_self_ms), "ms");
  out.metric("fed.transfer_us_p50", p50_of(report, "fed.transfer"), "us");
  out.metric("fed.bytes_per_round",
             one_pass.rounds > 0 ? static_cast<double>(traffic) /
                                       static_cast<double>(one_pass.rounds)
                                 : 0.0,
             "bytes");
  out.metric("ckpt.snapshot_ms_p50", p50_of(report, "ckpt.snapshot") * 1e-3,
             "ms");
  out.metric("ckpt.snapshot_bytes", median(snapshot_bytes), "bytes");
  add_trace_summary(report, traced_rounds_per_s, out);
}

}  // namespace

Outcome run_in_process(const RunOptions& options) {
  const Spec spec = options.workload == "fleet_train"
                        ? fleet_train_spec(options.seed)
                        : paper_protocol_spec(options.seed, options.work_dir);
  Outcome out;
  std::uint32_t round_id = 0;
  const auto account = [&](const Pass& pass) {
    out.attempted += pass.rounds + pass.aborted;
    out.failed += pass.aborted;
  };
  const auto note_counts = [&] {
    out.notes.push_back("rounds attempted " + std::to_string(out.attempted) +
                        ", committed " +
                        std::to_string(out.attempted - out.failed) +
                        ", aborted under quorum " + std::to_string(out.failed));
  };

  if (!options.trace) {
    // Timed runs keep the shard worker and the composed passes' pool on
    // this thread's CPU; traced runs spread the pool over the host's CPUs
    // so runtime.parallel_efficiency times a real pool.
    pin_to_current_cpu();
    // Set-up: a zero-round run_federated call builds the fleet, the
    // server and the evaluator and returns.
    std::vector<double> setups;
    const auto time_setups = [&] {
      core::ExperimentConfig config = spec.scenario_config(0);
      config.rounds = 0;
      for (std::size_t k = 0; k < kSetupsPerPass; ++k) {
        const std::uint64_t start = now_ns();
        (void)core::run_federated(config, spec.scenarios[0].device_apps,
                                  spec.eval_apps, spec.eval_each_round);
        setups.push_back(seconds_between(start, now_ns()));
      }
    };
    // The first pass warms up and is the reference the others must match.
    const Pass reference = run_pass(spec, false, "", &round_id);
    account(reference);
    check_completion(spec, reference, out);
    check_resume(spec, reference, out);
    time_setups();
    // Rates per second of CPU time: the run is pinned to one CPU, so that
    // is the time its threads held the CPU. Wall time also counts the
    // snapshots' fsync waits on the host's disk, which moved paper_protocol
    // by a quarter of its median from run to run (README, "Noise").
    std::vector<double> rates;
    std::vector<double> wall_rates;
    std::vector<double> fetch_us;
    std::vector<double> uplink_us;
    const std::uint64_t start = now_ns();
    while (rates.size() < kComposedEvery ||
           seconds_between(start, now_ns()) < options.seconds) {
      const Pass pass = run_pass(spec, false, "", &round_id);
      account(pass);
      check_pass(spec, reference, pass, false, out);
      rates.push_back(static_cast<double>(pass.rounds) / pass.cpu_s);
      wall_rates.push_back(static_cast<double>(pass.rounds) / pass.wall_s);
      time_setups();
      if (rates.size() % kComposedEvery != 0) continue;
      const Pass composed = run_pass(spec, true, "-composed", &round_id);
      account(composed);
      check_pass(spec, reference, composed, true, out);
      for (const ScenarioRun& r : composed.scenarios) {
        fetch_us.insert(fetch_us.end(), r.link.fetch_us.begin(),
                        r.link.fetch_us.end());
        uplink_us.insert(uplink_us.end(), r.link.uplink_us.begin(),
                         r.link.uplink_us.end());
      }
    }

    out.notes.push_back("pass rounds per CPU second:" + join(rates));
    out.notes.push_back("pass rounds per wall second:" + join(wall_rates));
    out.metric("setup_s", median(setups), "s");
    out.metric("rounds_per_s", median(rates), "rounds/s");
    out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    const double reward = eval_reward(spec, reference);
    out.metric("eval_reward", reward, "reward");
    out.check(reward > 0.0, "eval_reward is not positive");
    out.metric("uplink_rtt_us_p50", median(uplink_us), "us");
    out.metric("fetch_rtt_us_p50", median(fetch_us), "us");
    note_counts();
    return out;
  }

  const Pass reference = run_pass(spec, false, "", &round_id);
  account(reference);
  // Composed passes alternate between recording spans (until the budget is
  // spent) and running the same code unrecorded, so the two rates on
  // standard error, taken side by side, give the tracing overhead.
  std::vector<double> traced_rates;
  std::vector<double> unrecorded_rates;
  std::optional<Pass> first_traced;
  tracer::clear();
  const std::uint64_t start = now_ns();
  while (traced_rates.empty() ||
         seconds_between(start, now_ns()) < options.seconds) {
    tracer::set_recording(traced_rates.size() <= unrecorded_rates.size() &&
                          tracer::recorded() < kSpanBudget);
    const bool traced = tracer::recording();
    Pass pass = run_pass(spec, true, "-composed", &round_id);
    account(pass);
    check_pass(spec, reference, pass, true, out);
    (traced ? traced_rates : unrecorded_rates)
        .push_back(static_cast<double>(pass.rounds) / pass.wall_s);
    if (!first_traced) first_traced = std::move(pass);
  }
  tracer::set_recording(false);
  out.notes.push_back("composed pass rounds/s, recorded:" + join(traced_rates) +
                      "; unrecorded:" + join(unrecorded_rates));
  const std::vector<Span> spans = tracer::collect();
  const TraceReport report = analyze(spans);
  out.check(options.trace_path.empty() ||
                write_chrome_trace(spans, options.trace_path),
            "could not write the trace file");
  add_trace_metrics(spans, report, *first_traced, median(traced_rates), out);
  note_counts();
  return out;
}

}  // namespace perfbench
