// serve_tcp: the sharded server behind the epoll front end on loopback,
// driven by four ServeClient connections from this one thread. Each round
// every client fetches the global model, adds its seeded per-client delta
// and uploads; this thread then commits through commit_then_begin. No
// training runs, so the wire framing, the epoll loop, the shard queues, the
// codec and commit-time aggregation do all of the work. All of the
// workload's threads share one CPU (see pin_to_current_cpu).

#include <exception>
#include <memory>

#include "checks.hpp"
#include "clock.hpp"
#include "core/evaluate.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "fed/codec.hpp"
#include "serve/client.hpp"
#include "serve/epoll_server.hpp"
#include "serve/server.hpp"
#include "sim/splash2.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace fedpower;

constexpr std::size_t kClients = 4;
/// Shard workers; with the loop thread and this driving thread the
/// workload runs four threads.
constexpr std::size_t kWorkers = 2;
/// Untraced runs time this many set-ups after the warm-up chunk and after
/// every kSetupEveryChunks timed chunks; setup_s is the median of all of
/// them, so it samples the host over the whole run like rounds_per_s does.
constexpr std::size_t kSetupsPerBatch = 4;
constexpr std::size_t kSetupEveryChunks = 8;
/// Rounds per chunk. The first chunk warms up and eval_reward reads the
/// model it commits; a run ends, and a traced run checks its span budget,
/// on chunk boundaries.
constexpr std::size_t kChunkRounds = 250;
/// rounds_per_s is the median over windows of this many rounds of the
/// window's rate. Loopback wakeups have a millisecond tail on a shared
/// host (p99 of an RTT is ~20x its p50), so any window longer than a round
/// mostly measures how often a stall lands in it.
constexpr std::size_t kWindowRounds = 1;
constexpr double kDeltaScale = 0.002;
constexpr std::size_t kSpanBudget = 400000;
/// Timings kept per figure (a uniform sample once a run outgrows it).
constexpr std::size_t kSamples = 50000;

/// Client c's seeded change to coordinate i in round r, uniform in
/// [-kDeltaScale, kDeltaScale].
double client_delta(std::uint64_t seed, std::uint64_t round,
                    std::uint64_t client, std::uint64_t i) {
  std::uint64_t s = seed ^ (round * 0x9e3779b97f4a7c15ULL) ^
                    ((client + 1) * 0xbf58476d1ce4e5b9ULL) ^
                    ((i + 1) * 0x94d049bb133111ebULL);
  const double u =
      static_cast<double>(util::splitmix64(s) >> 11) * 0x1.0p-53;  // [0, 1)
  return (2.0 * u - 1.0) * kDeltaScale;
}

core::ExperimentConfig pretrain_config(std::uint64_t seed) {
  core::ExperimentConfig config;
  config.rounds = 30;
  config.seed = seed;
  return config;
}

/// The starting global model: a Table I controller federated for 30
/// rounds on Table II scenario S1, so the model the serve stack carries is
/// a working DVFS policy and eval_reward shows whether it still is one.
std::vector<double> pretrained_model(std::uint64_t seed) {
  const core::Scenario s1 = core::table2_scenarios().front();
  return core::run_federated(pretrain_config(seed), core::resolve(s1),
                             sim::splash2_suite(), false)
      .global_params;
}

/// Server, front end and connected clients. Members are destroyed in
/// reverse order: clients disconnect, the front end stops its loop, then
/// the server joins its shard workers.
struct Rig {
  std::unique_ptr<serve::ShardedServer> server;
  std::unique_ptr<serve::EpollFrontEnd> front;
  std::vector<std::unique_ptr<serve::ServeClient>> clients;

  explicit Rig(const std::vector<double>& initial) {
    serve::ServeConfig config;
    config.workers = kWorkers;
    config.mode = serve::CommitMode::kDeterministic;
    server = std::make_unique<serve::ShardedServer>(kClients, config);
    server->initialize(initial);
    front = std::make_unique<serve::EpollFrontEnd>(server.get());
    for (std::size_t c = 0; c < kClients; ++c) {
      serve::ServeClientConfig client;
      client.port = front->port();
      client.client_id = static_cast<std::uint32_t>(c);
      clients.push_back(std::make_unique<serve::ServeClient>(client));
      (void)clients.back()->resume();  // connect + resume handshake
    }
  }
};

/// Greedy reward of a model as the DVFS policy, over every SPLASH-2 app.
double policy_reward(const std::vector<double>& model, std::uint64_t seed) {
  const core::ExperimentConfig config = pretrain_config(seed);
  core::EvalConfig eval = config.eval;
  eval.processor = config.processor;
  eval.processor.power.variation = 1.0;
  const core::Evaluator evaluator(config.controller, eval);
  const core::PolicyFn policy = evaluator.neural_policy(model);
  const std::vector<sim::AppProfile> apps = sim::splash2_suite();
  util::RunningStats reward;
  for (std::size_t i = 0; i < apps.size(); ++i)
    reward.add(evaluator.run_episode(policy, apps[i], seed + i).mean_reward);
  return reward.mean();
}

}  // namespace

Outcome run_serve_tcp(const RunOptions& options) {
  pin_to_current_cpu();
  Outcome out;
  const std::vector<double> initial = pretrained_model(options.seed);
  const fed::ModelCodec& codec = fed::Float32Codec::instance();
  std::vector<std::size_t> everyone(kClients);
  for (std::size_t c = 0; c < kClients; ++c) everyone[c] = c;

  std::vector<double> setups;
  const auto time_setups = [&] {
    for (std::size_t k = 0; k < kSetupsPerBatch; ++k) {
      const std::uint64_t start = now_ns();
      const Rig rig(initial);
      setups.push_back(seconds_between(start, now_ns()));
    }
  };

  Rig rig(initial);
  rig.front->begin_round(everyone);
  tracer::clear();
  tracer::set_recording(options.trace);

  Reservoir fetch_us(kSamples, options.seed + 1);
  Reservoir upload_us(kSamples, options.seed + 2);
  Reservoir codec_us(kSamples, options.seed + 3);
  Reservoir commit_us(kSamples, options.seed + 4);
  Reservoir rates(kSamples, options.seed + 5);
  std::vector<double> chunk_model;  // committed by the first chunk
  // Round r's uploads as decoded float32 values; the model fetched in
  // round r + 1 must be their mean.
  std::vector<std::vector<double>> previous(kClients);
  std::vector<double> expected_first = float32_rounded(initial);
  std::vector<double> chunk_rates;
  std::uint64_t window_start = now_ns();
  std::uint64_t timed_start = 0;
  bool chunk_traced = options.trace;
  for (std::uint64_t r = 0;; ++r) {
    const bool timed = r >= kChunkRounds;
    if (r > 0 && r % kChunkRounds == 0) {
      const std::uint64_t t = now_ns();
      // A traced run's rate counts only chunks that recorded spans.
      if (r > kChunkRounds && (!options.trace || chunk_traced))
        for (const double rate : chunk_rates) rates.add(rate);
      chunk_rates.clear();
      if (r == kChunkRounds) timed_start = t;
      if (options.trace)
        tracer::set_recording(tracer::recorded() < kSpanBudget);
      chunk_traced = tracer::recording();
      if (r > kChunkRounds && !rates.samples().empty() &&
          seconds_between(timed_start, t) >= options.seconds)
        break;
      if (!options.trace && (r / kChunkRounds - 1) % kSetupEveryChunks == 0) {
        time_setups();
        window_start = now_ns();  // the set-ups are not part of a round
      }
    }
    tracer::set_round(static_cast<std::uint32_t>(r));
    std::vector<std::vector<double>> uploads(kClients);
    std::vector<std::size_t> acked;
    std::vector<double> fetched_first;
    try {
      const ScopedSpan frame("bench.round");
      for (std::size_t c = 0; c < kClients; ++c) {
        serve::ServeClient& client = *rig.clients[c];
        ++out.attempted;
        serve::FetchResult fetched;
        {
          const ScopedSpan span("serve.fetch");
          const std::uint64_t t0 = now_ns();
          fetched = client.fetch();
          if (timed) fetch_us.add(seconds_between(t0, now_ns()) * 1e6);
        }
        out.check(fetched.version == r, "a fetch returned a stale version");
        std::uint64_t t0 = now_ns();
        std::vector<double> model;
        {
          const ScopedSpan span("serve.codec");
          model = codec.decode(fetched.model);
        }
        double codec_s = seconds_between(t0, now_ns());
        if (c == 0) fetched_first = model;
        out.check(same_bits(model, fetched_first),
                  "clients fetched different models in one round");
        for (std::size_t i = 0; i < model.size(); ++i)
          model[i] += client_delta(options.seed, r, c, i);
        std::vector<std::uint8_t> payload;
        t0 = now_ns();
        {
          const ScopedSpan span("serve.codec");
          payload = codec.encode(model);
        }
        codec_s += seconds_between(t0, now_ns());
        if (timed) codec_us.add(codec_s * 1e6);
        uploads[c] = std::move(model);
        ++out.attempted;
        bool ok = false;
        {
          const ScopedSpan span("serve.upload");
          t0 = now_ns();
          ok = client.upload(r, 1, payload);
          if (timed) upload_us.add(seconds_between(t0, now_ns()) * 1e6);
        }
        if (ok)
          acked.push_back(c);
        else
          ++out.failed;
      }
      // Every upload was acknowledged, and the front end acknowledges
      // only after submitting to the shards, so the commit (which drains
      // them) sees all four: no need to wait on round_distinct().
      {
        const ScopedSpan span("serve.commit");
        const std::uint64_t t0 = now_ns();
        (void)rig.front->commit_then_begin(kClients, everyone);
        if (timed) commit_us.add(seconds_between(t0, now_ns()) * 1e6);
      }
    } catch (const std::exception& error) {
      out.check(false, std::string("serve round failed: ") + error.what());
      ++out.failed;
      break;
    }
    out.check(each_acked_once(kClients, acked),
              "an uplink was not acknowledged exactly once");
    out.check(r == 0 ? same_bits(fetched_first, expected_first)
                     : matches_mean_of_uploads(fetched_first, previous),
              "a fetched model is not the mean of the previous uploads");
    if (r == kChunkRounds) chunk_model = fetched_first;
    if ((r + 1) % kWindowRounds == 0) {
      const std::uint64_t t = now_ns();
      chunk_rates.push_back(static_cast<double>(kWindowRounds) /
                            seconds_between(window_start, t));
      window_start = t;
    }
    previous = std::move(uploads);
  }
  tracer::set_recording(false);

  std::size_t reconnects = 0;
  std::size_t retries = 0;
  for (const auto& client : rig.clients) {
    reconnects += client->reconnects();
    retries += client->retries();
  }
  const std::size_t protocol_errors = rig.front->protocol_errors();
  rig.front->stop();
  rig.server->drain();
  const serve::ServeStats stats = rig.server->stats();
  out.notes.push_back(
      "fetches and uplinks attempted " + std::to_string(out.attempted) +
      ", fetched or acked " + std::to_string(out.attempted - out.failed) +
      ", reconnects " + std::to_string(reconnects) + ", retries " +
      std::to_string(retries) + ", protocol errors " +
      std::to_string(protocol_errors) + ", duplicates " +
      std::to_string(stats.duplicates));
  out.check(reconnects == 0 && retries == 0, "a client reconnected or retried");
  out.check(protocol_errors == 0, "the front end saw a protocol error");
  out.check(stats.duplicates == 0, "the server saw a duplicate uplink");
  out.check(!chunk_model.empty(), "the run ended inside its first chunk");

  out.notes.push_back(
      "rounds/s p25/p50/p75 over " + std::to_string(rates.samples().size()) +
      " windows: " + std::to_string(percentile(rates.samples(), 0.25)) + " " +
      std::to_string(median(rates.samples())) + " " + std::to_string(percentile(rates.samples(), 0.75)));
  if (!options.trace) {
    out.metric("setup_s", median(setups), "s");
    out.metric("rounds_per_s", median(rates.samples()), "rounds/s");
    out.metric("peak_rss_mib", peak_rss_mib(), "MiB");
    const double reward =
        chunk_model.empty() ? 0.0 : policy_reward(chunk_model, options.seed);
    out.check(reward > 0.0, "eval_reward is not positive");
    out.metric("eval_reward", reward, "reward");
    out.metric("uplink_rtt_us_p50", median(upload_us.samples()), "us");
    out.metric("fetch_rtt_us_p50", median(fetch_us.samples()), "us");
    return out;
  }

  const std::vector<Span> spans = tracer::collect();
  const TraceReport report = analyze(spans);
  out.check(options.trace_path.empty() ||
                write_chrome_trace(spans, options.trace_path),
            "could not write the trace file");
  out.metric("fed.bytes_per_round",
             static_cast<double>(kClients * (2 * codec.payload_size(initial.size()))),
             "bytes");
  out.metric("serve.commit_us_p50", median(commit_us.samples()), "us");
  out.metric("serve.codec_us_p50", median(codec_us.samples()), "us");
  out.metric("serve.upload_us_p99", percentile(upload_us.samples(), 0.99), "us");
  out.metric("serve.fetch_us_p99", percentile(fetch_us.samples(), 0.99), "us");
  out.metric("serve.deferred", static_cast<double>(stats.deferred), "count");
  add_trace_summary(report, median(rates.samples()), out);
  return out;
}

}  // namespace perfbench
