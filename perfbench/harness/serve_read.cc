// serve_read: read-only open-loop node queries against the serving daemon
// over its Unix socket, first on the distilled-MLP checkpoint, then on the
// RDD-ensemble checkpoint, both trained on Cora-like data during set-up.

#include <memory>
#include <string>
#include <vector>

#include <sched.h>

#include "core/distill.h"
#include "data/checkpoint.h"
#include "data/citation_gen.h"
#include "data/serialize.h"
#include "harness/common.h"
#include "harness/loadgen.h"
#include "harness/trace.h"
#include "serve/daemon.h"
#include "serve/predictor.h"
#include "tensor/ops.h"

namespace perfbench {

namespace {

// A ladder rung lasts at least half a second, so one short stall of the
// host cannot fail it alone.
constexpr double kMinRungSeconds = 0.5;
// The reference rung, whose latency is reported, lasts at least 3 s: the
// host's fast and slow stretches last about a second, and a half-second
// window caught one or the other.
constexpr double kReferenceSeconds = 3.0;
constexpr int kRungsPerDoubling = 8;
// Load-generator connections, one sending thread each. Two keep the
// ensemble path (serialized per generation) busy; more only add scheduling
// noise on a four-core host.
constexpr size_t kConnections = 2;

// One serving path under test.
struct Phase {
  const char* name;         // "mlp" or "ensemble"
  std::string checkpoint;
  double unit_scale;        // ms -> reported latency unit
  const char* unit;
  double reference_rate;    // rps at which latency is reported
  double limit_ms;          // tail-latency limit of the max-rate search
  double ladder_top;        // highest rung, >= 10x the parent's capacity
  int64_t rung_requests;    // at least this many requests per rung
  std::vector<int64_t> expected;  // in-process Predictor label per node
};

// Median round trip of `count` pool requests sent one after another on one
// connection; each answer must match `expected`.
double RoundTripMedianUs(rdd::DaemonClient* client,
                         const std::vector<std::vector<int64_t>>& pool,
                         size_t count, const std::vector<int64_t>& expected,
                         WorkloadResult* result) {
  std::vector<double> us;
  for (size_t i = 0; i < count; ++i) {
    const auto& nodes = pool[i % pool.size()];
    const double start = NowSeconds();
    auto labels = client->PredictLabels(nodes);
    us.push_back((NowSeconds() - start) * 1e6);
    result->tally.Add(labels.ok() && SameLabels(expected, nodes, *labels));
  }
  return Median(us);
}

// Serving runs on one CPU: the daemon, its connections and the load
// generator share it. On a virtual machine a request handed from one CPU to
// another waits for the other CPU to wake, and that wait swung the MLP
// median from 45 to 230 us between runs; on one CPU the hand-off is a
// context switch. Threads started later inherit the pin, and it lasts for
// the rest of the process.
void PinToCurrentCpu() {
  const int cpu = ::sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof(set), &set);
}

struct Served {
  std::unique_ptr<rdd::Daemon> daemon;
  std::vector<rdd::DaemonClient> clients;
  uint64_t generation = 1;
};

class PhaseRunner {
 public:
  PhaseRunner(Served* served, const std::vector<std::vector<int64_t>>* pool,
              WorkloadResult* result)
      : served_(served), pool_(pool), result_(result) {}

  // Sends one open-loop step; returns its judged outcomes.
  Judged Step(const Phase& phase, double rate, int64_t count) {
    OpenLoopPlan plan{rate, count, next_request_};
    next_request_ += count;
    const Judged judged = Judge(RunOpenLoop(
        &served_->clients, *pool_, plan,
        [&](const Outcome& o, const std::vector<int64_t>& labels) {
          return SameLabels(phase.expected,
                            (*pool_)[static_cast<size_t>(o.request)], labels);
        }));
    result_->tally.Merge(judged.tally);
    return judged;
  }

  // A rung passes with no failure, its supported tail within the limit, and
  // no backlog: the last tenth of its requests also within the limit.
  bool Passes(const Phase& phase, const Judged& judged) const {
    if (judged.tally.failed > 0) return false;
    if (Summarize(judged.latency_ms).tail.value > phase.limit_ms) return false;
    const size_t n = judged.latency_ms.size();
    const std::vector<double> last(judged.latency_ms.begin() + (n - n / 10),
                                   judged.latency_ms.end());
    return Median(last) <= phase.limit_ms;
  }

  void Run(const Phase& phase) {
    Report& report = result_->report;
    const std::string prefix = phase.name;
    Step(phase, phase.reference_rate, 100);  // warm-up, not reported
    const std::vector<double> rungs =
        RateLadder(phase.reference_rate, phase.ladder_top, kRungsPerDoubling);
    LatencySummary reference;
    const SearchResult search = MaxRateSearch(
        static_cast<int>(rungs.size()), kRungsPerDoubling, [&](int rung) {
          const double rate = rungs[static_cast<size_t>(rung)];
          const int64_t count = std::max<int64_t>(
              phase.rung_requests,
              static_cast<int64_t>(
                  rate * (rung == 0 ? kReferenceSeconds : kMinRungSeconds)));
          const Judged judged = Step(phase, rate, count);
          // Rung 0 is the reference rate; its latency is the one reported.
          if (rung == 0) {
            reference = Summarize(judged.latency_ms);
            late_ms_.insert(late_ms_.end(), judged.late_ms.begin(),
                            judged.late_ms.end());
          }
          return Passes(phase, judged);
        });
    report.Set(prefix + "_p50_" + phase.unit, reference.p50 * phase.unit_scale,
               phase.unit);
    report.Set(prefix + "_p99_" + phase.unit,
               reference.tail.value * phase.unit_scale, phase.unit);
    report.Set(prefix + "_tail_pct", reference.tail.pct, "pct");
    report.Set(prefix + "_samples", static_cast<double>(reference.samples),
               "count");
    report.Set(prefix + "_max_rps",
               search.rung < 0 ? 0.0 : rungs[static_cast<size_t>(search.rung)],
               "1/s");
    report.Set(prefix + "_ladder_probes", search.probes, "count");
  }

  // How late the generator sent the reference rungs' requests.
  const std::vector<double>& late_ms() const { return late_ms_; }

 private:
  Served* served_;
  const std::vector<std::vector<int64_t>>* pool_;
  WorkloadResult* result_;
  int64_t next_request_ = 0;
  std::vector<double> late_ms_;
};

}  // namespace

void RunServeRead(const WorkloadOptions& options, WorkloadResult* result) {
  Report& report = result->report;
  const rdd::bench::BenchDataset bench = CoraBench(options.tiny);
  const rdd::RddConfig config =
      rdd::bench::MakeRddConfig(bench, options.tiny ? 2 : 5);
  const std::string dataset_path = options.work_dir + "/cora.rdd";
  const std::string mlp_path = options.work_dir + "/mlp.rddc";
  const std::string ensemble_path = options.work_dir + "/ensemble.rddc";

  // Inputs, made once: the data, the trained ensemble and its distilled MLP.
  // TrainRdd and DistillToMlp are timed here but gated in train_cora.
  rdd::Dataset dataset =
      rdd::GenerateCitationNetwork(bench.gen, rdd::bench::kDataSeed);
  rdd::GraphContext context = rdd::GraphContext::FromDataset(dataset);
  double start = NowSeconds();
  const rdd::RddResult trained = [&] {
    Span span("core.train_rdd", "core");
    return rdd::TrainRdd(dataset, context, config,
                         DeriveSeed(options.seed, 100));
  }();
  report.Set("train_s", NowSeconds() - start, "s");
  start = NowSeconds();
  const rdd::DistillResult distilled = [&] {
    Span span("core.distill", "core");
    return rdd::DistillToMlp(dataset, context, trained.teacher,
                             FixedEpochDistill(options.tiny ? 10 : 60),
                             DeriveSeed(options.seed, 101));
  }();
  report.Set("distill_s", NowSeconds() - start, "s");

  PinToCurrentCpu();

  // Set-up, repeated: generate the data, write both checkpoints and the
  // dataset, start a daemon serving the MLP and connect to it. The last
  // one is kept.
  Served served;
  std::vector<double> generate_s, context_ms, start_ms;
  report.Set(
      "setup_s", MedianSeconds(options.tiny ? 1 : kSetupRepeats, [&] {
        // The previous set-up's daemon is stopped only once this one is up:
        // Daemon::Stop right after Daemon::Start can miss the update
        // thread's wake-up and hang (the stop flag is set outside the mutex
        // its condition variable waits under).
        served.clients.clear();
        std::unique_ptr<rdd::Daemon> previous = std::move(served.daemon);
        double t0 = NowSeconds();
        {
          Span span("data.generate", "data");
          dataset = rdd::GenerateCitationNetwork(bench.gen,
                                                 rdd::bench::kDataSeed);
        }
        generate_s.push_back(NowSeconds() - t0);
        t0 = NowSeconds();
        {
          Span span("graph.context_build", "graph");
          context = rdd::GraphContext::FromDataset(dataset);
        }
        context_ms.push_back((NowSeconds() - t0) * 1e3);
        {
          Span span("data.save_checkpoint", "data");
          result->Check(
              rdd::SaveCheckpoint(rdd::CheckpointFromRdd(trained,
                                                         config.base_model,
                                                         "cora-ensemble"),
                                  ensemble_path)
                      .ok() &&
                  rdd::SaveCheckpoint(rdd::CheckpointFromDistilled(
                                          *distilled.student, "cora-mlp"),
                                      mlp_path)
                      .ok(),
              "SaveCheckpoint");
        }
        {
          Span span("data.save_dataset", "data");
          result->Check(rdd::SaveDataset(dataset, dataset_path).ok(),
                        "SaveDataset");
        }
        rdd::DaemonOptions daemon_options;
        daemon_options.socket_path = options.work_dir + "/serve" +
                                     std::to_string(start_ms.size()) + ".sock";
        daemon_options.checkpoint_path = mlp_path;
        daemon_options.dataset_path = dataset_path;
        const double started = NowSeconds();
        auto daemon = [&] {
          Span span("daemon.start", "serve");
          return rdd::Daemon::Start(daemon_options);
        }();
        start_ms.push_back((NowSeconds() - started) * 1e3);
        previous.reset();
        if (!daemon.ok()) return;
        served.daemon = std::move(*daemon);
        for (size_t c = 0; c < kConnections; ++c) {
          auto client = rdd::DaemonClient::Connect(daemon_options.socket_path);
          if (client.ok()) served.clients.push_back(std::move(*client));
        }
      }),
      "s");
  result->Check(served.daemon != nullptr &&
                    served.clients.size() == kConnections,
                "daemon started and accepted every connection");
  if (served.daemon == nullptr || served.clients.size() != kConnections) {
    return;
  }
  report.Set("data.generate_s", Median(generate_s), "s");
  report.Set("graph.context_build_ms", Median(context_ms), "ms");
  report.Set("daemon.start_ms", Median(start_ms), "ms");
  report.Set("ensemble_acc", trained.ensemble_test_accuracy, "ratio");
  report.Set("mlp_acc", distilled.student_test_accuracy, "ratio");

  const int64_t n = dataset.NumNodes();
  const std::vector<std::vector<int64_t>> pool =
      MakeRequestPool(n, 4096, DeriveSeed(options.seed, 3));

  // In-process Predictors on the same checkpoints: the reference answers
  // and the compute share of a request. The reference rates sit far below
  // capacity even when other tenants halve the host's speed (MLP about
  // 20,000 rps, ensemble about 75 rps then), so a slow host reads as
  // slower answers, not as a queue.
  Phase phases[2] = {
      {"mlp", mlp_path, 1e3, "us", 8000.0, 5.0, 128000.0, 1000, {}},
      {"ensemble", ensemble_path, 1.0, "ms", 30.0, 25.0, 6400.0, 200, {}},
  };
  std::vector<double> mlp_predict_us;
  const Counters before = ReadCounters();
  for (Phase& phase : phases) {
    const double start = NowSeconds();
    auto predictor = [&] {
      Span span("serve.load", "serve");
      return rdd::Predictor::FromCheckpoint(phase.checkpoint, context,
                                            {.batch_size = n});
    }();
    if (phase.name == std::string("ensemble")) {
      report.Set("serve.load_ms", (NowSeconds() - start) * 1e3, "ms");
    }
    result->Check(predictor.ok(), "in-process Predictor load");
    if (!predictor.ok()) return;
    auto labels = predictor->PredictLabels(AllNodes(n));
    result->Check(labels.ok(), "in-process PredictLabels");
    if (!labels.ok()) return;
    phase.expected = *labels;
    std::vector<double> us;
    for (size_t i = 0; i < (options.tiny ? 10u : 100u); ++i) {
      const double t0 = NowSeconds();
      Span span("serve.predict", "serve", static_cast<int64_t>(i));
      predictor->PredictProbs(pool[i]).ok();
      us.push_back((NowSeconds() - t0) * 1e6);
    }
    report.Set(std::string("serve.") + phase.name + "_predict_us", Median(us),
               "us");
    if (phase.name == std::string("mlp")) mlp_predict_us = us;
  }
  if (options.trace) ReportCounterDelta(before, ReadCounters(), &report);
  result->Check(
      phases[1].expected ==
          rdd::ArgmaxRows(trained.teacher.PredictProbs()),
      "ensemble checkpoint round trip predicts the in-memory teacher's labels");

  // Daemon overhead on the MLP path: the closed-loop round trip on one
  // connection minus the in-process compute.
  const double mlp_rtt_us = RoundTripMedianUs(
      &served.clients[0], pool, options.tiny ? 20 : 2000, phases[0].expected,
      result);
  report.Set("mlp_rtt_us", mlp_rtt_us, "us");
  report.Set("daemon.overhead_us", mlp_rtt_us - Median(mlp_predict_us), "us");

  PhaseRunner runner(&served, &pool, result);
  if (options.tiny) {
    for (Phase& phase : phases) {
      phase.reference_rate = 200.0;
      phase.ladder_top = 400.0;
      phase.rung_requests = 50;
    }
  }
  for (const Phase& phase : phases) {
    if (phase.checkpoint != mlp_path) {
      // Swap to this phase's checkpoint; the new generation must answer.
      const double start = NowSeconds();
      Span span("daemon.swap", "serve");
      const bool enqueued =
          served.clients[0].RequestSwap(phase.checkpoint, "").ok();
      const bool live =
          enqueued &&
          WaitForGeneration(&served.clients[0], ++served.generation, 30.0);
      report.Set("daemon.swap_ms", (NowSeconds() - start) * 1e3, "ms");
      auto first = served.clients[0].PredictLabels(AllNodes(n));
      result->tally.Add(live);
      result->Check(first.ok() && *first == phase.expected,
                    "the swapped-in generation answers");
      if (!live) return;
    }
    Span span(phase.name, "bench");
    runner.Run(phase);
  }
  report.Set("loadgen.late_ms", Summarize(runner.late_ms()).tail.value, "ms");
  report.Set("error_rate", result->tally.ErrorRate(), "ratio");
  served.clients.clear();
  served.daemon->Stop();

  report.Set("primary_ms", report.Get("ensemble_p50_ms"), "ms");
  report.Set("secondary_ms", report.Get("mlp_p50_us") * 1e-3, "ms");
}

}  // namespace perfbench
