// stream_update: writes beside reads. Deltas held out of a Pubmed-like graph
// arrive in a closed loop; each is applied, retrained incrementally, saved
// and hot-swapped into the daemon, and timed until the daemon's first
// answer from the new generation. A reader queries the daemon back to back
// (closed loop) meanwhile.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/checkpoint.h"
#include "data/citation_gen.h"
#include "data/serialize.h"
#include "graph/graph_view.h"
#include "harness/common.h"
#include "harness/loadgen.h"
#include "harness/trace.h"
#include "serve/daemon.h"
#include "serve/predictor.h"
#include "stream/graph_delta.h"
#include "stream/incremental_rdd.h"
#include "stream/streaming_graph.h"
#include "tensor/ops.h"

namespace perfbench {

namespace {

bool SameMatrix(const rdd::SparseMatrix& a, const rdd::SparseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         a.row_ptr() == b.row_ptr() && a.col_idx() == b.col_idx() &&
         a.values() == b.values();
}

bool SameContext(const rdd::GraphContext& a, const rdd::GraphContext& b) {
  return a.num_nodes == b.num_nodes && a.feature_dim == b.feature_dim &&
         a.num_classes == b.num_classes && SameMatrix(*a.features, *b.features) &&
         SameMatrix(*a.adj_norm, *b.adj_norm) &&
         SameMatrix(*a.adj_row, *b.adj_row);
}

// A generation the daemon may have served: its labels over the base nodes
// and the interval in which it could have answered.
struct Generation {
  std::vector<int64_t> labels;
  double enqueued_s;   // swap requested (or -inf for the initial load)
  double replaced_s;   // the next generation was seen live (or +inf)
};

// Labels the in-process Predictor gives on `checkpoint` over `context`, all
// nodes in one batch (answers do not depend on batching). `load_ms` gets
// the checkpoint load time.
bool PredictAll(const std::string& checkpoint, const rdd::GraphContext& context,
                std::vector<int64_t>* labels, double* load_ms) {
  const double start = NowSeconds();
  auto predictor = rdd::Predictor::FromCheckpoint(
      checkpoint, context, {.batch_size = std::max<int64_t>(1, context.num_nodes)});
  *load_ms = (NowSeconds() - start) * 1e3;
  if (!predictor.ok()) return false;
  auto predicted = predictor->PredictLabels(AllNodes(context.num_nodes));
  if (!predicted.ok()) return false;
  *labels = std::move(*predicted);
  return true;
}

// Closed-loop reader on its own thread, answers judged after the run.
class Reader {
 public:
  Reader(rdd::DaemonClient client, std::vector<std::vector<int64_t>> pool,
         int64_t max_reads)
      : pool_(std::move(pool)) {
    clients_.push_back(std::move(client));
    const OpenLoopPlan plan{0.0, max_reads, 0};
    answers_.resize(static_cast<size_t>(plan.count));
    thread_ = std::thread([this, plan] {
      outcomes_ = RunOpenLoop(
          &clients_, pool_, plan,
          [this](const Outcome& o, const std::vector<int64_t>& labels) {
            answers_[static_cast<size_t>(o.index)] = labels;
            return true;
          },
          &stop_);
    });
  }
  ~Reader() { Finish(); }
  Reader(const Reader&) = delete;
  Reader& operator=(const Reader&) = delete;

  /// Stops sending; returns the outcomes, judged later by the caller.
  std::vector<Outcome>& Finish() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    return outcomes_;
  }
  const std::vector<std::vector<int64_t>>& pool() const { return pool_; }
  const std::vector<int64_t>& answer(const Outcome& o) const {
    return answers_[static_cast<size_t>(o.index)];
  }

 private:
  std::vector<rdd::DaemonClient> clients_;
  std::vector<std::vector<int64_t>> pool_;
  std::atomic<bool> stop_{false};
  std::vector<Outcome> outcomes_;
  std::vector<std::vector<int64_t>> answers_;  // one slot per outcome
  std::thread thread_;
};

}  // namespace

void RunStreamUpdate(const WorkloadOptions& options, WorkloadResult* result) {
  Report& report = result->report;
  const rdd::bench::BenchDataset bench = PubmedBench(options.tiny);
  rdd::RddConfig config = rdd::bench::MakeRddConfig(bench, 2);
  if (options.tiny) config.train.max_epochs = 20;
  const rdd::stream::IncrementalConfig incremental;
  std::string socket;
  // 1.5 deltas per second of --seconds, whatever the host's speed, so the
  // final graph and model depend on the seed alone.
  const int num_deltas =
      std::max(3, static_cast<int>(std::lround(1.5 * options.seconds)));

  rdd::stream::ReplayStream replay;
  std::unique_ptr<rdd::stream::StreamingGraph> stream;
  rdd::RddResult current;
  std::unique_ptr<rdd::Daemon> daemon;
  std::vector<double> generate_s, context_ms, start_ms;
  // The graph side of the set-up: generate, split into a base snapshot and
  // deltas, and build the streaming graph over the base.
  auto build_stream = [&] {
    double start = NowSeconds();
    rdd::Dataset full = [&] {
      Span span("data.generate", "data");
      return rdd::GenerateCitationNetwork(bench.gen, rdd::bench::kDataSeed);
    }();
    generate_s.push_back(NowSeconds() - start);
    rdd::stream::StreamSplitOptions split;
    split.edge_holdout = 0.05;
    split.node_holdout = 0.02;
    split.num_deltas = num_deltas;
    replay = rdd::stream::SplitIntoStream(full, split,
                                          DeriveSeed(options.seed, 2));
    start = NowSeconds();
    {
      Span span("graph.context_build", "graph");
      stream = std::make_unique<rdd::stream::StreamingGraph>(replay.base);
    }
    context_ms.push_back((NowSeconds() - start) * 1e3);
  };

  // The base model, trained once; TrainRdd is gated in train_cora. Kernel
  // counts cover this training alone: the reads that run beside the deltas
  // make any later count depend on timing.
  build_stream();
  const Counters before = ReadCounters();
  const double train_start = NowSeconds();
  {
    Span span("core.train_rdd", "core");
    current = rdd::TrainRdd(stream->dataset(), stream->context(), config,
                            DeriveSeed(options.seed, 100));
  }
  report.Set("train_s", NowSeconds() - train_start, "s");
  const Counters after = ReadCounters();

  // Set-up, repeated: the graph side again, the base checkpoint and dataset
  // on disk, and a daemon serving them. The last one is kept.
  report.Set(
      "setup_s", MedianSeconds(options.tiny ? 1 : kSetupRepeats, [&] {
        // The previous set-up's daemon is stopped only once this one is up:
        // Daemon::Stop right after Daemon::Start can miss the update
        // thread's wake-up and hang (the stop flag is set outside the mutex
        // its condition variable waits under).
        std::unique_ptr<rdd::Daemon> previous = std::move(daemon);
        build_stream();
        socket = options.work_dir + "/stream" +
                 std::to_string(start_ms.size()) + ".sock";
        rdd::DaemonOptions daemon_options;
        daemon_options.socket_path = socket;
        daemon_options.checkpoint_path = options.work_dir + "/gen0.rddc";
        daemon_options.dataset_path = options.work_dir + "/gen0.rdd";
        result->Check(
            rdd::SaveCheckpoint(
                rdd::CheckpointFromRdd(current, config.base_model, "base"),
                daemon_options.checkpoint_path)
                    .ok() &&
                rdd::SaveDataset(stream->dataset(), daemon_options.dataset_path)
                    .ok(),
            "save the base checkpoint and dataset");
        const double start = NowSeconds();
        auto started = [&] {
          Span span("daemon.start", "serve");
          return rdd::Daemon::Start(daemon_options);
        }();
        start_ms.push_back((NowSeconds() - start) * 1e3);
        previous.reset();
        if (started.ok()) daemon = std::move(*started);
      }),
      "s");
  report.Set("data.generate_s", Median(generate_s), "s");
  report.Set("graph.context_build_ms", Median(context_ms), "ms");
  report.Set("daemon.start_ms", Median(start_ms), "ms");
  auto writer = rdd::DaemonClient::Connect(socket);
  auto reader_client = rdd::DaemonClient::Connect(socket);
  result->Check(daemon != nullptr && writer.ok() && reader_client.ok(),
                "daemon started and accepted the writer and the reader");
  if (daemon == nullptr || !writer.ok() || !reader_client.ok()) return;

  const int64_t base_nodes = stream->dataset().NumNodes();
  std::vector<Generation> generations(1);
  generations[0].enqueued_s = -1e300;
  generations[0].replaced_s = 1e300;
  double base_load_ms = 0.0;
  result->Check(PredictAll(options.work_dir + "/gen0.rddc", stream->context(),
                           &generations[0].labels, &base_load_ms),
                "in-process Predictor on the base checkpoint");

  // The reader asks only for base nodes, which every generation knows.
  std::vector<std::vector<int64_t>> reader_pool =
      MakeRequestPool(base_nodes, 1024, DeriveSeed(options.seed, 3));
  // Back to back, one read in flight (each runs T full-graph forwards on the
  // daemon, about 13 ms on one core), so the daemon's serving thread stays
  // busy and holds its CPU. Left idle between reads, as an open-loop reader
  // leaves it, on a shared host each read first waited for a CPU: at 10 rps
  // the median read grew from 12 to 20 ms at 5 % hypervisor steal. The cap,
  // 1,000 reads a second over the reader's longest run, is far above the
  // 80 a second one connection sends.
  Reader reader(std::move(*reader_client), reader_pool,
                static_cast<int64_t>(1000 * (options.seconds * 4 + 30)));

  std::vector<double> fresh_s, apply_ms, incremental_s, affected_share,
      save_ckpt_ms, save_data_ms, swap_ms, induced_ms, load_ms;
  int64_t swap_attempts = 0;
  int64_t busy = 0;
  for (size_t k = 0; k < replay.deltas.size(); ++k) {
    const rdd::stream::GraphDelta& delta = replay.deltas[k];
    const int64_t id = static_cast<int64_t>(k);
    Span delta_span("delta", "bench", id);
    const double t0 = NowSeconds();
    const int64_t nodes_before = stream->dataset().NumNodes();
    bool applied = false;
    {
      Span span("stream.apply", "stream", id);
      applied = stream->Apply(delta).ok();
    }
    const double t_applied = NowSeconds();
    apply_ms.push_back((t_applied - t0) * 1e3);
    result->tally.Add(applied);
    if (!applied) {
      result->Check(false, "StreamingGraph::Apply");
      break;
    }
    rdd::stream::IncrementalResult refreshed = [&] {
      Span span("stream.incremental", "stream", id);
      return rdd::stream::IncrementalRddOnDelta(
          *stream, delta, nodes_before, current, config, incremental,
          DeriveSeed(options.seed, 200 + k));
    }();
    const double t_trained = NowSeconds();
    incremental_s.push_back(t_trained - t_applied);
    affected_share.push_back(
        static_cast<double>(refreshed.affected_nodes) /
        static_cast<double>(stream->dataset().NumNodes()));
    if (k == 0) {
      report.Set("stream.epochs",
                 static_cast<double>(TotalEpochs(refreshed.result)), "count");
    }

    const std::string ckpt =
        options.work_dir + "/gen" + std::to_string(k + 1) + ".rddc";
    const std::string data =
        options.work_dir + "/gen" + std::to_string(k + 1) + ".rdd";
    bool saved = false;
    {
      Span span("data.save_checkpoint", "data", id);
      saved = rdd::SaveCheckpoint(rdd::CheckpointFromRdd(refreshed.result,
                                                         config.base_model,
                                                         "delta"),
                                  ckpt)
                  .ok();
    }
    const double t_ckpt = NowSeconds();
    save_ckpt_ms.push_back((t_ckpt - t_trained) * 1e3);
    {
      Span span("data.save_dataset", "data", id);
      saved = rdd::SaveDataset(stream->dataset(), data).ok() && saved;
    }
    const double t_saved = NowSeconds();
    save_data_ms.push_back((t_saved - t_ckpt) * 1e3);

    // Nodes whose answer tells the generations apart: the arrivals, which
    // the old one does not know, and nodes whose label changed.
    std::vector<int64_t> probe = rdd::stream::TouchedNodes(delta, nodes_before);
    probe.erase(std::remove_if(probe.begin(), probe.end(),
                               [&](int64_t v) { return v < nodes_before; }),
                probe.end());
    const std::vector<int64_t> fresh_labels =
        rdd::ArgmaxRows(refreshed.result.teacher.PredictProbs());
    for (int64_t v = 0; v < base_nodes && probe.size() < 32; ++v) {
      if (fresh_labels[static_cast<size_t>(v)] !=
          generations.back().labels[static_cast<size_t>(v)]) {
        probe.push_back(v);
      }
    }
    if (probe.empty()) probe.push_back(0);

    bool live = false;
    double t_live = 0.0;
    {
      Span span("daemon.swap", "serve", id);
      // kBusy (a full update queue) is backpressure: retry shortly.
      rdd::Status status;
      do {
        ++swap_attempts;
        status = writer->RequestSwap(ckpt, data);
        if (status.code() != rdd::StatusCode::kFailedPrecondition) break;
        ++busy;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      } while (NowSeconds() - t_saved < 30.0);
      live = status.ok() &&
             WaitForGeneration(&*writer, generations.size() + 1, 30.0);
      t_live = NowSeconds();
    }
    swap_ms.push_back((t_live - t_saved) * 1e3);
    auto first = [&] {
      Span span("serve.first_answer", "serve", id);
      return writer->PredictLabels(probe);
    }();
    const double t_fresh = NowSeconds();
    fresh_s.push_back(t_fresh - t0);
    generations.back().replaced_s = t_live;

    // Untimed: the answer must be the new generation's, per an in-process
    // Predictor on the same checkpoint and graph.
    Generation next;
    next.enqueued_s = t_saved;
    next.replaced_s = 1e300;
    load_ms.push_back(0.0);
    const bool predicted =
        PredictAll(ckpt, stream->context(), &next.labels, &load_ms.back());
    const bool fresh = saved && live && predicted && first.ok() &&
                       SameLabels(next.labels, probe, *first);
    result->Check(fresh, "delta " + std::to_string(k) +
                             ": the new generation answers, as an in-process "
                             "Predictor does");
    generations.push_back(std::move(next));
    current = std::move(refreshed.result);

    // Layer probe: the induced view of this delta's retrain region.
    const std::vector<int64_t> inner = stream->AffectedNodes(
        delta, std::max(incremental.hops - 1, 0), nodes_before);
    const std::vector<int64_t> ball =
        stream->AffectedNodes(delta, incremental.hops, nodes_before);
    std::vector<int64_t> region = inner;
    std::set_difference(ball.begin(), ball.end(), inner.begin(), inner.end(),
                        std::back_inserter(region));
    const double view_start = NowSeconds();
    {
      Span span("graph.induced_view", "graph", id);
      rdd::MakeInducedView(stream->dataset().graph, stream->dataset().features,
                           stream->dataset().num_classes, region,
                           static_cast<int64_t>(inner.size()));
    }
    induced_ms.push_back((NowSeconds() - view_start) * 1e3);
  }
  std::vector<Outcome>& read = reader.Finish();

  // A read is correct when it matches a generation that could have served
  // it: enqueued before the answer came back and not yet replaced when the
  // request was sent.
  for (Outcome& o : read) {
    if (!o.ok) continue;
    const auto& nodes = reader.pool()[static_cast<size_t>(o.request)];
    const std::vector<int64_t>& labels = reader.answer(o);
    o.ok = false;
    for (const Generation& g : generations) {
      if (g.enqueued_s > o.done_s || g.replaced_s < o.send_s) continue;
      o.ok = o.ok || SameLabels(g.labels, nodes, labels);
    }
  }
  const Judged judged = Judge(read);
  result->tally.Merge(judged.tally);
  const LatencySummary read_latency = Summarize(judged.latency_ms);

  result->Check(SameContext(stream->context(),
                            rdd::GraphContext::FromDataset(stream->dataset())),
                "streamed context equals a rebuild from the final dataset");
  daemon->Stop();

  report.Set("deltas", static_cast<double>(fresh_s.size()), "count");
  report.Set("delta_to_fresh_s", Median(fresh_s), "s");
  report.Set("read_p50_ms", read_latency.p50, "ms");
  report.Set("read_p99_ms", read_latency.tail.value, "ms");
  report.Set("read_tail_pct", read_latency.tail.pct, "pct");
  report.Set("read_samples", static_cast<double>(read_latency.samples), "count");
  report.Set("ensemble_acc", current.ensemble_test_accuracy, "ratio");
  report.Set("stream.apply_ms", Median(apply_ms), "ms");
  report.Set("stream.incremental_s", Median(incremental_s), "s");
  report.Set("stream.affected_share", Median(affected_share), "ratio");
  report.Set("data.save_checkpoint_ms", Median(save_ckpt_ms), "ms");
  report.Set("data.save_dataset_ms", Median(save_data_ms), "ms");
  report.Set("daemon.swap_ms", Median(swap_ms), "ms");
  report.Set("daemon.busy_ratio",
             swap_attempts == 0 ? 0.0
                                : static_cast<double>(busy) /
                                      static_cast<double>(swap_attempts),
             "ratio");
  report.Set("serve.load_ms", Median(load_ms), "ms");
  report.Set("graph.induced_view_ms", Median(induced_ms), "ms");
  report.Set("loadgen.late_ms", Summarize(judged.late_ms).tail.value, "ms");
  if (options.trace) ReportCounterDelta(before, after, &report);
  report.Set("error_rate", result->tally.ErrorRate(), "ratio");

  report.Set("primary_ms", Median(fresh_s) * 1e3, "ms");
  report.Set("secondary_ms", read_latency.p50, "ms");
}

}  // namespace perfbench
