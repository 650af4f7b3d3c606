#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

// What every workload shares: its options and result, seed derivation, the
// datasets it runs on, and the read-out of the library's metrics registry.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/distill.h"
#include "core/rdd_trainer.h"
#include "harness/report.h"
#include "harness/stats.h"

namespace perfbench {

struct WorkloadOptions {
  uint64_t seed = 1;
  double seconds = 10.0;  ///< Measurement budget of the run.
  bool trace = false;     ///< Spans and registry counters on.
  bool tiny = false;      ///< Smoke-test sizes: every code path in seconds.
  std::string work_dir;   ///< Scratch directory for checkpoints and sockets.
};

struct WorkloadResult {
  Report report;
  Tally tally;
  std::vector<std::string> check_failures;

  /// Records a correctness check as one operation; a failed one is also
  /// listed by name.
  void Check(bool ok, const std::string& what);

  /// The run is correct when every check passed and no operation failed: a
  /// wrong or missing answer from the daemon fails its operation even where
  /// no named check covers it.
  bool Correct() const { return check_failures.empty() && tally.failed == 0; }
};

using WorkloadFn = void (*)(const WorkloadOptions&, WorkloadResult*);
struct WorkloadEntry {
  const char* name;
  WorkloadFn run;
};
/// The benchmark's workloads, in BENCHMARK.json order.
const std::vector<WorkloadEntry>& Workloads();

void RunTrainCora(const WorkloadOptions& options, WorkloadResult* result);
void RunTrainSampled(const WorkloadOptions& options, WorkloadResult* result);
void RunServeRead(const WorkloadOptions& options, WorkloadResult* result);
void RunStreamUpdate(const WorkloadOptions& options, WorkloadResult* result);

/// A seed for stream `stream` of the run with workload seed `seed`
/// (SplitMix64 of the pair). Trial, sampler, stream-split and request seeds
/// follow from --seed. The graphs themselves are the repository's fixed
/// benchmark datasets (bench::kDataSeed), as in every other bench: a new
/// graph per seed would add its own cost to every timing.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Paper-default settings (bench/bench_common.h) for the Cora-like and
/// Pubmed-like datasets; `tiny` swaps in an 800-node graph.
rdd::bench::BenchDataset CoraBench(bool tiny);
rdd::bench::BenchDataset PubmedBench(bool tiny);

/// Distillation settings with a fixed epoch budget: early stopping would
/// make the work per call vary threefold with the seed. The best epoch's
/// weights are kept, as by default.
rdd::DistillConfig FixedEpochDistill(int epochs);

/// Set-ups a run repeats, so that setup_s is a median: each set-up repeats
/// the same deterministic work, and one short stall of the host cannot move
/// the median.
constexpr int kSetupRepeats = 15;

/// Runs `fn` `times` times; returns the median wall seconds of one call.
double MedianSeconds(int times, const std::function<void()>& fn);

/// True when `labels` answers `nodes` as the per-node `expected` labels do.
bool SameLabels(const std::vector<int64_t>& expected,
                const std::vector<int64_t>& nodes,
                const std::vector<int64_t>& labels);

/// 0, 1, ..., n - 1.
std::vector<int64_t> AllNodes(int64_t n);

/// Students until the ensemble's test accuracy first reaches `target`
/// (T + 1 when it never does).
int64_t MembersToTarget(const rdd::RddResult& result, double target);
int64_t TotalEpochs(const rdd::RddResult& result);

/// Snapshot of the registry's counters and gauges by name; histogram sums
/// appear as "<name>.sum".
using Counters = std::map<std::string, int64_t>;
Counters ReadCounters();

/// Reports the kernel, memory and parallel counters that changed between
/// two snapshots, plus the pool's high-water mark.
void ReportCounterDelta(const Counters& before, const Counters& after,
                        Report* report);

/// Peak RSS of the process and per-layer self time of the recorded spans.
void ReportProcessTotals(const WorkloadOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
