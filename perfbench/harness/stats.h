#ifndef PERFBENCH_HARNESS_STATS_H_
#define PERFBENCH_HARNESS_STATS_H_

// Sample statistics shared by every workload: medians, the tail-percentile
// rule, the serving rate ladder with its max-rate search, and the
// attempted/failed tally.

#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty sample.
double Median(std::vector<double> values);

/// Percentiles are nearest-rank: the value at index ceil(pct/100 * n) - 1.
/// The tail percentile a sample supports: the highest of 50, 75, 90, 95,
/// 97.5, 99, 99.5 and 99.9 with at least ten samples strictly beyond its
/// rank. A sample too small for any of them reports its median as pct 50.
struct Tail {
  double pct = 50.0;
  double value = 0.0;
};

/// Median plus supported tail of one latency sample. Failed operations are
/// recorded as +infinity, so they miss every latency limit.
struct LatencySummary {
  int64_t samples = 0;
  double p50 = 0.0;
  Tail tail;
};
LatencySummary Summarize(std::vector<double> values);

/// Geometric rate ladder: rungs rate_min * 2^(i / steps_per_doubling) for
/// i = 0, 1, ... up to the first rung >= rate_max.
std::vector<double> RateLadder(double rate_min, double rate_max,
                               int steps_per_doubling);

/// Max-rate search over a ladder of `num_rungs` ascending rates. It climbs
/// every `stride`-th rung from rung 0 and stops climbing at the first rung
/// that fails; it then bisects between the last passing and the first
/// failing rung. Assumes passing is monotone in the rate. `rung` is the
/// highest passing rung found, or -1 when rung 0 already fails.
struct SearchResult {
  int rung = -1;
  int probes = 0;
};
SearchResult MaxRateSearch(int num_rungs, int stride,
                           const std::function<bool(int rung)>& passes);

/// Operations attempted and failed. A failure is an error, a refusal, a
/// wrong answer or a missed deadline.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;

  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  double ErrorRate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_STATS_H_
