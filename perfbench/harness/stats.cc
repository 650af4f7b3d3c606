#include "harness/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

size_t RankIndex(size_t n, double pct) {
  // The epsilon keeps 99.9 % of 10000 at rank 9990 despite rounding.
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(index, n - 1);
}

}  // namespace

LatencySummary Summarize(std::vector<double> values) {
  LatencySummary summary;
  summary.samples = static_cast<int64_t>(values.size());
  if (values.empty()) return summary;
  std::sort(values.begin(), values.end());
  summary.p50 = Median(values);
  summary.tail = {50.0, summary.p50};
  static constexpr double kCandidates[] = {99.9, 99.5, 99.0, 97.5,
                                           95.0, 90.0, 75.0, 50.0};
  for (const double pct : kCandidates) {
    const size_t index = RankIndex(values.size(), pct);
    if (values.size() - 1 - index >= 10) {
      summary.tail = {pct, values[index]};
      break;
    }
  }
  return summary;
}

std::vector<double> RateLadder(double rate_min, double rate_max,
                               int steps_per_doubling) {
  std::vector<double> rungs;
  for (int i = 0;; ++i) {
    const double rate =
        rate_min * std::exp2(static_cast<double>(i) / steps_per_doubling);
    rungs.push_back(rate);
    if (rate >= rate_max) break;
  }
  return rungs;
}

SearchResult MaxRateSearch(int num_rungs, int stride,
                           const std::function<bool(int rung)>& passes) {
  SearchResult result;
  auto probe = [&](int rung) {
    ++result.probes;
    return passes(rung);
  };
  int good = -1;
  int bad = num_rungs;
  for (int rung = 0; rung < num_rungs; rung += stride) {
    if (!probe(rung)) {
      bad = rung;
      break;
    }
    good = rung;
  }
  if (good < 0) return result;
  // The gallop may end between rungs: the top rung is the ceiling.
  if (bad == num_rungs && good != num_rungs - 1) {
    if (probe(num_rungs - 1)) {
      result.rung = num_rungs - 1;
      return result;
    }
    bad = num_rungs - 1;
  }
  while (bad - good > 1) {
    const int mid = good + (bad - good) / 2;
    if (probe(mid)) {
      good = mid;
    } else {
      bad = mid;
    }
  }
  result.rung = good;
  return result;
}

}  // namespace perfbench
