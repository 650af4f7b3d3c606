#ifndef PERFBENCH_HARNESS_REPORT_H_
#define PERFBENCH_HARNESS_REPORT_H_

// Every number a workload measures goes into one Report under its name and
// unit. The human-readable listing prints all of them; the final JSON line
// carries exactly the metrics BENCHMARK.json lists for the run's mode:
// end_to_end metrics for an untraced run, per_layer metrics for a traced one.

#include <cstdio>
#include <string>
#include <vector>

#include "harness/stats.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The catalogues BENCHMARK.json mirrors, in its order.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

class Report {
 public:
  /// Records (or overwrites) one metric.
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  /// The metric's value; 0 when absent.
  double Get(const std::string& name) const;

  /// One "name = value unit" line per metric, in the order set.
  void PrintAll(std::FILE* out) const;

  /// End-to-end catalogue metrics that were never set.
  std::vector<std::string> MissingEndToEnd() const;

  /// The result line: {"correct", "attempted", "failed", "metrics"}. With
  /// `trace` the metrics are the per-layer catalogue (a layer the workload
  /// does not run reads 0), otherwise the end-to-end catalogue.
  std::string ResultLine(bool trace, bool correct, const Tally& tally) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  const Entry* Find(const std::string& name) const;

  std::vector<Entry> entries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_REPORT_H_
