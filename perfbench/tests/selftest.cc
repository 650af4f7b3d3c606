// Self-test of the benchmark: the statistics it reports with, the max-rate
// search, the failure accounting, and a tiny-size smoke run of every
// workload's code path.
//
//   python3 perfbench/run.py --selftest     (or ctest in .bench_build/cmake)

#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "harness/common.h"
#include "harness/loadgen.h"
#include "harness/report.h"
#include "harness/stats.h"
#include "harness/trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

std::vector<double> Ramp(int n) {
  std::vector<double> values;
  for (int i = n; i >= 1; --i) values.push_back(i);  // unsorted on purpose
  return values;
}

void TestPercentileRule() {
  using perfbench::Summarize;
  // 1000 samples: p99 has exactly ten samples beyond it (991..1000).
  perfbench::LatencySummary s = Summarize(Ramp(1000));
  Expect(s.samples == 1000, "sample count");
  Expect(s.p50 == 500.5, "median of 1..1000");
  Expect(s.tail.pct == 99.0 && s.tail.value == 990.0, "p99 of 1000 samples");
  // 999 samples leave only nine beyond p99, so the tail drops to p97.5.
  s = Summarize(Ramp(999));
  Expect(s.tail.pct == 97.5, "999 samples support p97.5, not p99");
  // 10000 samples support p99.9.
  s = Summarize(Ramp(10000));
  Expect(s.tail.pct == 99.9 && s.tail.value == 9990.0, "p99.9 of 10000");
  // Too few samples for any tail: the median stands in.
  s = Summarize(Ramp(12));
  Expect(s.tail.pct == 50.0 && s.tail.value == s.p50, "tiny sample");
  Expect(Summarize({}).samples == 0, "empty sample");
  // A failure counts as an infinite latency and so misses any limit.
  std::vector<double> with_failures = Ramp(1000);
  for (int i = 0; i < 11; ++i) {
    with_failures[static_cast<size_t>(i)] =
        std::numeric_limits<double>::infinity();
  }
  s = Summarize(with_failures);
  Expect(std::isinf(s.tail.value), "eleven failures push p99 to infinity");
}

void TestRateLadderAndSearch() {
  // The ensemble phase's ladder: 30 rps to 6400 rps, 8 rungs per doubling.
  const std::vector<double> rungs = perfbench::RateLadder(30.0, 6400.0, 8);
  Expect(rungs.size() == 63, "ladder 30..6400 at 8 rungs per doubling");
  Expect(rungs.back() >= 6400.0 && rungs.front() == 30.0, "ladder ends");
  Expect(rungs[1] / rungs[0] < 1.1, "rungs within a tenth of each other");

  for (int capacity = -1; capacity < static_cast<int>(rungs.size());
       ++capacity) {
    std::vector<int> probed;
    const perfbench::SearchResult result = perfbench::MaxRateSearch(
        static_cast<int>(rungs.size()), 8, [&](int rung) {
          probed.push_back(rung);
          return rung <= capacity;
        });
    Expect(result.rung == capacity,
           "search finds capacity rung " + std::to_string(capacity));
    Expect(result.probes == static_cast<int>(probed.size()), "probe count");
    // It stops climbing at the first failing gallop rung: nothing above it
    // is ever probed.
    int first_fail = -1;
    for (int rung : probed) {
      if (rung > capacity) {
        first_fail = rung;
        break;
      }
    }
    for (int rung : probed) {
      Expect(first_fail < 0 || rung <= first_fail,
             "no probe above the first failing rung");
    }
    Expect(result.probes <= 12, "search is logarithmic");
  }
}

void TestFailureAccounting() {
  perfbench::Tally tally;
  tally.Add(true);
  tally.Add(false);
  tally.Add(true);
  tally.Add(true);
  Expect(tally.attempted == 4 && tally.failed == 1, "tally counts");
  Expect(tally.ErrorRate() == 0.25, "error rate");

  // Judge: a refused request fails and gets infinite latency.
  std::vector<perfbench::Outcome> outcomes(2);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    outcomes[i].sent = true;
    outcomes[i].ok = i == 0;  // request 1: refused or answered wrongly
    outcomes[i].due_s = 1.0;
    outcomes[i].send_s = 1.5;
    outcomes[i].done_s = 2.0;
  }
  const perfbench::Judged judged = perfbench::Judge(outcomes);
  Expect(judged.tally.attempted == 2 && judged.tally.failed == 1,
         "refused and wrong answers fail");
  Expect(judged.latency_ms[0] == 1000.0, "latency timed from the due time");
  Expect(judged.late_ms[0] == 500.0, "lateness is send minus due");
  Expect(std::isinf(judged.latency_ms[1]), "failures miss every limit");

  perfbench::WorkloadResult result;
  result.tally.Add(true);
  result.Check(false, "a failed check");
  Expect(result.tally.attempted == 2 && result.tally.failed == 1 &&
             result.check_failures.size() == 1,
         "a failed check is a failed operation");
  Expect(!result.Correct(), "a failed check makes the run incorrect");

  // A wrong answer from the daemon, merged from a load step with no named
  // check behind it, still makes the run incorrect.
  perfbench::WorkloadResult served;
  served.Check(true, "a passed check");
  Expect(served.Correct(), "a run with no failure is correct");
  served.tally.Merge(judged.tally);
  Expect(served.check_failures.empty() && !served.Correct(),
         "a wrong daemon answer makes the run incorrect");
}

void TestTrace() {
  perfbench::Tracer& tracer = perfbench::Tracer::Global();
  tracer.Enable(true);
  {
    perfbench::Span outer("outer", "bench");
    perfbench::Span inner("inner", "core");
  }
  tracer.Enable(false);
  { perfbench::Span ignored("off", "core"); }
  Expect(tracer.size() == 2, "spans recorded only while tracing is on");
  const auto self = tracer.SelfMsByLayer();
  Expect(self.count("bench") == 1 && self.count("core") == 1,
         "self time per layer");
}

// BENCHMARK.json at the repository root lists exactly the catalogued
// metrics.
void TestCatalogueMatchesBenchmarkJson() {
  std::FILE* f = std::fopen(PERFBENCH_BENCHMARK_JSON, "r");
  Expect(f != nullptr, std::string("open ") + PERFBENCH_BENCHMARK_JSON);
  if (f == nullptr) return;
  std::string json;
  char buffer[4096];
  for (size_t n; (n = std::fread(buffer, 1, sizeof(buffer), f)) > 0;) {
    json.append(buffer, n);
  }
  std::fclose(f);
  size_t listed = 0;
  for (size_t at = 0; (at = json.find("\"name\": ", at)) != std::string::npos;
       ++at) {
    ++listed;
  }
  size_t catalogued = perfbench::Workloads().size();
  for (const auto* list :
       {&perfbench::EndToEndMetrics(), &perfbench::PerLayerMetrics()}) {
    for (const perfbench::MetricSpec& spec : *list) {
      ++catalogued;
      Expect(json.find("\"name\": \"" + std::string(spec.name) +
                       "\",\n      \"unit\": \"" + spec.unit + "\"") !=
                 std::string::npos,
             std::string("BENCHMARK.json lists ") + spec.name);
    }
  }
  for (const perfbench::WorkloadEntry& w : perfbench::Workloads()) {
    Expect(json.find("\"name\": \"" + std::string(w.name) + "\"") !=
               std::string::npos,
           std::string("BENCHMARK.json lists workload ") + w.name);
  }
  Expect(listed == catalogued, "BENCHMARK.json lists nothing else");
}

void SmokeRunWorkloads() {
  for (const perfbench::WorkloadEntry& workload : perfbench::Workloads()) {
    for (const bool trace : {false, true}) {
      perfbench::WorkloadOptions options;
      options.seed = 7;
      options.seconds = 0.5;
      options.tiny = true;
      options.trace = trace;
      perfbench::Tracer::Global().Enable(trace);
      options.work_dir = (std::filesystem::path(".bench_build") / "selftest" /
                          workload.name)
                             .string();
      std::filesystem::create_directories(options.work_dir);
      perfbench::WorkloadResult result;
      workload.run(options, &result);
      perfbench::ReportProcessTotals(options, &result.report);
      std::filesystem::remove_all(options.work_dir);
      const std::string name =
          std::string(workload.name) + (trace ? " (traced)" : "");
      for (const std::string& failure : result.check_failures) {
        Expect(false, name + ": " + failure);
      }
      Expect(result.tally.attempted > 0 && result.tally.failed == 0,
             name + ": operations attempted without failure");
      Expect(result.report.MissingEndToEnd().empty(),
             name + ": every end-to-end metric measured");
      std::printf("smoke %-24s ok=%d attempted=%lld\n", name.c_str(),
                  result.check_failures.empty() ? 1 : 0,
                  static_cast<long long>(result.tally.attempted));
    }
  }
  perfbench::Tracer::Global().Enable(false);
}

}  // namespace

int main() {
  ::setenv("RDD_NUM_THREADS", "1", 1);  // as the benchmark runs
  TestPercentileRule();
  TestRateLadderAndSearch();
  TestFailureAccounting();
  TestTrace();
  TestCatalogueMatchesBenchmarkJson();
  SmokeRunWorkloads();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
