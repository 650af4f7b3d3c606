// The pipeline benchmark program. One process runs one workload:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It prints every metric it measured by name and unit, the correctness
// checks and the operations attempted and failed, and as its last line one
// JSON object with the metrics BENCHMARK.json lists for the run's mode. The
// exit code is 0 only when every check passed and no operation failed.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>

#include "harness/common.h"
#include "harness/trace.h"
#include "observe/metrics.h"

namespace {

// Ends the process if a run hangs (a daemon that stops answering blocks its
// clients forever), well inside the three-minute limit a run has.
class Watchdog {
 public:
  explicit Watchdog(double seconds)
      : thread_([this, seconds] {
          using Clock = std::chrono::steady_clock;
          const Clock::time_point start = Clock::now();
          const Clock::time_point deadline =
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds));
          std::unique_lock<std::mutex> lock(mu_);
          while (!done_) {
            cv_.wait_until(lock, deadline);
            if (!done_ && Clock::now() >= deadline) {
              std::fprintf(stderr,
                           "perfbench: run exceeded %.0f s in span %s, "
                           "aborting\n",
                           std::chrono::duration<double>(Clock::now() - start)
                               .count(),
                           perfbench::Tracer::Global().last_opened());
              std::_Exit(3);
            }
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

// Steal and total ticks of the host's CPUs from /proc/stat; zeros where it
// is unreadable.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
CpuTicks ReadCpuTicks() {
  CpuTicks ticks;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return ticks;
  char label[8] = {};
  double field[8] = {};
  if (std::fscanf(f, "%7s %lf %lf %lf %lf %lf %lf %lf %lf", label, &field[0],
                  &field[1], &field[2], &field[3], &field[4], &field[5],
                  &field[6], &field[7]) == 9) {
    ticks.steal = field[7];
    for (double v : field) ticks.total += v;
  }
  std::fclose(f);
  return ticks;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1>\nworkloads:");
  for (const auto& w : perfbench::Workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::WorkloadOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) {
      return Usage();
    } else if (arg == "--workload") {
      workload = value;
      ++i;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      ++i;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
      ++i;
    } else if (arg == "--trace") {
      options.trace = std::string(value) == "1";
      ++i;
    } else {
      return Usage();
    }
  }
  perfbench::WorkloadFn run = nullptr;
  for (const auto& w : perfbench::Workloads()) {
    if (workload == w.name) run = w.run;
  }
  if (run == nullptr || options.seconds <= 0.0) return Usage();

  const Watchdog watchdog(170.0);
  // One library thread: on a host whose virtual CPUs are shared, runs that
  // keep every core busy lose time to other tenants unpredictably, while
  // single-threaded runs repeat within a few percent.
  ::setenv("RDD_NUM_THREADS", "1", 1);
  rdd::observe::SetMetricsEnabled(options.trace);
  perfbench::Tracer::Global().Enable(options.trace);
  const std::filesystem::path work =
      std::filesystem::path(".bench_build") / "work" /
      (workload + "-" + std::to_string(::getpid()));
  std::filesystem::create_directories(work);
  options.work_dir = work.string();

  std::printf("perfbench: workload %s, seed %llu, %.0f s, trace %d\n",
              workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::fflush(stdout);
  perfbench::WorkloadResult result;
  const CpuTicks before = ReadCpuTicks();
  run(options, &result);
  const CpuTicks after = ReadCpuTicks();
  perfbench::ReportProcessTotals(options, &result.report);
  // Time the hypervisor gave other tenants: a run with a high share is
  // suspect, whatever it measured.
  if (after.total > before.total) {
    result.report.Set("host.steal_pct",
                      100.0 * (after.steal - before.steal) /
                          (after.total - before.total),
                      "%");
  }
  std::filesystem::remove_all(work);

  result.report.PrintAll(stdout);
  if (options.trace) {
    const std::filesystem::path spans =
        std::filesystem::path(".bench_build") / "trace" /
        (workload + "-seed" + std::to_string(options.seed) + ".json");
    std::filesystem::create_directories(spans.parent_path());
    if (perfbench::Tracer::Global().WriteJson(spans.string())) {
      std::printf("spans written to %s\n", spans.c_str());
    }
  }
  for (const std::string& name : result.report.MissingEndToEnd()) {
    result.check_failures.push_back("end-to-end metric " + name + " not measured");
  }
  for (const std::string& failure : result.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  if (result.tally.failed > 0) {
    std::printf("CHECK FAILED: %lld operation(s) failed or were answered "
                "wrongly\n",
                static_cast<long long>(result.tally.failed));
  }
  const bool correct = result.Correct();
  std::printf("ops: %lld attempted, %lld failed (error rate %.6g); checks %s\n",
              static_cast<long long>(result.tally.attempted),
              static_cast<long long>(result.tally.failed),
              result.tally.ErrorRate(), correct ? "passed" : "FAILED");
  std::printf("%s\n",
              result.report.ResultLine(options.trace, correct, result.tally)
                  .c_str());
  return correct ? 0 : 1;
}
