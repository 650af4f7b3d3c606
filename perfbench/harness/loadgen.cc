#include "harness/loadgen.h"

#include <chrono>
#include <limits>
#include <thread>

#include <sys/prctl.h>

#include "harness/trace.h"
#include "util/random.h"

namespace perfbench {

namespace {

constexpr double kSpinSeconds = 30e-6;

}  // namespace

std::vector<std::vector<int64_t>> MakeRequestPool(int64_t num_nodes,
                                                  size_t count, uint64_t seed) {
  rdd::Rng rng(seed);
  std::vector<std::vector<int64_t>> pool(count);
  for (auto& request : pool) request.push_back(rng.UniformInt(num_nodes));
  return pool;
}

std::vector<Outcome> RunOpenLoop(std::vector<rdd::DaemonClient>* clients,
                                 const std::vector<std::vector<int64_t>>& pool,
                                 const OpenLoopPlan& plan,
                                 const AnswerCheck& check,
                                 const std::atomic<bool>* stop) {
  std::vector<Outcome> outcomes(static_cast<size_t>(plan.count));
  std::atomic<int64_t> next{0};
  const double start = NowSeconds() + 1e-3;

  auto worker = [&](rdd::DaemonClient* client) {
    // Wake as close to each due time as the kernel allows: no timer slack,
    // and a short spin for the last stretch.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (;;) {
      const int64_t i = next.fetch_add(1);
      if (i >= plan.count) return;
      Outcome& outcome = outcomes[static_cast<size_t>(i)];
      if (plan.rate > 0.0) {
        outcome.due_s = start + static_cast<double>(i) / plan.rate;
        // NowSeconds() reads the steady clock from its epoch.
        using Clock = std::chrono::steady_clock;
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(outcome.due_s - kSpinSeconds))));
        while (NowSeconds() < outcome.due_s) std::this_thread::yield();
      } else {
        outcome.due_s = NowSeconds();
      }
      if (stop != nullptr && stop->load()) return;
      outcome.index = i;
      outcome.request = (plan.first + i) % static_cast<int64_t>(pool.size());
      Span span("serve.request", "serve", outcome.request);
      outcome.sent = true;
      outcome.send_s = NowSeconds();
      auto labels = client->PredictLabels(pool[static_cast<size_t>(outcome.request)]);
      outcome.done_s = NowSeconds();
      outcome.ok = labels.ok() && check(outcome, *labels);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(clients->size());
  for (rdd::DaemonClient& client : *clients) threads.emplace_back(worker, &client);
  for (std::thread& thread : threads) thread.join();

  std::vector<Outcome> sent;
  sent.reserve(outcomes.size());
  for (Outcome& outcome : outcomes) {
    if (outcome.sent) sent.push_back(std::move(outcome));
  }
  return sent;
}

Judged Judge(const std::vector<Outcome>& outcomes) {
  Judged judged;
  for (const Outcome& outcome : outcomes) {
    judged.tally.Add(outcome.ok);
    judged.latency_ms.push_back(
        outcome.ok ? (outcome.done_s - outcome.due_s) * 1e3
                   : std::numeric_limits<double>::infinity());
    judged.late_ms.push_back((outcome.send_s - outcome.due_s) * 1e3);
  }
  return judged;
}

bool WaitForGeneration(rdd::DaemonClient* client, uint64_t generation,
                       double timeout_s) {
  const double deadline = NowSeconds() + timeout_s;
  while (NowSeconds() < deadline) {
    auto stats = client->Stats();
    if (!stats.ok()) return false;
    if (stats->generation >= generation) return true;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  return false;
}

}  // namespace perfbench
