#ifndef PERFBENCH_HARNESS_LOADGEN_H_
#define PERFBENCH_HARNESS_LOADGEN_H_

// Open-loop load generator for the serving daemon. Request i is due at
// start + i / rate whatever happened to earlier requests; one worker thread
// per client connection takes the next due request, sleeps until it is due
// and sends it. When every connection is busy, requests go out late, and
// that wait is part of their latency because latency is timed from the due
// time. A plan with rate 0 runs closed loop instead: each connection sends
// its next request as soon as the previous answer is in, and a request is due
// when it is sent.

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "harness/stats.h"
#include "serve/daemon.h"

namespace perfbench {

/// One request's fate. Times are NowSeconds() values.
struct Outcome {
  bool sent = false;
  bool ok = false;  ///< Answered, and the answer passed the check.
  double due_s = 0.0;
  double send_s = 0.0;
  double done_s = 0.0;
  int64_t index = 0;    ///< Position in the step, 0 .. count - 1.
  int64_t request = 0;  ///< Index into the request pool.
};

/// Judges an answer on the sending thread, so no answer is kept unless the
/// check keeps it. Called concurrently for different outcomes.
using AnswerCheck = std::function<bool(const Outcome& outcome,
                                       const std::vector<int64_t>& labels)>;

/// `count` requests of one node each, node ids uniform over 0 .. num_nodes - 1.
/// Single-node requests, as in the closed-loop sizing of the serving paths
/// (ensemble about 1.9 ms and MLP about 30 us per request): a batch costs the
/// ensemble path the same T full-graph forwards, so batching would only move
/// the MLP path.
std::vector<std::vector<int64_t>> MakeRequestPool(int64_t num_nodes,
                                                  size_t count, uint64_t seed);

struct OpenLoopPlan {
  double rate = 0.0;    ///< Requests per second; 0 for closed loop.
  int64_t count = 0;    ///< Requests to send.
  int64_t first = 0;    ///< Pool index of the first request (taken mod size).
};

/// Sends `plan.count` requests drawn cyclically from `pool` over `clients`
/// (one thread each) and checks each answer with `check`. With `stop`, no
/// request is sent once it is set, and unsent requests are dropped.
std::vector<Outcome> RunOpenLoop(std::vector<rdd::DaemonClient>* clients,
                                 const std::vector<std::vector<int64_t>>& pool,
                                 const OpenLoopPlan& plan,
                                 const AnswerCheck& check,
                                 const std::atomic<bool>* stop = nullptr);

/// Latency of each outcome in ms, timed from its due time; +infinity when
/// it failed. Also how late each request was sent, and the tally.
struct Judged {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  Tally tally;
};
Judged Judge(const std::vector<Outcome>& outcomes);

/// Polls the daemon until it serves generation `generation` or later.
/// Returns false on a stats error or after `timeout_s`.
bool WaitForGeneration(rdd::DaemonClient* client, uint64_t generation,
                       double timeout_s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_LOADGEN_H_
