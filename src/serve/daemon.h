#ifndef RDD_SERVE_DAEMON_H_
#define RDD_SERVE_DAEMON_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "models/graph_model.h"
#include "serve/predictor.h"
#include "util/status.h"

namespace rdd {

/// Wire protocol of the serving daemon (shared by Daemon and DaemonClient).
///
/// Every frame, in both directions, is `u32 payload_len` (little-endian,
/// bounded by kMaxFrameBytes) followed by `payload_len` payload bytes. The
/// first payload byte is the opcode (requests) or status code (responses);
/// integers inside payloads are little-endian u32/i64/u64.
///
///   kPredict  req:  u32 count, count x i64 node ids
///             resp: kOk + u32 count, count x i64 predicted labels
///   kSwap     req:  u32 ckpt_len + bytes, u32 dataset_len + bytes
///             (dataset_len 0 = keep the current graph). resp: kOk once the
///             swap is ENQUEUED — it is applied asynchronously — or kBusy
///             when the bounded update queue is full (backpressure: retry
///             later; nothing was enqueued).
///   kStats    resp: kOk + u64 generation, u64 queries, u64 swap_failures,
///             u32 pending updates, i64 num_nodes of the serving graph
///   kShutdown resp: kOk, then the daemon stops accepting and drains.
enum class DaemonOp : uint8_t {
  kPredict = 1,
  kSwap = 2,
  kStats = 3,
  kShutdown = 4,
};

enum class DaemonStatus : uint8_t {
  kOk = 0,
  kInvalid = 1,   ///< Malformed frame or bad request (message follows).
  kBusy = 2,      ///< Update queue full; the swap was NOT enqueued.
  kError = 3,     ///< Server-side failure (message follows).
};

/// Frames larger than this are rejected as malformed (guards allocation).
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;

/// Stats() snapshot, also the payload of the kStats response.
struct DaemonStats {
  uint64_t generation = 0;      ///< Swaps applied, +1 for the initial load.
  uint64_t queries_served = 0;  ///< Total nodes predicted since start.
  uint64_t swap_failures = 0;   ///< Enqueued swaps that failed to load.
  uint32_t pending_updates = 0;
  int64_t num_nodes = 0;        ///< Node count of the CURRENT serving graph.
};

struct DaemonOptions {
  /// Filesystem path of the Unix domain socket. Created (replacing any
  /// stale file) on Start, unlinked on Stop.
  std::string socket_path;
  /// Checkpoint served until the first swap.
  std::string checkpoint_path;
  /// Serialized Dataset the initial graph context is built from.
  std::string dataset_path;
  /// Bound of the update queue; kSwap returns kBusy beyond it.
  int update_queue_capacity = 4;
};

/// A long-running node-classification server: answers Predict queries over
/// a Unix socket while a background update thread hot-swaps in refreshed
/// checkpoints (e.g. after an incremental retrain).
///
/// Hot-swap contract: each loaded model lives in an immutable generation
/// (context + Predictor + generation number). Swaps build the NEXT
/// generation entirely off the serving path — checkpoint load, graph
/// rebuild, model construction — and publish it with one pointer assignment
/// under a mutex held for O(1); queries never observe a half-loaded
/// generation and are never blocked by a load. Every query pins its
/// generation through a shared_ptr, which keeps a replaced generation alive
/// until its last in-flight query completes, so answers are always
/// internally consistent: a query runs wholly against generation g or
/// wholly against g+1, never a mix. No load runs a forward: the first query
/// on a generation builds its Predictor's probability table, and every
/// later one gathers rows from it. On-disk consistency is the checkpoint
/// writer's job (SaveCheckpoint is atomic), so killing the daemon mid-swap
/// can never leave a torn file — tests/daemon_test.cc proves both
/// properties.
///
/// Thread-safety: all public methods are safe to call from any thread.
/// Queries from concurrent connections are serialized per generation (the
/// first one builds the table); the serving lock is per-generation, so a
/// swap never contends with it.
///
/// Determinism: predictions are the Predictor's (bit-identical to a fresh
/// Predictor over the same checkpoint at any thread count / backend);
/// the daemon adds routing, not arithmetic.
class Daemon {
 public:
  /// Binds the socket, loads the initial (dataset, checkpoint) pair as
  /// generation 1, and spawns the accept and update threads. On error
  /// (bad checkpoint, bind failure) nothing is left running.
  static StatusOr<std::unique_ptr<Daemon>> Start(const DaemonOptions& options);

  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Stops accepting, drains connection threads, unlinks the socket.
  /// Idempotent; also called by the destructor and by a kShutdown request.
  void Stop();

  /// Blocks until Stop() is called (by any thread or a kShutdown request).
  void Wait();

  /// Enqueues a hot swap to `checkpoint_path` (with `dataset_path` empty,
  /// the current graph is kept). FailedPrecondition when the queue is full
  /// — the wire kBusy; the caller should retry after a drain. The swap
  /// itself is asynchronous; failures are counted in Stats().
  Status EnqueueSwap(const std::string& checkpoint_path,
                     const std::string& dataset_path);

  /// In-process query path (the wire kPredict calls this too).
  StatusOr<std::vector<int64_t>> PredictLabels(
      const std::vector<int64_t>& nodes);

  DaemonStats Stats() const;
  const std::string& socket_path() const { return options_.socket_path; }

 private:
  /// One immutable serving generation. `mu` serializes queries on this
  /// generation's Predictor (the first builds its table); it is never held
  /// while loading the next one.
  struct Generation {
    std::mutex mu;
    GraphContext context;
    Predictor predictor;
    uint64_t number = 0;
    int64_t num_nodes = 0;
  };

  struct SwapRequest {
    std::string checkpoint_path;
    std::string dataset_path;
  };

  Daemon() = default;

  static StatusOr<std::shared_ptr<Generation>> LoadGeneration(
      const std::string& checkpoint_path, const std::string& dataset_path,
      uint64_t number);

  std::shared_ptr<Generation> Current() const;
  /// Sets stopping_ under queue_mu_ and stopped_mu_, so neither the update
  /// thread nor Wait() can miss the wake-up, and unblocks accept().
  void RequestStop();
  void AcceptLoop();
  void UpdateLoop();
  void ServeConnection(int fd);
  /// Dispatches one request payload; returns the response payload.
  std::vector<uint8_t> HandleRequest(const std::vector<uint8_t>& payload);

  DaemonOptions options_;
  int listen_fd_ = -1;

  mutable std::mutex current_mu_;  ///< Guards current_.
  std::shared_ptr<Generation> current_;

  mutable std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<SwapRequest> queue_;

  /// Written only by RequestStop, under queue_mu_ and stopped_mu_.
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> queries_served_{0};
  std::atomic<uint64_t> swap_failures_{0};

  /// One connection's serving thread; `done` is set as its last action, so
  /// the accept loop can join it without blocking.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  /// Joins and drops every finished connection thread. Requires conn_mu_.
  void ReapFinishedConnections();

  std::thread accept_thread_;
  std::thread update_thread_;
  std::mutex conn_mu_;
  std::list<Connection> connections_;  ///< Stable addresses for `done`.

  std::mutex stopped_mu_;  ///< Wait() sleeps on stopped_cv_ under it.
  std::condition_variable stopped_cv_;

  std::mutex join_mu_;  ///< Makes Stop()'s joins happen exactly once.
  bool joined_ = false;
};

/// Minimal blocking client for the daemon's wire protocol. One socket, one
/// outstanding request at a time; not thread-safe (use one per thread).
class DaemonClient {
 public:
  static StatusOr<DaemonClient> Connect(const std::string& socket_path);

  DaemonClient() = default;
  ~DaemonClient();
  DaemonClient(DaemonClient&& other) noexcept;
  DaemonClient& operator=(DaemonClient&& other) noexcept;
  DaemonClient(const DaemonClient&) = delete;
  DaemonClient& operator=(const DaemonClient&) = delete;

  StatusOr<std::vector<int64_t>> PredictLabels(
      const std::vector<int64_t>& nodes);
  /// FailedPrecondition mirrors the wire kBusy (queue full, retry later).
  Status RequestSwap(const std::string& checkpoint_path,
                     const std::string& dataset_path);
  StatusOr<DaemonStats> Stats();
  Status Shutdown();

 private:
  explicit DaemonClient(int fd) : fd_(fd) {}

  StatusOr<std::vector<uint8_t>> RoundTrip(
      const std::vector<uint8_t>& payload);

  int fd_ = -1;
};

}  // namespace rdd

#endif  // RDD_SERVE_DAEMON_H_
