// End-to-end suite for the serving daemon: wire protocol round trips,
// hot-swap generation counting, bounded-queue backpressure, and the crash
// contract — SIGKILL mid-hot-swap must leave both the on-disk checkpoint
// and a restarted daemon fully consistent (checkpoint saves are atomic and
// the daemon never mutates the file it serves from).
//
// This executable has a custom main: re-invoking it with --daemon-child
// runs a bare daemon process, which the kill test fork+execs so the victim
// daemon lives in its own clean process (fork alone would duplicate a
// threaded test binary; exec resets it).

#include "serve/daemon.h"

#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "data/checkpoint.h"
#include "data/citation_gen.h"
#include "data/serialize.h"
#include "models/mlp_student.h"
#include "serve/predictor.h"

namespace rdd {
namespace {

/// A per-process temp path. ctest runs each case as its own process, in
/// parallel; shared socket paths would let one case's client reach (or
/// shut down) another case's daemon.
std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" +
         std::to_string(::getpid()) + "_" + name;
}

Dataset TinyDataset(uint64_t seed) {
  CitationGenConfig config;
  config.num_nodes = 80;
  config.num_features = 24;
  config.num_edges = 200;
  config.num_classes = 3;
  config.labeled_per_class = 5;
  config.val_size = 12;
  config.test_size = 20;
  return GenerateCitationNetwork(config, seed);
}

/// Writes an MLP-student checkpoint for `dataset` (fast: no training — the
/// daemon contract under test is routing and swapping, not accuracy).
void WriteCheckpoint(const Dataset& dataset, uint64_t seed,
                     const std::string& path) {
  const GraphContext context = GraphContext::FromDataset(dataset);
  MlpStudent student(context, 2, 16, 0.5f, seed);
  ASSERT_TRUE(
      SaveCheckpoint(CheckpointFromDistilled(student, "daemon"), path).ok());
}

/// Polls the daemon's stats until `pred` holds or ~5 s elapse.
template <typename Pred>
bool WaitForStats(Daemon* daemon, Pred pred) {
  for (int i = 0; i < 500; ++i) {
    if (pred(daemon->Stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

struct DaemonFixture {
  std::string socket_path = TempPath("daemon.sock");
  std::string checkpoint_path = TempPath("daemon_gen1.rddc");
  std::string dataset_path = TempPath("daemon.rdd");
  Dataset dataset = TinyDataset(1);

  DaemonOptions Options() {
    DaemonOptions options;
    options.socket_path = socket_path;
    options.checkpoint_path = checkpoint_path;
    options.dataset_path = dataset_path;
    return options;
  }

  void WriteInputs() {
    WriteCheckpoint(dataset, 3, checkpoint_path);
    ASSERT_TRUE(SaveDataset(dataset, dataset_path).ok());
  }

  ~DaemonFixture() {
    std::remove(checkpoint_path.c_str());
    std::remove(dataset_path.c_str());
    std::remove(socket_path.c_str());
  }
};

TEST(DaemonTest, StartRejectsBadOptions) {
  DaemonFixture f;
  f.WriteInputs();

  DaemonOptions options = f.Options();
  options.update_queue_capacity = 0;
  EXPECT_FALSE(Daemon::Start(options).ok());

  options = f.Options();
  options.checkpoint_path = TempPath("no_such_checkpoint.rddc");
  EXPECT_FALSE(Daemon::Start(options).ok());

  options = f.Options();
  options.socket_path = TempPath(
      "a_socket_path_long_enough_to_overflow_sun_path_"
      "0123456789012345678901234567890123456789012345678901234567890123456789"
      "0123456789012345678901234567890123456789012345678901234567890123456789");
  EXPECT_FALSE(Daemon::Start(options).ok());
}

TEST(DaemonTest, ServesIdenticalAnswersOverTheWireAndInProcess) {
  DaemonFixture f;
  f.WriteInputs();
  StatusOr<std::unique_ptr<Daemon>> daemon = Daemon::Start(f.Options());
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  std::vector<int64_t> nodes;
  for (int64_t i = 0; i < f.dataset.NumNodes(); i += 3) nodes.push_back(i);

  // Ground truth: a fresh Predictor over the same checkpoint. The daemon
  // adds routing, not arithmetic, so labels must match exactly.
  const GraphContext context = GraphContext::FromDataset(f.dataset);
  StatusOr<Predictor> reference =
      Predictor::FromCheckpoint(f.checkpoint_path, context);
  ASSERT_TRUE(reference.ok());
  StatusOr<std::vector<int64_t>> expected = reference->PredictLabels(nodes);
  ASSERT_TRUE(expected.ok());

  StatusOr<std::vector<int64_t>> in_process =
      (*daemon)->PredictLabels(nodes);
  ASSERT_TRUE(in_process.ok());
  EXPECT_EQ(*in_process, *expected);

  StatusOr<DaemonClient> client = DaemonClient::Connect(f.socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  StatusOr<std::vector<int64_t>> wire = client->PredictLabels(nodes);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  EXPECT_EQ(*wire, *expected);

  // Out-of-range node ids are a request error, not a crash.
  EXPECT_FALSE(client->PredictLabels({f.dataset.NumNodes()}).ok());

  StatusOr<DaemonStats> stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->generation, 1u);
  EXPECT_EQ(stats->num_nodes, f.dataset.NumNodes());
  EXPECT_GE(stats->queries_served, 2 * nodes.size());

  // kShutdown stops the daemon remotely; Wait() must return.
  ASSERT_TRUE(client->Shutdown().ok());
  (*daemon)->Wait();
}

TEST(DaemonTest, HostilePredictCountIsRejectedBeforeAllocating) {
  DaemonFixture f;
  f.WriteInputs();
  StatusOr<std::unique_ptr<Daemon>> daemon = Daemon::Start(f.Options());
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  // A 9-byte frame: length 5, kPredict, count 0xFFFFFFFF, and no node ids.
  // Sizing a buffer from that count before checking it against the frame
  // would request 32 GiB and take the whole daemon down.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, f.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const uint8_t frame[9] = {5, 0, 0, 0, 1, 0xFF, 0xFF, 0xFF, 0xFF};
  ASSERT_EQ(::write(fd, frame, sizeof(frame)),
            static_cast<ssize_t>(sizeof(frame)));
  uint8_t header[4];
  ASSERT_EQ(::recv(fd, header, sizeof(header), MSG_WAITALL),
            static_cast<ssize_t>(sizeof(header)));
  const uint32_t len = header[0] | (header[1] << 8) | (header[2] << 16) |
                       (static_cast<uint32_t>(header[3]) << 24);
  ASSERT_GT(len, 0u);
  std::vector<uint8_t> response(len);
  ASSERT_EQ(::recv(fd, response.data(), len, MSG_WAITALL),
            static_cast<ssize_t>(len));
  EXPECT_EQ(response[0], static_cast<uint8_t>(DaemonStatus::kInvalid));
  ::close(fd);

  // The daemon is still serving: a valid predict is answered.
  StatusOr<DaemonClient> client = DaemonClient::Connect(f.socket_path);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  StatusOr<std::vector<int64_t>> labels = client->PredictLabels({0, 1, 2});
  ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  EXPECT_EQ(labels->size(), 3u);
  ASSERT_TRUE(client->Shutdown().ok());
  (*daemon)->Wait();
}

/// The process's virtual size (VmSize in /proc/self/status) in KiB; -1 when
/// unavailable. Thread stacks are mapped up front, so every thread that is
/// never joined keeps its whole stack in VmSize.
int64_t VmSizeKib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  int64_t kib = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    long long value = 0;
    if (std::sscanf(line, "VmSize: %lld kB", &value) == 1) {
      kib = value;
      break;
    }
  }
  std::fclose(f);
  return kib;
}

TEST(DaemonTest, FinishedConnectionThreadsAreReaped) {
  DaemonFixture f;
  f.WriteInputs();
  StatusOr<std::unique_ptr<Daemon>> daemon = Daemon::Start(f.Options());
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  const auto cycle = [&] {
    StatusOr<DaemonClient> client = DaemonClient::Connect(f.socket_path);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    StatusOr<std::vector<int64_t>> labels = client->PredictLabels({0, 1, 2});
    ASSERT_TRUE(labels.ok()) << labels.status().ToString();
  };
  // Warm-up: the first connections fill glibc's cache of freed thread
  // stacks, a one-time VmSize growth (~24 MiB here) independent of reaping.
  for (int i = 0; i < 10; ++i) cycle();
  const int64_t before = VmSizeKib();
  if (before < 0) GTEST_SKIP() << "no /proc/self/status";

  // Sequential connect -> predict -> close. Each connection gets its own
  // thread with an 8 MiB stack; kept unjoined until Stop(), 200 of them
  // would grow VmSize by ~1.6 GiB.
  for (int i = 0; i < 200; ++i) cycle();
  const int64_t grown_mib = (VmSizeKib() - before) / 1024;
  EXPECT_LT(grown_mib, 64) << "VmSize grew by " << grown_mib << " MiB";
  (*daemon)->Stop();
}

TEST(DaemonTest, HotSwapAdvancesGenerationWithoutDroppingQueries) {
  DaemonFixture f;
  f.WriteInputs();
  const std::string next_checkpoint = TempPath("daemon_gen2.rddc");
  WriteCheckpoint(f.dataset, 17, next_checkpoint);  // different weights

  StatusOr<std::unique_ptr<Daemon>> daemon = Daemon::Start(f.Options());
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();
  StatusOr<DaemonClient> client = DaemonClient::Connect(f.socket_path);
  ASSERT_TRUE(client.ok());

  std::vector<int64_t> nodes;
  for (int64_t i = 0; i < f.dataset.NumNodes(); ++i) nodes.push_back(i);

  // Hammer queries from a second connection while the swap happens; every
  // round trip must succeed against SOME complete generation.
  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::thread hammer([&] {
    StatusOr<DaemonClient> side = DaemonClient::Connect(f.socket_path);
    if (!side.ok()) {
      failures.fetch_add(1);
      return;
    }
    while (!stop.load()) {
      if (!side->PredictLabels(nodes).ok()) failures.fetch_add(1);
    }
  });

  ASSERT_TRUE(client->RequestSwap(next_checkpoint, "").ok());
  EXPECT_TRUE(WaitForStats(daemon->get(), [](const DaemonStats& s) {
    return s.generation == 2 && s.pending_updates == 0;
  }));
  stop.store(true);
  hammer.join();
  EXPECT_EQ(failures.load(), 0);

  // Post-swap answers match a fresh Predictor over the NEW checkpoint.
  const GraphContext context = GraphContext::FromDataset(f.dataset);
  StatusOr<Predictor> reference =
      Predictor::FromCheckpoint(next_checkpoint, context);
  ASSERT_TRUE(reference.ok());
  StatusOr<std::vector<int64_t>> expected = reference->PredictLabels(nodes);
  ASSERT_TRUE(expected.ok());
  StatusOr<std::vector<int64_t>> served = client->PredictLabels(nodes);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(*served, *expected);

  // A swap that also reloads the graph (dataset_path non-empty).
  ASSERT_TRUE(client->RequestSwap(f.checkpoint_path, f.dataset_path).ok());
  EXPECT_TRUE(WaitForStats(daemon->get(), [](const DaemonStats& s) {
    return s.generation == 3;
  }));

  // A swap to a missing checkpoint is counted, never fatal.
  ASSERT_TRUE(
      client->RequestSwap(TempPath("daemon_missing.rddc"), "").ok());
  EXPECT_TRUE(WaitForStats(daemon->get(), [](const DaemonStats& s) {
    return s.swap_failures == 1;
  }));
  EXPECT_TRUE(client->PredictLabels(nodes).ok());  // still serving gen 3

  std::remove(next_checkpoint.c_str());
}

TEST(DaemonTest, StopRightAfterStartReturns) {
  DaemonFixture f;
  f.WriteInputs();
  const DaemonOptions options = f.Options();
  // A stop requested while the update thread is between checking the stop
  // flag and sleeping on its condition variable must still wake it, or
  // Stop() joins forever. Each Start -> Stop cycle runs on a helper thread
  // and must finish within the deadline. A hung cycle can be neither joined
  // nor destroyed, so the process reports it and exits.
  for (int i = 0; i < 200; ++i) {
    std::promise<bool> done;
    std::future<bool> started = done.get_future();
    std::thread cycle([&options, &done] {
      StatusOr<std::unique_ptr<Daemon>> daemon = Daemon::Start(options);
      if (daemon.ok()) (*daemon)->Stop();
      done.set_value(daemon.ok());
    });
    if (started.wait_for(std::chrono::seconds(10)) !=
        std::future_status::ready) {
      ADD_FAILURE() << "Start -> Stop cycle " << i << " did not return in 10 s";
      std::fflush(stdout);
      std::_Exit(1);
    }
    cycle.join();
    ASSERT_TRUE(started.get()) << "Daemon::Start failed in cycle " << i;
  }
}

TEST(DaemonTest, BoundedQueueAnswersBusyUnderBackpressure) {
  DaemonFixture f;
  f.WriteInputs();

  // A FIFO as checkpoint path wedges the update thread deterministically:
  // opening a FIFO for reading blocks until a writer appears, so the queue
  // can be filled at leisure while the in-flight swap is pinned.
  const std::string fifo_path = TempPath("daemon_swap.fifo");
  std::remove(fifo_path.c_str());
  ASSERT_EQ(mkfifo(fifo_path.c_str(), 0600), 0);

  DaemonOptions options = f.Options();
  options.update_queue_capacity = 1;
  StatusOr<std::unique_ptr<Daemon>> daemon = Daemon::Start(options);
  ASSERT_TRUE(daemon.ok()) << daemon.status().ToString();

  // Swap 1 is popped by the update thread and blocks opening the FIFO.
  ASSERT_TRUE((*daemon)->EnqueueSwap(fifo_path, "").ok());
  ASSERT_TRUE(WaitForStats(daemon->get(), [](const DaemonStats& s) {
    return s.pending_updates == 0;
  }));
  // Swap 2 fills the (capacity 1) queue; swap 3 must bounce with the wire
  // kBusy == FailedPrecondition, and nothing is enqueued for it.
  ASSERT_TRUE((*daemon)->EnqueueSwap(f.checkpoint_path, "").ok());
  const Status busy = (*daemon)->EnqueueSwap(f.checkpoint_path, "");
  EXPECT_EQ(busy.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*daemon)->Stats().pending_updates, 1u);

  // Unblock the FIFO with garbage: swap 1 fails to load (counted), then the
  // queued swap 2 applies and the generation advances.
  const int wfd = open(fifo_path.c_str(), O_WRONLY);
  ASSERT_GE(wfd, 0);
  // Opening the write end is what unblocks the loader; the loader's size
  // probe then sees an empty stream and fails the load without reading, so
  // this write may race its close and come back EPIPE. Either outcome
  // wedges the FIFO open loose, which is all this step is for.
  (void)write(wfd, "garbage", 7);
  ::close(wfd);
  EXPECT_TRUE(WaitForStats(daemon->get(), [](const DaemonStats& s) {
    return s.swap_failures == 1 && s.generation == 2 &&
           s.pending_updates == 0;
  }));

  (*daemon)->Stop();
  std::remove(fifo_path.c_str());
}

TEST(DaemonTest, SigkillMidSwapLeavesDiskAndRestartConsistent) {
  DaemonFixture f;
  f.WriteInputs();

  // The victim daemon runs in its own exec'd process (see file comment).
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    execl("/proc/self/exe", "daemon_test", "--daemon-child",
          f.socket_path.c_str(), f.checkpoint_path.c_str(),
          f.dataset_path.c_str(), static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }

  // Wait for the child's socket to come up.
  StatusOr<DaemonClient> client = Status::IoError("not yet");
  for (int i = 0; i < 500 && !client.ok(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    client = DaemonClient::Connect(f.socket_path);
  }
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  // Keep rewriting the checkpoint (atomic save) and hot-swapping it, then
  // SIGKILL the daemon in the middle of the churn.
  for (int i = 0; i < 10; ++i) {
    WriteCheckpoint(f.dataset, 100 + i, f.checkpoint_path);
    const Status status = client->RequestSwap(f.checkpoint_path, "");
    ASSERT_TRUE(status.ok() ||
                status.code() == StatusCode::kFailedPrecondition)
        << status.ToString();
    if (i == 7) {
      ASSERT_EQ(kill(pid, SIGKILL), 0);
      break;
    }
  }
  int wstatus = 0;
  ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(wstatus));
  ASSERT_EQ(WTERMSIG(wstatus), SIGKILL);

  // Disk contract: the checkpoint at the final path is never torn — saves
  // stage to a temp file and rename — so it loads cleanly...
  StatusOr<Checkpoint> on_disk = LoadCheckpoint(f.checkpoint_path);
  ASSERT_TRUE(on_disk.ok()) << on_disk.status().ToString();

  // ...and a restarted daemon serves from it immediately, at generation 1,
  // with answers bit-identical to a fresh Predictor over the same file.
  std::remove(f.socket_path.c_str());  // the dead daemon's stale socket
  StatusOr<std::unique_ptr<Daemon>> revived = Daemon::Start(f.Options());
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  std::vector<int64_t> nodes = {0, 7, 31, 63};
  const GraphContext context = GraphContext::FromDataset(f.dataset);
  StatusOr<Predictor> reference =
      Predictor::FromCheckpoint(f.checkpoint_path, context);
  ASSERT_TRUE(reference.ok());
  StatusOr<std::vector<int64_t>> expected = reference->PredictLabels(nodes);
  ASSERT_TRUE(expected.ok());
  StatusOr<std::vector<int64_t>> served = (*revived)->PredictLabels(nodes);
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(*served, *expected);
  EXPECT_EQ((*revived)->Stats().generation, 1u);
}

}  // namespace

/// Bare daemon process body for the SIGKILL test: serve until killed.
int DaemonChildMain(const char* socket_path, const char* checkpoint_path,
                    const char* dataset_path) {
  DaemonOptions options;
  options.socket_path = socket_path;
  options.checkpoint_path = checkpoint_path;
  options.dataset_path = dataset_path;
  StatusOr<std::unique_ptr<Daemon>> daemon = Daemon::Start(options);
  if (!daemon.ok()) {
    std::fprintf(stderr, "daemon child: %s\n",
                 daemon.status().ToString().c_str());
    return 1;
  }
  (*daemon)->Wait();
  return 0;
}

}  // namespace rdd

int main(int argc, char** argv) {
  // The backpressure test writes into a FIFO whose reader (the daemon's
  // checkpoint loader) may have already failed and closed its end; without
  // this the resulting EPIPE raises SIGPIPE and kills the whole binary.
  signal(SIGPIPE, SIG_IGN);
#ifdef M_ARENA_MAX
  // FinishedConnectionThreadsAreReaped measures leaked thread stacks by
  // VmSize. glibc gives each concurrently live thread its own malloc arena
  // and reserves 64 MiB of address space per arena, so how often two
  // connection threads happened to overlap would swamp that measure. One
  // arena keeps VmSize about stacks.
  mallopt(M_ARENA_MAX, 1);
#endif
  if (argc == 5 && std::string(argv[1]) == "--daemon-child") {
    return rdd::DaemonChildMain(argv[2], argv[3], argv[4]);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
