#include "serve/daemon.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "data/serialize.h"
#include "observe/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace rdd {

namespace {

/// recv() until `n` bytes arrive. Returns 1 on success, 0 on clean EOF
/// before the first byte, -1 on error, mid-object EOF, or (when `stopping`
/// is non-null) a requested stop. Sockets carry a receive timeout, so the
/// EAGAIN tick is where the stop flag is observed.
int ReadFull(int fd, uint8_t* buf, size_t n,
             const std::atomic<bool>* stopping) {
  size_t got = 0;
  while (got < n) {
    if (stopping != nullptr && stopping->load(std::memory_order_relaxed)) {
      return -1;
    }
    const ssize_t r = recv(fd, buf + got, n - got, 0);
    if (r == 0) return got == 0 ? 0 : -1;
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return -1;
    }
    got += static_cast<size_t>(r);
  }
  return 1;
}

bool WriteFull(int fd, const uint8_t* buf, size_t n) {
  size_t sent = 0;
  while (sent < n) {
    const ssize_t r = send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(r);
  }
  return true;
}

void SetRecvTimeout(int fd, int millis) {
  timeval tv{};
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void PutI64(std::vector<uint8_t>* out, int64_t v) {
  PutU64(out, static_cast<uint64_t>(v));
}

/// Bounds-checked little-endian reader over one payload.
class PayloadReader {
 public:
  PayloadReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  bool ReadU32(uint32_t* v) {
    if (size_ - pos_ < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)])
            << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool ReadU64(uint64_t* v) {
    if (size_ - pos_ < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
            << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool ReadI64(int64_t* v) {
    uint64_t u;
    if (!ReadU64(&u)) return false;
    *v = static_cast<int64_t>(u);
    return true;
  }

  bool ReadString(std::string* s) {
    uint32_t len;
    if (!ReadU32(&len)) return false;
    if (size_ - pos_ < len) return false;
    s->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return true;
  }

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

std::vector<uint8_t> StatusResponse(DaemonStatus status,
                                    const std::string& message) {
  std::vector<uint8_t> out;
  out.push_back(static_cast<uint8_t>(status));
  PutU32(&out, static_cast<uint32_t>(message.size()));
  out.insert(out.end(), message.begin(), message.end());
  return out;
}

bool SendFrame(int fd, const std::vector<uint8_t>& payload) {
  std::vector<uint8_t> header;
  PutU32(&header, static_cast<uint32_t>(payload.size()));
  return WriteFull(fd, header.data(), header.size()) &&
         WriteFull(fd, payload.data(), payload.size());
}

/// Reads one frame. Returns 1 with the payload in *out, 0 on clean EOF,
/// -1 on malformed/oversized frames or transport errors.
int ReadFrame(int fd, std::vector<uint8_t>* out,
              const std::atomic<bool>* stopping) {
  uint8_t header[4];
  const int r = ReadFull(fd, header, sizeof(header), stopping);
  if (r <= 0) return r;
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(header[i]) << (8 * i);
  }
  if (len == 0 || len > kMaxFrameBytes) return -1;
  out->resize(len);
  return ReadFull(fd, out->data(), len, stopping) == 1 ? 1 : -1;
}

}  // namespace

StatusOr<std::shared_ptr<Daemon::Generation>> Daemon::LoadGeneration(
    const std::string& checkpoint_path, const std::string& dataset_path,
    uint64_t number) {
  auto generation = std::make_shared<Generation>();
  StatusOr<Dataset> dataset = LoadDataset(dataset_path);
  if (!dataset.ok()) return dataset.status();
  generation->context = GraphContext::FromDataset(*dataset);
  StatusOr<Predictor> predictor =
      Predictor::FromCheckpoint(checkpoint_path, generation->context);
  if (!predictor.ok()) return predictor.status();
  generation->predictor = std::move(*predictor);
  generation->number = number;
  generation->num_nodes = generation->context.num_nodes;
  return generation;
}

StatusOr<std::unique_ptr<Daemon>> Daemon::Start(const DaemonOptions& options) {
  if (options.socket_path.empty()) {
    return Status::InvalidArgument("socket_path must be set");
  }
  sockaddr_un addr{};
  if (options.socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument(
        StrFormat("socket path too long (%zu bytes, max %zu)",
                  options.socket_path.size(), sizeof(addr.sun_path) - 1));
  }
  if (options.update_queue_capacity < 1) {
    return Status::InvalidArgument("update_queue_capacity must be >= 1");
  }

  std::unique_ptr<Daemon> daemon(new Daemon());
  daemon->options_ = options;
  StatusOr<std::shared_ptr<Generation>> initial =
      LoadGeneration(options.checkpoint_path, options.dataset_path,
                     /*number=*/1);
  if (!initial.ok()) return initial.status();
  daemon->current_ = std::move(*initial);

  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(StrFormat("socket(): %s", std::strerror(errno)));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);
  ::unlink(options.socket_path.c_str());
  if (bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status = Status::IoError(
        StrFormat("bind(%s): %s", options.socket_path.c_str(),
                  std::strerror(errno)));
    ::close(fd);
    return status;
  }
  if (listen(fd, 16) < 0) {
    const Status status =
        Status::IoError(StrFormat("listen(): %s", std::strerror(errno)));
    ::close(fd);
    ::unlink(options.socket_path.c_str());
    return status;
  }
  daemon->listen_fd_ = fd;
  Daemon* raw = daemon.get();
  daemon->accept_thread_ = std::thread([raw] { raw->AcceptLoop(); });
  daemon->update_thread_ = std::thread([raw] { raw->UpdateLoop(); });
  return daemon;
}

Daemon::~Daemon() { Stop(); }

void Daemon::RequestStop() {
  {
    std::scoped_lock lock(queue_mu_, stopped_mu_);
    if (stopping_.exchange(true)) return;
  }
  queue_cv_.notify_all();
  stopped_cv_.notify_all();
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void Daemon::Stop() {
  RequestStop();
  // Join exactly once; later callers (destructor after an explicit Stop,
  // concurrent stops) wait for the first to finish. A separate mutex from
  // stopped_mu_, because a kShutdown connection thread may still be in
  // RequestStop() while this one joins it.
  std::lock_guard<std::mutex> join_lock(join_mu_);
  if (joined_) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  if (update_thread_.joinable()) update_thread_.join();
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (Connection& conn : connections_) conn.thread.join();
    connections_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(options_.socket_path.c_str());
  }
  joined_ = true;
}

void Daemon::Wait() {
  std::unique_lock<std::mutex> lock(stopped_mu_);
  stopped_cv_.wait(lock, [this] {
    return stopping_.load(std::memory_order_relaxed);
  });
}

std::shared_ptr<Daemon::Generation> Daemon::Current() const {
  std::lock_guard<std::mutex> lock(current_mu_);
  return current_;
}

Status Daemon::EnqueueSwap(const std::string& checkpoint_path,
                           const std::string& dataset_path) {
  std::lock_guard<std::mutex> lock(queue_mu_);
  if (stopping_.load(std::memory_order_relaxed)) {
    return Status::FailedPrecondition("daemon is stopping");
  }
  if (queue_.size() >=
      static_cast<size_t>(options_.update_queue_capacity)) {
    return Status::FailedPrecondition("update queue full");
  }
  queue_.push_back(SwapRequest{checkpoint_path, dataset_path});
  queue_cv_.notify_one();
  return Status::Ok();
}

StatusOr<std::vector<int64_t>> Daemon::PredictLabels(
    const std::vector<int64_t>& nodes) {
  // Pin one generation for the whole query: the shared_ptr keeps it alive
  // across a concurrent swap, and its per-generation lock serializes
  // queries (the first builds the table) without ever contending with the
  // swap publish.
  const std::shared_ptr<Generation> generation = Current();
  std::lock_guard<std::mutex> lock(generation->mu);
  StatusOr<std::vector<int64_t>> labels =
      generation->predictor.PredictLabels(nodes);
  if (labels.ok()) {
    queries_served_.fetch_add(nodes.size(), std::memory_order_relaxed);
  }
  return labels;
}

DaemonStats Daemon::Stats() const {
  DaemonStats stats;
  const std::shared_ptr<Generation> generation = Current();
  stats.generation = generation->number;
  stats.num_nodes = generation->num_nodes;
  stats.queries_served = queries_served_.load(std::memory_order_relaxed);
  stats.swap_failures = swap_failures_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stats.pending_updates = static_cast<uint32_t>(queue_.size());
  }
  return stats;
}

void Daemon::UpdateLoop() {
  while (true) {
    SwapRequest request;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_relaxed) || !queue_.empty();
      });
      if (queue_.empty()) return;  // Stopping with nothing left to drain.
      request = std::move(queue_.front());
      queue_.pop_front();
    }
    observe::TraceSpan span("serve/hot_swap");
    // Build the ENTIRE next generation off the serving path. Only the final
    // pointer assignment takes current_mu_, and that lock is held for O(1).
    StatusOr<std::shared_ptr<Generation>> next =
        request.dataset_path.empty()
            ? [&]() -> StatusOr<std::shared_ptr<Generation>> {
                auto generation = std::make_shared<Generation>();
                generation->context = Current()->context;
                StatusOr<Predictor> predictor = Predictor::FromCheckpoint(
                    request.checkpoint_path, generation->context);
                if (!predictor.ok()) return predictor.status();
                generation->predictor = std::move(*predictor);
                generation->num_nodes = generation->context.num_nodes;
                return generation;
              }()
            : LoadGeneration(request.checkpoint_path, request.dataset_path,
                             /*number=*/0);
    if (!next.ok()) {
      swap_failures_.fetch_add(1, std::memory_order_relaxed);
      RDD_LOG(Warning) << "hot swap to " << request.checkpoint_path
                       << " failed: " << next.status().ToString();
      continue;
    }
    // The replaced generation is released after the lock, and only once
    // the last query pinning it has finished.
    std::shared_ptr<Generation> replaced;
    {
      std::lock_guard<std::mutex> lock(current_mu_);
      (*next)->number = current_->number + 1;
      replaced = std::move(current_);
      current_ = std::move(*next);
    }
  }
}

void Daemon::ReapFinishedConnections() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void Daemon::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    {
      // Finished connections are joined here, at least every poll timeout,
      // so live threads (and their stacks) track open connections rather
      // than every connection ever accepted.
      std::lock_guard<std::mutex> lock(conn_mu_);
      ReapFinishedConnections();
    }
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      continue;
    }
    SetRecvTimeout(fd, 200);
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_.load(std::memory_order_relaxed)) {
      ::close(fd);
      break;
    }
    Connection& conn = connections_.emplace_back();
    conn.thread = std::thread([this, fd, done = &conn.done] {
      ServeConnection(fd);
      done->store(true, std::memory_order_release);
    });
  }
}

void Daemon::ServeConnection(int fd) {
  std::vector<uint8_t> payload;
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int r = ReadFrame(fd, &payload, &stopping_);
    if (r <= 0) break;
    const std::vector<uint8_t> response = HandleRequest(payload);
    if (!SendFrame(fd, response)) break;
    if (!payload.empty() &&
        payload[0] == static_cast<uint8_t>(DaemonOp::kShutdown)) {
      // Response is out; now initiate the stop (joining happens in Stop(),
      // never on this thread).
      RequestStop();
      break;
    }
  }
  ::close(fd);
}

std::vector<uint8_t> Daemon::HandleRequest(
    const std::vector<uint8_t>& payload) {
  PayloadReader reader(payload.data() + 1, payload.size() - 1);
  switch (static_cast<DaemonOp>(payload[0])) {
    case DaemonOp::kPredict: {
      uint32_t count = 0;
      if (!reader.ReadU32(&count)) {
        return StatusResponse(DaemonStatus::kInvalid, "short predict frame");
      }
      // The count is checked against the bytes actually present BEFORE
      // anything is allocated: a hostile count must not size a buffer.
      if (static_cast<uint64_t>(count) * 8 != reader.remaining()) {
        return StatusResponse(
            DaemonStatus::kInvalid,
            "predict frame length does not match its node count");
      }
      std::vector<int64_t> nodes(count);
      for (int64_t& node : nodes) reader.ReadI64(&node);
      StatusOr<std::vector<int64_t>> labels = PredictLabels(nodes);
      if (!labels.ok()) {
        return StatusResponse(DaemonStatus::kInvalid,
                              labels.status().ToString());
      }
      std::vector<uint8_t> out;
      out.push_back(static_cast<uint8_t>(DaemonStatus::kOk));
      PutU32(&out, count);
      for (int64_t label : *labels) PutI64(&out, label);
      return out;
    }
    case DaemonOp::kSwap: {
      std::string checkpoint_path;
      std::string dataset_path;
      if (!reader.ReadString(&checkpoint_path) ||
          !reader.ReadString(&dataset_path) || !reader.AtEnd()) {
        return StatusResponse(DaemonStatus::kInvalid, "malformed swap frame");
      }
      const Status status = EnqueueSwap(checkpoint_path, dataset_path);
      if (status.ok()) return StatusResponse(DaemonStatus::kOk, "");
      if (status.code() == StatusCode::kFailedPrecondition) {
        return StatusResponse(DaemonStatus::kBusy, status.message());
      }
      return StatusResponse(DaemonStatus::kError, status.ToString());
    }
    case DaemonOp::kStats: {
      const DaemonStats stats = Stats();
      std::vector<uint8_t> out;
      out.push_back(static_cast<uint8_t>(DaemonStatus::kOk));
      PutU64(&out, stats.generation);
      PutU64(&out, stats.queries_served);
      PutU64(&out, stats.swap_failures);
      PutU32(&out, stats.pending_updates);
      PutI64(&out, stats.num_nodes);
      return out;
    }
    case DaemonOp::kShutdown:
      return StatusResponse(DaemonStatus::kOk, "");
  }
  return StatusResponse(DaemonStatus::kInvalid, "unknown opcode");
}

StatusOr<DaemonClient> DaemonClient::Connect(const std::string& socket_path) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("socket path too long");
  }
  const int fd = socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(StrFormat("socket(): %s", std::strerror(errno)));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status = Status::IoError(StrFormat(
        "connect(%s): %s", socket_path.c_str(), std::strerror(errno)));
    ::close(fd);
    return status;
  }
  SetRecvTimeout(fd, 30000);
  return DaemonClient(fd);
}

DaemonClient::~DaemonClient() {
  if (fd_ >= 0) ::close(fd_);
}

DaemonClient::DaemonClient(DaemonClient&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

DaemonClient& DaemonClient::operator=(DaemonClient&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

StatusOr<std::vector<uint8_t>> DaemonClient::RoundTrip(
    const std::vector<uint8_t>& payload) {
  if (fd_ < 0) return Status::FailedPrecondition("client not connected");
  if (!SendFrame(fd_, payload)) {
    return Status::IoError("send failed (daemon gone?)");
  }
  std::vector<uint8_t> response;
  if (ReadFrame(fd_, &response, nullptr) != 1 || response.empty()) {
    return Status::IoError("short or missing response");
  }
  return response;
}

StatusOr<std::vector<int64_t>> DaemonClient::PredictLabels(
    const std::vector<int64_t>& nodes) {
  std::vector<uint8_t> request;
  request.push_back(static_cast<uint8_t>(DaemonOp::kPredict));
  PutU32(&request, static_cast<uint32_t>(nodes.size()));
  for (int64_t node : nodes) PutI64(&request, node);
  StatusOr<std::vector<uint8_t>> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  PayloadReader reader(response->data() + 1, response->size() - 1);
  if ((*response)[0] != static_cast<uint8_t>(DaemonStatus::kOk)) {
    std::string message;
    reader.ReadString(&message);
    return Status::InvalidArgument(message);
  }
  uint32_t count = 0;
  if (!reader.ReadU32(&count) ||
      count != static_cast<uint32_t>(nodes.size())) {
    return Status::Internal("malformed predict response");
  }
  std::vector<int64_t> labels;
  labels.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    int64_t label;
    if (!reader.ReadI64(&label)) {
      return Status::Internal("short predict response");
    }
    labels.push_back(label);
  }
  return labels;
}

Status DaemonClient::RequestSwap(const std::string& checkpoint_path,
                                 const std::string& dataset_path) {
  std::vector<uint8_t> request;
  request.push_back(static_cast<uint8_t>(DaemonOp::kSwap));
  PutU32(&request, static_cast<uint32_t>(checkpoint_path.size()));
  request.insert(request.end(), checkpoint_path.begin(),
                 checkpoint_path.end());
  PutU32(&request, static_cast<uint32_t>(dataset_path.size()));
  request.insert(request.end(), dataset_path.begin(), dataset_path.end());
  StatusOr<std::vector<uint8_t>> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  const auto status = static_cast<DaemonStatus>((*response)[0]);
  if (status == DaemonStatus::kOk) return Status::Ok();
  PayloadReader reader(response->data() + 1, response->size() - 1);
  std::string message;
  reader.ReadString(&message);
  if (status == DaemonStatus::kBusy) {
    return Status::FailedPrecondition(
        message.empty() ? "update queue full" : message);
  }
  return Status::Internal(message);
}

StatusOr<DaemonStats> DaemonClient::Stats() {
  std::vector<uint8_t> request;
  request.push_back(static_cast<uint8_t>(DaemonOp::kStats));
  StatusOr<std::vector<uint8_t>> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  if ((*response)[0] != static_cast<uint8_t>(DaemonStatus::kOk)) {
    return Status::Internal("stats request failed");
  }
  PayloadReader reader(response->data() + 1, response->size() - 1);
  DaemonStats stats;
  if (!reader.ReadU64(&stats.generation) ||
      !reader.ReadU64(&stats.queries_served) ||
      !reader.ReadU64(&stats.swap_failures) ||
      !reader.ReadU32(&stats.pending_updates) ||
      !reader.ReadI64(&stats.num_nodes)) {
    return Status::Internal("malformed stats response");
  }
  return stats;
}

Status DaemonClient::Shutdown() {
  std::vector<uint8_t> request;
  request.push_back(static_cast<uint8_t>(DaemonOp::kShutdown));
  StatusOr<std::vector<uint8_t>> response = RoundTrip(request);
  if (!response.ok()) return response.status();
  if ((*response)[0] != static_cast<uint8_t>(DaemonStatus::kOk)) {
    return Status::Internal("shutdown refused");
  }
  return Status::Ok();
}

}  // namespace rdd
