#ifndef PERFBENCH_HARNESS_TRACE_H_
#define PERFBENCH_HARNESS_TRACE_H_

// Benchmark-side spans around the public library calls each workload makes.
// Off by default; the traced run (--trace 1) turns them on. Spans are kept in
// memory and written out once at the end: name, layer, start, end, parent
// span and the id shared by the spans of one request or delta.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static Tracer& Global();

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span as a child of the calling thread's innermost open span.
  /// Returns its index, or -1 when tracing is off.
  int Begin(const char* name, const char* layer, int64_t id);
  void End(int index);

  /// Self time per layer in ms: each span's duration minus the time its
  /// child spans cover, summed by layer.
  std::map<std::string, double> SelfMsByLayer() const;
  size_t size() const;

  /// Name of the span opened last, traced or not: where a hung run stopped.
  const char* last_opened() const { return last_opened_.load(); }

  /// Writes every span as one JSON array. Returns false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    const char* layer;
    int64_t id;
    int parent;
    int64_t start_ns;
    int64_t end_ns;
  };

  bool enabled_ = false;
  std::atomic<const char*> last_opened_{"none"};
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// RAII span; a no-op when tracing is off.
class Span {
 public:
  Span(const char* name, const char* layer, int64_t id = 0)
      : index_(Tracer::Global().Begin(name, layer, id)) {}
  ~Span() { Tracer::Global().End(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_;
};

/// Monotonic clock in seconds.
double NowSeconds();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_TRACE_H_
