#include "harness/trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Innermost open span of this thread, -1 at the top level.
thread_local int tls_open_span = -1;

}  // namespace

double NowSeconds() { return static_cast<double>(NowNs()) * 1e-9; }

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

int Tracer::Begin(const char* name, const char* layer, int64_t id) {
  last_opened_.store(name, std::memory_order_relaxed);
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back({name, layer, id, tls_open_span, NowNs(), 0});
  tls_open_span = static_cast<int>(records_.size()) - 1;
  return tls_open_span;
}

void Tracer::End(int index) {
  if (index < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  Record& record = records_[static_cast<size_t>(index)];
  record.end_ns = now;
  tls_open_span = record.parent;
}

std::map<std::string, double> Tracer::SelfMsByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one span run on its thread, one after another, so the time
  // they cover is the sum of their durations.
  std::vector<int64_t> child_ns(records_.size(), 0);
  for (const Record& record : records_) {
    if (record.parent >= 0) {
      child_ns[static_cast<size_t>(record.parent)] +=
          record.end_ns - record.start_ns;
    }
  }
  std::map<std::string, double> self_ms;
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    const int64_t self = record.end_ns - record.start_ns - child_ns[i];
    self_ms[record.layer] += static_cast<double>(self) * 1e-6;
  }
  return self_ms;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t origin = records_.empty() ? 0 : records_.front().start_ns;
  std::fputs("[\n", f);
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "  {\"span\": %zu, \"name\": \"%s\", \"layer\": \"%s\", "
                 "\"id\": %lld, \"parent\": %d, \"start_us\": %.3f, "
                 "\"end_us\": %.3f}%s\n",
                 i, r.name, r.layer, static_cast<long long>(r.id), r.parent,
                 static_cast<double>(r.start_ns - origin) * 1e-3,
                 static_cast<double>(r.end_ns - origin) * 1e-3,
                 i + 1 < records_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
