#include "util/runtime_flags.h"

#include <atomic>

#include "util/env.h"

namespace rdd::flags {

namespace {

std::atomic<bool>& FuseFlag() {
  static std::atomic<bool> enabled{env::BoolEnv("RDD_FUSE", true)};
  return enabled;
}

}  // namespace

bool FuseEnabled() { return FuseFlag().load(std::memory_order_relaxed); }

void SetFuseEnabled(bool enabled) {
  FuseFlag().store(enabled, std::memory_order_relaxed);
}

FuseGuard::FuseGuard(bool enabled) : previous_(FuseEnabled()) {
  SetFuseEnabled(enabled);
}
FuseGuard::~FuseGuard() { SetFuseEnabled(previous_); }

}  // namespace rdd::flags
