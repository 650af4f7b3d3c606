#include "util/env.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/logging.h"

namespace rdd::env {

namespace {

std::string AsciiLower(const char* value) {
  std::string lowered(value);
  for (char& c : lowered) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return lowered;
}

}  // namespace

const std::vector<KnobInfo>& RegisteredKnobs() {
  // Keep in README table order; env_docs_test pins the two against each
  // other. "unset" marks knobs whose absence (not a value) is the default;
  // "auto" marks runtime-detected defaults.
  static const std::vector<KnobInfo> knobs = {
      {"RDD_NUM_THREADS", "auto", "parallel"},
      {"RDD_TASK_PARALLEL", "1", "parallel"},
      {"RDD_SIMD", "auto", "simd"},
      {"RDD_REQUIRE_SIMD", "unset", "simd"},
      {"RDD_FUSE", "1", "simd"},
      {"RDD_POOL_DISABLE", "0", "memory"},
      {"RDD_METRICS", "0", "observe"},
      {"RDD_TRACE", "unset", "observe"},
      {"RDD_BENCH_FULL", "0", "bench"},
      {"RDD_MB_FANOUT", "10,10", "train"},
      {"RDD_MB_SHARDS", "0", "train"},
      {"RDD_CONDENSE", "off", "condense"},
      {"RDD_CONDENSE_RATIO", "0.05", "condense"},
      {"RDD_STREAM_HOPS", "2", "stream"},
  };
  return knobs;
}

bool ParseBool(const char* value, bool fallback, bool* recognized) {
  if (recognized != nullptr) *recognized = true;
  if (value == nullptr || *value == '\0') return fallback;
  const std::string v = AsciiLower(value);
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  if (recognized != nullptr) *recognized = false;
  return fallback;
}

bool BoolEnv(const char* name, bool fallback) {
  const char* value = std::getenv(name);
  bool recognized = true;
  const bool parsed = ParseBool(value, fallback, &recognized);
  if (!recognized) {
    RDD_LOG(Warning) << name << "=" << value
                     << " is not a boolean (1|0|true|false|on|off|yes|no); "
                     << "using default " << (fallback ? "1" : "0");
  }
  return parsed;
}

int ParseInt(const char* value, int fallback, int min_value, int max_value,
             const char* name) {
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0') {
    if (name != nullptr) {
      RDD_LOG(Warning) << name << "=" << value
                       << " is not an integer; using default " << fallback;
    }
    return fallback;
  }
  // ERANGE means the value overflowed long long; treat it like any other
  // out-of-range number and clamp toward the side it overflowed to.
  long long effective = parsed;
  if (errno == ERANGE) {
    effective = parsed > 0 ? static_cast<long long>(max_value) + 1
                           : static_cast<long long>(min_value) - 1;
  }
  if (effective < min_value || effective > max_value) {
    const int clamped = effective < min_value ? min_value : max_value;
    if (name != nullptr) {
      RDD_LOG(Warning) << name << "=" << value << " is outside ["
                       << min_value << ", " << max_value << "]; clamping to "
                       << clamped;
    }
    return clamped;
  }
  return static_cast<int>(effective);
}

int IntEnv(const char* name, int fallback, int min_value, int max_value) {
  return ParseInt(std::getenv(name), fallback, min_value, max_value, name);
}

double ParseDouble(const char* value, double fallback, double min_value,
                   double max_value, const char* name) {
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(value, &end);
  if (end == value || *end != '\0' || parsed != parsed) {
    if (name != nullptr) {
      RDD_LOG(Warning) << name << "=" << value
                       << " is not a number; using default " << fallback;
    }
    return fallback;
  }
  // ERANGE covers both overflow (+-HUGE_VAL, clamped below) and underflow
  // (a denormal-or-zero result, which the clamp handles the same way).
  if (parsed < min_value || parsed > max_value) {
    const double clamped = parsed < min_value ? min_value : max_value;
    if (name != nullptr) {
      RDD_LOG(Warning) << name << "=" << value << " is outside ["
                       << min_value << ", " << max_value << "]; clamping to "
                       << clamped;
    }
    return clamped;
  }
  return parsed;
}

double DoubleEnv(const char* name, double fallback, double min_value,
                 double max_value) {
  return ParseDouble(std::getenv(name), fallback, min_value, max_value, name);
}

}  // namespace rdd::env
