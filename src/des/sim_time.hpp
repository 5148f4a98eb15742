// Simulated time.
//
// Time is an integer count of nanoseconds since simulation start. Integer
// time makes event ordering total and platform-independent; conversions to
// and from double seconds happen only at the configuration and reporting
// boundaries.
#pragma once

#include <cmath>
#include <cstdint>
#include <string>

namespace cloudburst::des {

/// Nanoseconds since simulation start.
using SimTime = std::int64_t;

/// A duration in simulated nanoseconds.
using SimDuration = std::int64_t;

constexpr SimTime kSimStart = 0;
constexpr SimDuration kNanosecond = 1;
constexpr SimDuration kMicrosecond = 1'000;
constexpr SimDuration kMillisecond = 1'000'000;
constexpr SimDuration kSecond = 1'000'000'000;

/// double seconds -> integer nanoseconds, rounded to nearest.
constexpr SimDuration from_seconds(double seconds) {
  return static_cast<SimDuration>(seconds * 1e9 + (seconds >= 0 ? 0.5 : -0.5));
}

/// integer nanoseconds -> double seconds.
constexpr double to_seconds(SimDuration d) { return static_cast<double>(d) * 1e-9; }

/// "123.456s" style rendering for logs.
std::string format(SimTime t);

/// Largest configured time (seconds) a run accepts. Sums of a few such times
/// (job submission + fault time + window) still fit SimTime.
constexpr double kMaxSeconds = 1e9;

/// A usable configured time: in [0, kMaxSeconds] (NaN fails both tests).
/// kSecondsRule words the rule for error messages.
constexpr bool valid_seconds(double seconds) {
  return seconds >= 0.0 && seconds <= kMaxSeconds;
}
constexpr const char* kSecondsRule = "must be non-negative, finite and at most 1e9 s";

}  // namespace cloudburst::des
