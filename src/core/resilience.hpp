// Deadline: the one wall-clock stop for a flow job.  The flow engine owns
// one per job (ContextConfig::jobDeadlineMs) and checks it at every stage
// boundary; the verify measurements charge it at their Newton-loop cancel
// points so a livelocked evaluation cannot hang a worker past its
// allowance.  A deadline trip point is machine-dependent by nature, so
// nothing that must repeat bit for bit arms one.
//
// Header-only on purpose, with no amsyn includes: amsyn_sim charges it
// without linking amsyn_core, and core/flowgraph.hpp sits above it.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>

namespace amsyn::core {

/// Absolute monotonic-clock deadline (0 = never expires).  Two check
/// cadences:
///   * expired() — one unconditional clock read; for coarse cooperative
///     checkpoints (FlowEngine stage boundaries),
///   * consume() — the Newton-loop cancel points, where the clock is read
///     once per kDeadlineCheckStride charges, so the nominal path pays one
///     integer decrement per charge (bench/bench_robustness measures it).
/// Both latch, so a boundary-detected and a cancel-point-detected expiry
/// look the same; either one reports EvalStatus::DeadlineExpired.
class Deadline {
 public:
  /// Clock-read cadence, in charges.  A Newton iteration on the benchmark
  /// circuits costs ~1-10 us, so 64 charges keeps detection latency under a
  /// millisecond while amortizing the clock read to noise.
  static constexpr std::uint64_t kDeadlineCheckStride = 64;

  /// Arms `now + ms` (ms = 0 leaves it unarmed).
  explicit Deadline(std::uint64_t ms = 0) {
    if (ms == 0) return;
    // Saturate at INT64_MAX instead of overflowing now + ms * 10^6: a
    // deadline beyond ~292 years is "never", not a wrapped past instant.
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    const std::int64_t now = nowNs();
    const std::uint64_t headroomMs = static_cast<std::uint64_t>(kMax - now) / 1'000'000;
    setDeadlineNs(ms > headroomMs ? kMax
                                  : now + static_cast<std::int64_t>(ms) * 1'000'000);
  }

  /// Arm (or clear, absNs = 0) an absolute monotonic instant.  The next
  /// consume() always reads the clock, so an already-past instant fails the
  /// very first charge — which is what makes deadline tests deterministic.
  void setDeadlineNs(std::int64_t absNs) {
    deadlineNs_ = absNs;
    untilCheck_ = 0;
    expired_ = false;
  }
  std::int64_t deadlineNs() const { return deadlineNs_; }

  /// Charge one unit at a cancel point.  Returns false once the deadline
  /// has passed; the caller must then abandon the analysis and report
  /// DeadlineExpired.
  bool consume() {
    if (deadlineNs_ == 0) return true;
    if (expired_) return false;
    if (untilCheck_ == 0) {
      untilCheck_ = kDeadlineCheckStride;
      expired_ = nowNs() >= deadlineNs_;
    }
    --untilCheck_;
    return !expired_;
  }

  /// Unconditional clock read (stage-boundary checkpoints, where one read
  /// per stage is noise): latches and returns whether the deadline passed.
  bool expired() {
    if (deadlineNs_ != 0 && !expired_ && nowNs() >= deadlineNs_) expired_ = true;
    return expired_;
  }

  /// Monotonic now in ns (steady_clock; shared by every deadline consumer
  /// so "absolute deadline ns" means one thing across the process).
  static std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::int64_t deadlineNs_ = 0;  ///< absolute monotonic ns; 0 = no deadline
  std::uint64_t untilCheck_ = 0;  ///< charges until the next clock read
  bool expired_ = false;
};

}  // namespace amsyn::core
