// Flow-level resilience primitives:
//
//   * RetryPolicy / BackoffPolicy — deterministic, data-expressed retry
//     with exponential backoff, applied per stage by the FlowEngine
//     (FlowOptions::stageRetry).  The policy is data, so tests can reason
//     about it without subclassing anything; the statuses it retries are
//     the taxonomy's (core::isRetryable).
//   * DeadlineBudget — wall-clock deadlines composed on top of the
//     deterministic work-unit EvalBudget: the budget keeps bit-identical
//     exhaustion points, the deadline adds a strided monotonic-clock check
//     so a livelocked evaluation cannot hang a worker past its allowance.
//
// Layering: below core/flow.hpp (which embeds a RetryPolicy in
// FlowOptions) and above only core/evalstatus.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

#include "core/evalstatus.hpp"

namespace amsyn::core {

/// Exponential backoff: delayMs(retry) for retry = 1, 2, ... grows
/// initialMs * multiplier^(retry-1), capped at maxMs.  A pure function of
/// its argument, so two runs back off identically — which is what keeps
/// chaos soak runs bit-reproducible.
struct BackoffPolicy {
  std::uint64_t initialMs = 10;
  double multiplier = 2.0;
  std::uint64_t maxMs = 1000;

  std::uint64_t delayMs(std::size_t retry) const;

  static BackoffPolicy none() { return {0, 1.0, 0}; }
};

/// Data-expressed retry policy.  `maxAttempts` counts total attempts (1 =
/// no retries); which statuses are worth retrying is the taxonomy's call
/// (core::isRetryable), so OutOfMemory — whose retry would re-run the
/// allocation pattern that just failed — is never retried.
struct RetryPolicy {
  std::size_t maxAttempts = 1;
  BackoffPolicy backoff;

  /// Whether a failure with status `st` after `attemptsSoFar` total
  /// attempts should be retried.
  bool shouldRetry(EvalStatus st, std::size_t attemptsSoFar) const;

  static RetryPolicy none() { return {}; }
  /// Retry every transient (isRetryable) status up to `attempts` total
  /// attempts with the default backoff.
  static RetryPolicy transient(std::size_t attempts) {
    RetryPolicy p;
    p.maxAttempts = attempts;
    return p;
  }
};

/// Wall-clock deadline composed over the deterministic work-unit budget.
/// Construction arms the composed EvalBudget with `now + deadlineMs`
/// (deadlineMs = 0 leaves it a plain budget).  Two check cadences:
///   * expired() — one clock read; for coarse cooperative checkpoints
///     (FlowEngine stage boundaries),
///   * budget().consume() — the Newton-loop cancel points, where the clock
///     is read once per EvalBudget::kDeadlineCheckStride charges.
class DeadlineBudget {
 public:
  explicit DeadlineBudget(std::uint64_t workLimit = 0, std::uint64_t deadlineMs = 0)
      : budget_(workLimit) {
    if (deadlineMs != 0) {
      // Saturate at INT64_MAX instead of overflowing now + ms * 10^6: a
      // deadline beyond ~292 years is "never", not a wrapped past instant.
      constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
      const std::int64_t now = EvalBudget::nowNs();
      const std::uint64_t headroomMs = static_cast<std::uint64_t>(kMax - now) / 1'000'000;
      deadlineNs_ = deadlineMs > headroomMs
                        ? kMax
                        : now + static_cast<std::int64_t>(deadlineMs) * 1'000'000;
      budget_.setDeadlineNs(deadlineNs_);
    }
  }

  EvalBudget& budget() { return budget_; }
  const EvalBudget& budget() const { return budget_; }

  bool armed() const { return deadlineNs_ != 0; }
  std::int64_t deadlineNs() const { return deadlineNs_; }

  /// One clock read; latches the budget's deadline flag so a
  /// boundary-detected expiry and a cancel-point-detected expiry report the
  /// same exhaustionStatus().
  bool expired() { return armed() && budget_.checkDeadline(); }

 private:
  EvalBudget budget_;
  std::int64_t deadlineNs_ = 0;
};

}  // namespace amsyn::core
