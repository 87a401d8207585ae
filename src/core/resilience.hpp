// DeadlineBudget: a wall-clock deadline composed on top of the
// deterministic work-unit EvalBudget.  The budget keeps bit-identical
// exhaustion points; the deadline adds a strided monotonic-clock check so a
// livelocked evaluation cannot hang a worker past its allowance.  The flow
// engine owns one per job (ContextConfig::jobDeadlineMs).
//
// Layering: below core/flowgraph.hpp and above only core/evalstatus.hpp.
#pragma once

#include <cstdint>
#include <limits>

#include "core/evalstatus.hpp"

namespace amsyn::core {

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
