// ASTRX-style cost compilation [23]: a SpecSet plus a PerformanceModel
// become one scalar function whose minimum is a good circuit.  Constraints
// enter as quadratic penalties in normalized units, scaled by one penalty
// weight; objectives enter as weighted scalarized terms; infeasible
// evaluations (no DC convergence, no unity-gain crossing) get a large but
// finite cost so the annealer can walk out of them.  The infeasible cost
// and the feasibility tolerance are fixed (cost.cpp).
//
// Compilation resolves each spec's performance to its AmplifierValues slot
// once, so a model on the slot path (PerformanceModel::evaluateAmplifier)
// is scored without building or searching a named payload.
#pragma once

#include <atomic>
#include <vector>

#include "sizing/perfmodel.hpp"
#include "sizing/spec.hpp"

namespace amsyn::sizing {

/// Global multiplier on constraint penalties; the feasibility push of
/// sizing::synthesize compiles a second cost at 30 times this weight.
inline constexpr double kPenaltyWeight = 200.0;

class CostFunction {
 public:
  CostFunction(const PerformanceModel& model, SpecSet specs,
               double penaltyWeight = kPenaltyWeight);

  /// Scalar cost at design point x: detailed(x).cost, bit for bit.  Slot
  /// models are scored from their slots; a model that declines the slot
  /// path or throws, a NaN slot and a non-finite cost all take detailed()'s
  /// path, which tags and tallies the failure.  Either way the call counts
  /// one evaluation.
  double operator()(const std::vector<double>& x) const;

  /// Cost with the full evaluation attached (for reporting).  detailed()
  /// is total: a throwing model or a NaN anywhere in the evaluation yields
  /// a large-but-finite cost with the reason in `status` — one poisoned
  /// candidate can never abort or corrupt an optimization run.
  struct Detail {
    double cost = 0.0;
    double penalty = 0.0;
    double objective = 0.0;
    bool feasible = false;
    /// Why the evaluation failed (Ok for clean evaluations, including
    /// feasible-but-bad circuits).
    core::EvalStatus status = core::EvalStatus::Ok;
    Performance performance;
  };
  Detail detailed(const std::vector<double>& x) const;

  const SpecSet& specs() const { return specs_; }
  const PerformanceModel& model() const { return model_; }
  std::size_t evaluationCount() const { return evals_.load(std::memory_order_relaxed); }

 private:
  /// detailed() without counting the evaluation.
  Detail evaluateDetail(const std::vector<double>& x) const;

  const PerformanceModel& model_;
  SpecSet specs_;
  double penaltyWeight_;
  /// Per spec, in spec order: its AmplifierValues slot, or npos when no
  /// slot carries the performance (a missing performance on the slot path).
  std::vector<std::size_t> slots_;
  /// Atomic: one CostFunction is shared by concurrent evaluations (parallel
  /// population scoring).
  mutable std::atomic<std::size_t> evals_{0};
};

}  // namespace amsyn::sizing
