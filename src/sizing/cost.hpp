// ASTRX-style cost compilation [23]: a SpecSet plus a PerformanceModel
// become one scalar function whose minimum is a good circuit.  Constraints
// enter as quadratic penalties in normalized units; objectives enter as
// weighted scalarized terms; infeasible evaluations (no DC convergence, no
// unity-gain crossing) get a large but finite cost so the annealer can walk
// out of them.
#pragma once

#include <atomic>
#include <vector>

#include "sizing/perfmodel.hpp"
#include "sizing/spec.hpp"

namespace amsyn::sizing {

struct CostOptions {
  double penaltyWeight = 200.0;    ///< global multiplier on constraint penalties
  double infeasibleCost = 1e4;     ///< added when the model reports _infeasible
  double objectiveWeight = 1.0;    ///< global multiplier on objectives
  /// Normalized violation below which a constraint counts as met when
  /// reporting feasibility (penalty methods approach constraints
  /// asymptotically; 1e-3 = 0.1% of the bound).
  double feasibilityTolerance = 1e-3;
};

class CostFunction {
 public:
  CostFunction(const PerformanceModel& model, SpecSet specs, CostOptions opts = {});

  /// Scalar cost at design point x.
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
  const PerformanceModel& model_;
  SpecSet specs_;
  CostOptions opts_;
  /// Atomic: one CostFunction is shared by concurrent evaluations (parallel
  /// population scoring, multi-start annealing).
  mutable std::atomic<std::size_t> evals_{0};
};

}  // namespace amsyn::sizing
