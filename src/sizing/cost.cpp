#include "sizing/cost.hpp"

#include <cmath>

#include "core/metrics.hpp"
#include "sim/stats.hpp"

namespace amsyn::sizing {

namespace {
constexpr double kInfeasibleCost = 1e4;  ///< added when the model reports _infeasible
constexpr double kObjectiveWeight = 1.0;  ///< global multiplier on objectives
/// Normalized violation below which a constraint counts as met when
/// reporting feasibility (penalty methods approach constraints
/// asymptotically; 1e-3 = 0.1% of the bound).
constexpr double kFeasibilityTolerance = 1e-3;
}  // namespace

CostFunction::CostFunction(const PerformanceModel& model, SpecSet specs, double penaltyWeight)
    : model_(model), specs_(std::move(specs)), penaltyWeight_(penaltyWeight) {}

double CostFunction::operator()(const std::vector<double>& x) const {
  return detailed(x).cost;
}

CostFunction::Detail CostFunction::detailed(const std::vector<double>& x) const {
  evals_.fetch_add(1, std::memory_order_relaxed);
  static const auto cEvals =
      core::metrics::registry().counter("sizing.cost_evals");
  core::metrics::add(cEvals);
  Detail d;
  // Containment boundary: exceptions and NaN scores become infeasible data.
  d.performance = safeEvaluate(model_, x);
  d.status = performanceStatus(d.performance);
  // One lookup per key: feasibility comes from the same checks that build
  // the penalty (SpecSet::satisfied's rule: a missing performance, or a
  // violation above the tolerance, fails it).
  const auto infeasible = d.performance.find("_infeasible");
  if (infeasible != d.performance.end()) d.penalty += kInfeasibleCost * infeasible->second;
  // The relaxed-dc residual, when present, acts as an extra penalty even if
  // the caller forgot to spec it — an unconverged bias point must never win.
  const auto residual = d.performance.find("_dc_residual");
  if (residual != d.performance.end())
    d.penalty += penaltyWeight_ * residual->second * residual->second;

  bool satisfied = true;
  for (const Spec& s : specs_.specs()) {
    auto it = d.performance.find(s.performance);
    if (s.isObjective()) {
      if (it == d.performance.end()) continue;
      const double v = it->second / s.normalization();
      d.objective += kObjectiveWeight * s.weight *
                     (s.kind == SpecKind::Minimize ? v : -v);
    } else {
      if (it == d.performance.end()) {
        d.penalty += penaltyWeight_ * s.weight;  // missing = violated
        satisfied = false;
        continue;
      }
      const double viol = s.violation(it->second);
      d.penalty += penaltyWeight_ * s.weight * viol * viol;
      if (viol > kFeasibilityTolerance) satisfied = false;
    }
  }
  d.feasible = infeasible == d.performance.end() && satisfied &&
               (residual == d.performance.end() || residual->second < 1e-2);
  d.cost = d.penalty + d.objective;
  // The cost must stay finite: annealers and GAs compare and subtract
  // costs, and one NaN would poison every comparison after it.  A non-finite
  // cost (NaN score that slipped into a penalty term, or an infinite
  // violation) becomes a deterministic, very large penalty — far above any
  // real infeasible evaluation, so such points still lose to everything.
  if (!std::isfinite(d.cost)) {
    if (d.status == core::EvalStatus::Ok) {
      d.status = core::EvalStatus::NanDetected;
      sim::recordEvalFailure(d.status);
    }
    markInfeasible(d.performance, d.status);
    d.penalty = kInfeasibleCost * 1e3;
    d.objective = 0.0;
    d.cost = d.penalty;
    d.feasible = false;
  }
  return d;
}

}  // namespace amsyn::sizing
