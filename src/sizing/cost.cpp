#include "sizing/cost.hpp"

#include <cmath>

#include "core/metrics.hpp"
#include "sim/stats.hpp"

namespace amsyn::sizing {

CostFunction::CostFunction(const PerformanceModel& model, SpecSet specs, CostOptions opts)
    : model_(model), specs_(std::move(specs)), opts_(opts) {}

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
  if (auto it = d.performance.find("_infeasible"); it != d.performance.end()) {
    d.penalty += opts_.infeasibleCost * it->second;
  }
  // The relaxed-dc residual, when present, acts as an extra penalty even if
  // the caller forgot to spec it — an unconverged bias point must never win.
  if (auto it = d.performance.find("_dc_residual"); it != d.performance.end()) {
    d.penalty += opts_.penaltyWeight * it->second * it->second;
  }

  for (const Spec& s : specs_.specs()) {
    auto it = d.performance.find(s.performance);
    if (s.isObjective()) {
      if (it == d.performance.end()) continue;
      const double v = it->second / s.normalization();
      d.objective += opts_.objectiveWeight * s.weight *
                     (s.kind == SpecKind::Minimize ? v : -v);
    } else {
      if (it == d.performance.end()) {
        d.penalty += opts_.penaltyWeight * s.weight;  // missing = violated
        continue;
      }
      const double viol = s.violation(it->second);
      d.penalty += opts_.penaltyWeight * s.weight * viol * viol;
    }
  }
  d.feasible = !d.performance.count("_infeasible") &&
               specs_.satisfied(d.performance, opts_.feasibilityTolerance) &&
               (!d.performance.count("_dc_residual") ||
                d.performance.at("_dc_residual") < 1e-2);
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
    d.penalty = opts_.infeasibleCost * 1e3;
    d.objective = 0.0;
    d.cost = d.penalty;
    d.feasible = false;
  }
  return d;
}

}  // namespace amsyn::sizing
