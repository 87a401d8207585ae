#include "sizing/cost.hpp"

#include <algorithm>
#include <cmath>
#include <string>

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

/// The spec terms, in spec order, added onto `penalty` and `objective`.
/// `value(i, spec)` is spec i's performance, or nullptr when the evaluation
/// lacks it; `satisfied` turns false on a missing or violated constraint
/// (SpecSet::satisfied's rule at the feasibility tolerance).
template <typename Value>
void addSpecTerms(const std::vector<Spec>& specs, double penaltyWeight, const Value& value,
                  double& penalty, double& objective, bool& satisfied) {
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Spec& s = specs[i];
    const double* v = value(i, s);
    if (s.isObjective()) {
      if (!v) continue;
      const double scaled = *v / s.normalization();
      objective += kObjectiveWeight * s.weight * (s.kind == SpecKind::Minimize ? scaled : -scaled);
    } else {
      if (!v) {
        penalty += penaltyWeight * s.weight;  // missing = violated
        satisfied = false;
        continue;
      }
      const double viol = s.violation(*v);
      penalty += penaltyWeight * s.weight * viol * viol;
      if (viol > kFeasibilityTolerance) satisfied = false;
    }
  }
}

void countEvaluation(std::atomic<std::size_t>& evals) {
  evals.fetch_add(1, std::memory_order_relaxed);
  static const auto cEvals = core::metrics::registry().counter("sizing.cost_evals");
  core::metrics::add(cEvals);
}

}  // namespace

CostFunction::CostFunction(const PerformanceModel& model, SpecSet specs, double penaltyWeight)
    : model_(model), specs_(std::move(specs)), penaltyWeight_(penaltyWeight) {
  slots_.reserve(specs_.specs().size());
  for (const Spec& s : specs_.specs())
    slots_.push_back(amplifierSlot(s.performance).value_or(std::string::npos));
}

double CostFunction::operator()(const std::vector<double>& x) const {
  countEvaluation(evals_);
  AmplifierValues v{};
  bool slotted = false;
  try {
    slotted = model_.evaluateAmplifier(x, v);
  } catch (...) {
    // detailed()'s path below re-evaluates, then tags and tallies the throw.
  }
  if (slotted && std::none_of(v.begin(), v.end(), [](double e) { return std::isnan(e); })) {
    // What detailed() computes for a clean payload of these eight values:
    // no taxonomy keys, so no infeasible or residual penalty.
    double penalty = 0.0, objective = 0.0;
    bool satisfied = true;
    addSpecTerms(
        specs_.specs(), penaltyWeight_,
        [&](std::size_t i, const Spec&) {
          return slots_[i] == std::string::npos ? nullptr : &v[slots_[i]];
        },
        penalty, objective, satisfied);
    const double cost = penalty + objective;
    if (std::isfinite(cost)) return cost;
  }
  return evaluateDetail(x).cost;
}

CostFunction::Detail CostFunction::detailed(const std::vector<double>& x) const {
  countEvaluation(evals_);
  return evaluateDetail(x);
}

CostFunction::Detail CostFunction::evaluateDetail(const std::vector<double>& x) const {
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
  addSpecTerms(
      specs_.specs(), penaltyWeight_,
      [&](std::size_t, const Spec& s) {
        const auto it = d.performance.find(s.performance);
        return it == d.performance.end() ? nullptr : &it->second;
      },
      d.penalty, d.objective, satisfied);
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
