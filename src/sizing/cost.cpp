#include "sizing/cost.hpp"

#include <cmath>

#include "core/context.hpp"
#include "core/metrics.hpp"
#include "sim/stats.hpp"

namespace amsyn::sizing {

namespace {

// Pruning gate: a constraint is "confidently infeasible" when even the
// optimistic edge of the prediction band — normalized margin plus kPruneZ
// predictive sigmas — still sits kPruneMargin below zero.  Both constants
// are deliberately conservative: the differential suite counts a false-prune
// budget of ZERO on the seed specs, and a wide band that prunes less is
// strictly safer than a tight one that prunes wrong.
constexpr double kPruneZ = 6.0;
constexpr double kPruneMargin = 0.25;

/// Normalized signed margin of one constraint at a performance value
/// (positive = satisfied with slack).
double normalizedMargin(const Spec& s, double value) {
  const double n = s.normalization();
  return s.kind == SpecKind::GreaterEqual ? (value - s.bound) / n
                                          : (s.bound - value) / n;
}

}  // namespace

CostFunction::CostFunction(const PerformanceModel& model, SpecSet specs, CostOptions opts)
    : model_(model), specs_(std::move(specs)), opts_(opts) {}

double CostFunction::operator()(const std::vector<double>& x) const {
  return detailed(x).cost;
}

void CostFunction::score(Detail& d) const {
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
}

std::optional<CostFunction::Detail> CostFunction::tryPrune(
    const std::vector<double>& x) const {
  if (core::currentSurrogateMode() != core::surrogate::Mode::Pruning) return std::nullopt;
  // Only heavy evaluations are worth skipping: a cheap model's evaluation
  // costs about as much as the prediction that would replace it.
  if (model_.evalCost() != EvalCost::Heavy) return std::nullopt;
  const auto cand = surrogateCandidate(model_, x);
  if (!cand) return std::nullopt;

  std::vector<std::string> names;
  names.reserve(specs_.specs().size());
  for (const Spec& s : specs_.specs()) names.push_back(s.performance);
  auto& store = core::currentSurrogateStore();
  const auto preds = store.predictMany(*cand, names);

  const Spec* trigger = nullptr;
  double triggerUpper = 0.0;
  double triggerSigma = 0.0;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Spec& s = specs_.specs()[i];
    if (s.isObjective() || !preds[i] || !preds[i]->calibrated) continue;
    const double margin = normalizedMargin(s, preds[i]->mean);
    const double sigmaN = preds[i]->sigma / s.normalization();
    const double upper = margin + kPruneZ * sigmaN;
    if (upper < -kPruneMargin && (!trigger || upper < triggerUpper)) {
      trigger = &s;
      triggerUpper = upper;
      triggerSigma = sigmaN;
    }
  }
  if (!trigger) return std::nullopt;

  // Synthetic verdict: predicted means stand in for the evaluation and run
  // through the ordinary scoring formula, so the pruned cost tracks what the
  // real evaluation would have scored (the candidate still lands infeasible:
  // its trigger spec is violated by at least kPruneMargin at +kPruneZ sigma).
  // Deliberately NOT markInfeasible'd — the hard infeasibleCost penalty
  // would hand the optimizer a wildly different cost scale than the real
  // evaluation, perturbing annealing accept decisions far more than the
  // prediction error does.  The status code still tells a pruned candidate
  // from a real verdict.  Never cached (safeEvaluate was never called) and
  // never trained on (the observe hook only sees real evaluations).
  Detail d;
  for (std::size_t i = 0; i < names.size(); ++i)
    if (preds[i]) d.performance[names[i]] = preds[i]->mean;
  d.status = core::EvalStatus::SurrogatePruned;
  score(d);
  d.feasible = false;  // pruned = confidently infeasible, whatever score says
  sim::recordEvalFailure(core::EvalStatus::SurrogatePruned);
  store.recordPrune({cand->classKey, x, trigger->performance, triggerUpper,
                     triggerSigma});
  return d;
}

std::optional<double> CostFunction::predictedCost(const std::vector<double>& x) const {
  if (core::currentSurrogateMode() == core::surrogate::Mode::Off) return std::nullopt;
  const auto cand = surrogateCandidate(model_, x);
  if (!cand) return std::nullopt;
  std::vector<std::string> names;
  names.reserve(specs_.specs().size());
  for (const Spec& s : specs_.specs()) names.push_back(s.performance);
  if (names.empty()) return std::nullopt;
  auto& store = core::currentSurrogateStore();
  const auto preds = store.predictMany(*cand, names);
  Detail d;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (!preds[i]) return std::nullopt;
    d.performance[names[i]] = preds[i]->mean;
  }
  score(d);
  return d.cost;
}

CostFunction::Detail CostFunction::detailed(const std::vector<double>& x) const {
  evals_.fetch_add(1, std::memory_order_relaxed);
  static const auto cEvals =
      core::metrics::registry().counter("sizing.cost_evals");
  core::metrics::add(cEvals);
  if (auto pruned = tryPrune(x)) return *pruned;
  Detail d;
  // Containment boundary: exceptions and NaN scores become infeasible data.
  d.performance = safeEvaluate(model_, x);
  d.status = performanceStatus(d.performance);
  score(d);
  return d;
}

}  // namespace amsyn::sizing
