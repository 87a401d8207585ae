#include "sizing/synth.hpp"

#include <algorithm>
#include <cmath>

#include "core/parallel.hpp"
#include "core/trace.hpp"
#include "numeric/optimize.hpp"
#include "numeric/rng.hpp"

namespace amsyn::sizing {

namespace {

/// Bijection between the design box and the annealer's internal unit cube,
/// respecting per-variable log scaling.
struct Scaler {
  explicit Scaler(const std::vector<DesignVariable>& vars) : vars_(&vars) {}

  double toUnit(double v, std::size_t i) const {
    const auto& d = (*vars_)[i];
    if (d.logScale && d.lo > 0)
      return std::log(v / d.lo) / std::log(d.hi / d.lo);
    return (v - d.lo) / (d.hi - d.lo);
  }
  double fromUnit(double u, std::size_t i) const {
    const auto& d = (*vars_)[i];
    u = std::clamp(u, 0.0, 1.0);
    if (d.logScale && d.lo > 0) return d.lo * std::pow(d.hi / d.lo, u);
    return d.lo + u * (d.hi - d.lo);
  }
  std::vector<double> fromUnit(const std::vector<double>& u) const {
    std::vector<double> x(u.size());
    for (std::size_t i = 0; i < u.size(); ++i) x[i] = fromUnit(u[i], i);
    return x;
  }

  const std::vector<DesignVariable>* vars_;
};

/// One annealing + refinement run seeded with `seed` (the classic OPTIMAN /
/// FRIDGE / OBLX recipe).  Pure given (cost, opts, seed): no shared mutable
/// state beyond the cost function's atomic evaluation counter, so starts
/// may run concurrently.
SynthesisResult synthesizeSingle(const CostFunction& cost, const SynthesisOptions& opts,
                                 std::uint64_t seed) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto& vars = cost.model().variables();
  const std::size_t n = vars.size();
  const Scaler scaler(vars);

  // Annealing state: unit-cube coordinates.
  std::vector<double> u(n), uPrev(n), uBest(n);
  const auto x0 =
      opts.startPoint.size() == n ? opts.startPoint : cost.model().initialPoint();
  for (std::size_t i = 0; i < n; ++i) u[i] = scaler.toUnit(x0[i], i);
  uPrev = uBest = u;

  double stepScale = 0.25;
  std::size_t sinceCool = 0;

  num::AnnealProblem prob;
  prob.cost = [&] { return cost(scaler.fromUnit(u)); };
  prob.propose = [&](num::Rng& rng) {
    uPrev = u;
    // Perturb one to three coordinates; shrink moves slowly over time.
    const std::size_t moves = 1 + rng.index(3);
    for (std::size_t m = 0; m < moves; ++m) {
      const std::size_t i = rng.index(n);
      u[i] = std::clamp(u[i] + rng.normal(0.0, stepScale * vars[i].moveScale), 0.0, 1.0);
    }
    if (++sinceCool % 512 == 0) stepScale = std::max(0.02, stepScale * 0.95);
  };
  prob.undo = [&] { u = uPrev; };
  prob.snapshot = [&] { uBest = u; };

  num::AnnealOptions aopts = opts.anneal;
  aopts.seed = seed;
  if (aopts.problemSizeHint == 16) aopts.problemSizeHint = std::max<std::size_t>(n, 4);
  num::anneal(prob, aopts);

  // Local refinement from the annealing best.
  num::BoxBounds unitBox{std::vector<double>(n, 0.0), std::vector<double>(n, 1.0)};
  num::NelderMeadOptions nm;
  nm.maxEvaluations = opts.refineEvaluations;
  nm.initialStep = 0.05;
  const auto refined = num::nelderMead(
      [&](const std::vector<double>& uu) { return cost(scaler.fromUnit(uu)); }, uBest,
      unitBox, nm);

  const std::vector<double> xBest = scaler.fromUnit(
      refined.value <= cost(scaler.fromUnit(uBest)) ? refined.x : uBest);

  SynthesisResult res;
  res.x = xBest;
  const auto detail = cost.detailed(xBest);
  res.performance = detail.performance;
  res.cost = detail.cost;
  res.feasible = detail.feasible;
  res.evaluations = cost.evaluationCount();
  res.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return res;
}

}  // namespace

SynthesisResult synthesize(const CostFunction& cost, const SynthesisOptions& opts) {
  AMSYN_SPAN("synthesize");
  if (opts.multistarts <= 1) return synthesizeSingle(cost, opts, opts.seed);

  // Parallel multi-start: independent anneals on split RNG streams, best
  // result wins.  The reduction prefers feasibility, then cost, then the
  // lowest start index — a total order with no dependence on completion
  // order, so the winner is identical at any thread count.
  const std::size_t evalsBefore = cost.evaluationCount();
  const auto t0 = std::chrono::steady_clock::now();
  auto runs = core::parallelMap(opts.multistarts, [&](std::size_t k) {
    SynthesisOptions single = opts;
    single.multistarts = 1;
    return synthesizeSingle(cost, single, num::Rng::streamSeed(opts.seed, k));
  });
  std::size_t winner = 0;
  for (std::size_t k = 1; k < runs.size(); ++k) {
    const bool better = (runs[k].feasible && !runs[winner].feasible) ||
                        (runs[k].feasible == runs[winner].feasible &&
                         runs[k].cost < runs[winner].cost);
    if (better) winner = k;
  }
  SynthesisResult res = std::move(runs[winner]);
  // Per-start counter snapshots interleave under concurrency; the total
  // across all starts is deterministic.
  res.evaluations = cost.evaluationCount() - evalsBefore;
  res.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return res;
}

SynthesisResult synthesize(const PerformanceModel& model, const SpecSet& specs,
                           const SynthesisOptions& opts, const CostOptions& costOpts) {
  const CostFunction cost(model, specs, costOpts);
  SynthesisResult res = synthesize(cost, opts);
  if (res.feasible || !opts.feasibilityPush) return res;

  // Feasibility push: crank the penalty weight (keeping the objective as an
  // anchor so the point cannot drift into expensive feasibility) and descend
  // greedily from the best point found.  This closes the small residual
  // violations a finite penalty weight leaves behind.
  CostOptions pushCost = costOpts;
  pushCost.penaltyWeight *= 30.0;
  const CostFunction push(model, specs, pushCost);
  SynthesisOptions pushOpts = opts;
  pushOpts.startPoint = res.x;
  pushOpts.feasibilityPush = false;
  pushOpts.multistarts = 1;  // the push is a greedy descent from res.x
  pushOpts.anneal.initialTemperature = 1e-12;  // greedy descent only
  pushOpts.anneal.stagnationStages = 4;
  pushOpts.refineEvaluations = std::max<std::size_t>(opts.refineEvaluations, 600);
  const SynthesisResult pushed = synthesize(push, pushOpts);

  // Re-judge the pushed point under the original cost for honest reporting.
  const auto detail = cost.detailed(pushed.x);
  if (detail.feasible || detail.cost < res.cost) {
    res.x = pushed.x;
    res.performance = detail.performance;
    res.cost = detail.cost;
    res.feasible = detail.feasible;
  }
  res.evaluations += pushed.evaluations;
  res.seconds += pushed.seconds;
  return res;
}

}  // namespace amsyn::sizing
