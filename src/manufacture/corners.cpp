#include "manufacture/corners.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "core/trace.hpp"
#include "numeric/optimize.hpp"

namespace amsyn::manufacture {

using sizing::Spec;
using sizing::SpecKind;

circuit::Process VariationSpace::apply(const circuit::Process& nominal,
                                       const std::vector<double>& c) const {
  if (c.size() != kDims) throw std::invalid_argument("VariationSpace::apply: dimension");
  auto u = [&](std::size_t i) { return std::clamp(c[i], 0.0, 1.0); };
  circuit::Process p = nominal;
  p.vdd = nominal.vdd * (1.0 - vddRel + 2.0 * vddRel * u(0));
  p.temperature = tempMin + (tempMax - tempMin) * u(1);
  p.kpN = nominal.kpN * (1.0 - kpRel + 2.0 * kpRel * u(2));
  p.kpP = nominal.kpP * (1.0 - kpRel + 2.0 * kpRel * u(3));
  p.vt0N = nominal.vt0N + (-vtAbs + 2.0 * vtAbs * u(4));
  p.vt0P = nominal.vt0P + (-vtAbs + 2.0 * vtAbs * u(5));
  // First-order temperature dependence: mobility degrades ~T^-1.5, Vt drifts
  // ~-2 mV/K relative to 300 K.
  const double tRatio = p.temperature / 300.15;
  p.kpN *= std::pow(tRatio, -1.5);
  p.kpP *= std::pow(tRatio, -1.5);
  p.vt0N -= 2e-3 * (p.temperature - 300.15);
  p.vt0P += 2e-3 * (p.temperature - 300.15);
  return p;
}

namespace {

/// Signed normalized margin of a constraint spec at a performance value
/// (negative = violated).  An _infeasible evaluation or a missing
/// performance reads as violated (-1.0): the pessimistic reading, which is
/// the correct worst-case semantics for a corner we could not evaluate.
double signedMargin(const Spec& spec, const sizing::Performance& perf) {
  if (perf.count("_infeasible")) return -1.0;
  auto it = perf.find(spec.performance);
  if (it == perf.end()) return -1.0;
  return spec.kind == SpecKind::GreaterEqual
             ? (it->second - spec.bound) / spec.normalization()
             : (spec.bound - it->second) / spec.normalization();
}

}  // namespace

std::vector<WorstCorner> worstCaseCorners(const ModelFactory& factory,
                                          const circuit::Process& nominal,
                                          const VariationSpace& space,
                                          const std::vector<double>& x,
                                          const std::vector<Spec>& specs) {
  // Refuse a spec with no margin to hunt before evaluating anything.  An
  // objective would tie every vertex at +inf, and a NaN or infinite bound
  // makes every margin NaN: either way no vertex is ever worse than +inf,
  // so no worst corner is found to refine.
  for (const auto& spec : specs) {
    if (spec.isObjective())
      throw std::invalid_argument("worstCaseCorners: objective spec '" + spec.performance +
                                  "' has no margin to hunt");
    if (!std::isfinite(spec.bound))
      throw std::invalid_argument("worstCaseCorners: spec '" + spec.performance +
                                  "' has a non-finite bound");
  }
  if (specs.empty()) return {};
  AMSYN_SPAN("corner_hunt");
  static const auto cVertexEvals =
      core::metrics::registry().counter("corners.vertex_evals");
  // safeEvaluate: a corner whose evaluation throws or yields NaN comes back
  // tagged _infeasible, which signedMargin reads as violated.
  const auto evaluateAt = [&](const std::vector<double>& c) {
    return sizing::safeEvaluate(*factory(space.apply(nominal, c)), x);
  };

  // Stage 1: evaluate the 2^6 box vertices (worst cases of quasi-monotone
  // circuit responses live at vertices) once, concurrently, one model per
  // vertex; every spec is scored from the same Performance.  Each spec's
  // reduction scans in mask order with a strict <, so its winner is
  // identical to the serial loop's at any thread count.
  constexpr std::size_t kVertices = std::size_t{1} << VariationSpace::kDims;
  const auto vertexCoords = [](std::size_t mask) {
    std::vector<double> c(VariationSpace::kDims);
    for (std::size_t i = 0; i < VariationSpace::kDims; ++i)
      c[i] = (mask >> i) & 1u ? 1.0 : 0.0;
    return c;
  };
  const auto vertexPerfs = core::parallelMap(
      kVertices, [&](std::size_t mask) { return evaluateAt(vertexCoords(mask)); });
  core::metrics::add(cVertexEvals, kVertices);

  // Stage 2, per spec and concurrently across specs: local refinement from
  // the spec's worst vertex — interior worst cases (non-monotone responses
  // like phase margin) are caught here.  Coordinate search probes are
  // fresh evaluations, its start vertex and repeated points included.
  return core::parallelMap(specs.size(), [&](std::size_t s) {
    const Spec& spec = specs[s];
    WorstCorner worst;
    worst.margin = std::numeric_limits<double>::infinity();
    for (std::size_t mask = 0; mask < kVertices; ++mask) {
      const double margin = signedMargin(spec, vertexPerfs[mask]);
      if (margin < worst.margin) {
        worst.margin = margin;
        worst.corner = vertexCoords(mask);
      }
    }

    num::BoxBounds box{std::vector<double>(VariationSpace::kDims, 0.0),
                       std::vector<double>(VariationSpace::kDims, 1.0)};
    num::CoordinateSearchOptions cs;
    cs.maxSweeps = 20;
    cs.initialStep = 0.25;
    const auto refined = num::coordinateSearch(
        [&](const std::vector<double>& c) { return signedMargin(spec, evaluateAt(c)); },
        worst.corner, box, cs);
    if (refined.value < worst.margin) {
      worst.margin = refined.value;
      worst.corner = refined.x;
    }

    const auto perf = evaluateAt(worst.corner);
    if (auto it = perf.find(spec.performance); it != perf.end()) worst.value = it->second;
    // The shared vertex pass is billed once, to the first spec.
    worst.evaluations = (s == 0 ? kVertices : 0) + refined.evaluations + 1;
    return worst;
  });
}

WorstCorner worstCaseCorner(const ModelFactory& factory, const circuit::Process& nominal,
                            const VariationSpace& space, const std::vector<double>& x,
                            const Spec& spec) {
  return worstCaseCorners(factory, nominal, space, x, {spec}).front();
}

namespace {

/// Model whose evaluation is the worst case over an explicit corner set:
/// constraint-relevant performances take their most pessimistic value across
/// corners, objectives their nominal value, each corner through
/// safeEvaluate.
class CornerSetModel : public sizing::PerformanceModel {
 public:
  CornerSetModel(const ModelFactory& factory, const circuit::Process& nominal,
                 const VariationSpace& space, const sizing::SpecSet& specs,
                 const std::vector<std::vector<double>>& corners)
      : specs_(specs) {
    models_.push_back(factory(nominal));  // corner 0 = nominal
    for (const auto& c : corners) models_.push_back(factory(space.apply(nominal, c)));
  }

  const std::vector<sizing::DesignVariable>& variables() const override {
    return models_.front()->variables();
  }

  sizing::Performance evaluate(const std::vector<double>& x) const override {
    // Evaluate every corner model concurrently (each is a distinct object,
    // so no shared mutable state), then aggregate in corner order — the
    // min/max reduction is order-independent anyway, but keeping a fixed
    // order costs nothing and keeps floating-point identity trivial.
    // Small sets stay serial: the pool round-trip would dominate the
    // microsecond equation models.
    // Corners route through safeEvaluate: one throwing corner model marks
    // the aggregate _infeasible below instead of tearing down its siblings.
    std::vector<sizing::Performance> perfs;
    if (models_.size() >= 4) {
      perfs = core::parallelMap(models_.size(), [&](std::size_t k) {
        return sizing::safeEvaluate(*models_[k], x);
      });
    } else {
      perfs.reserve(models_.size());
      for (const auto& m : models_) perfs.push_back(sizing::safeEvaluate(*m, x));
    }
    sizing::Performance agg = std::move(perfs.front());
    for (std::size_t k = 1; k < models_.size(); ++k) {
      const auto& perf = perfs[k];
      for (const auto& spec : specs_.specs()) {
        if (spec.isObjective()) continue;
        auto it = perf.find(spec.performance);
        if (it == perf.end()) continue;
        auto& cur = agg[spec.performance];
        cur = spec.kind == SpecKind::GreaterEqual ? std::min(cur, it->second)
                                                  : std::max(cur, it->second);
      }
      if (perf.count("_infeasible")) {
        agg["_infeasible"] = 1.0;
        // First failing corner's reason sticks (emplace semantics).
        if (auto st = perf.find(sizing::kEvalStatusKey); st != perf.end())
          agg.emplace(sizing::kEvalStatusKey, st->second);
      }
    }
    return agg;
  }

 private:
  sizing::SpecSet specs_;
  std::vector<std::unique_ptr<sizing::PerformanceModel>> models_;
};

}  // namespace

RobustResult robustSynthesize(const ModelFactory& factory, const circuit::Process& nominal,
                              const VariationSpace& space, const sizing::SpecSet& specs,
                              const RobustOptions& opts) {
  RobustResult result;

  // Reference run: nominal-only synthesis.  Phase wall times land both in
  // the result (bench_claim_corners reports the paper's 4x-10x CPU premium
  // from them) and in trace spans for the run report.
  {
    AMSYN_SPAN("nominal_sizing");
    const std::uint64_t t0 = core::trace::monotonicNowNs();
    const auto nominalModel = factory(nominal);
    const sizing::CostFunction cost(*nominalModel, specs, opts.cost);
    result.nominal = sizing::synthesize(cost, opts.synthesis);
    result.nominalEvaluations = static_cast<double>(result.nominal.evaluations);
    result.nominalSeconds =
        static_cast<double>(core::trace::monotonicNowNs() - t0) * 1e-9;
  }
  const std::uint64_t tCorner0 = core::trace::monotonicNowNs();
  AMSYN_SPAN("corner_search");

  // Cutting-plane loop.
  std::vector<std::vector<double>> corners;
  sizing::SynthesisResult current = result.nominal;
  double robustEvals = result.nominalEvaluations;

  // Constraint specs, hunted together each round: one vertex pass at the
  // current design scores them all, then each refines its own worst vertex.
  std::vector<Spec> constraintSpecs;
  for (const auto& spec : specs.specs())
    if (!spec.isObjective()) constraintSpecs.push_back(spec);

  std::vector<WorstCorner> hunts;
  bool fixedPoint = false;
  for (std::size_t round = 0; round < opts.maxRounds; ++round) {
    ++result.rounds;
    // Hunt a worst corner per constraint spec at the current design; append
    // violated corners in spec order so the accumulated set (and therefore
    // the re-synthesis) is independent of scheduling.
    hunts = worstCaseCorners(factory, nominal, space, current.x, constraintSpecs);
    bool addedCorner = false;
    for (const auto& wc : hunts) {
      robustEvals += static_cast<double>(wc.evaluations);
      // A corner already in the set cuts nothing, though the penalty method
      // can leave it a margin just below zero (inside the cost's
      // feasibility tolerance): re-adding it would re-run the same synthesis.
      if (wc.margin < 0.0 &&
          std::find(corners.begin(), corners.end(), wc.corner) == corners.end()) {
        corners.push_back(wc.corner);
        addedCorner = true;
      }
    }
    if (!addedCorner) {  // fixed point: no violated corner outside the set
      fixedPoint = true;
      break;
    }

    AMSYN_SPAN("corner_round");
    CornerSetModel cornerModel(factory, nominal, space, specs, corners);
    const sizing::CostFunction cost(cornerModel, specs, opts.cost);
    current = sizing::synthesize(cost, opts.synthesis);
    // Each corner-set evaluation simulates (1 + #corners) models.
    robustEvals +=
        static_cast<double>(current.evaluations) * static_cast<double>(1 + corners.size());
  }

  // Final verdict: every spec's worst corner at the final design.  A
  // fixed-point stop hunted at this very design, so the stopping round's
  // hunts stand as the audit; a maxRounds exit re-synthesized after its
  // last hunt, so it hunts again.
  if (!fixedPoint) {
    AMSYN_SPAN("corner_audit");
    hunts = worstCaseCorners(factory, nominal, space, current.x, constraintSpecs);
    for (const auto& wc : hunts) robustEvals += static_cast<double>(wc.evaluations);
  }
  result.robustFeasibleAtCorners =
      current.feasible && std::none_of(hunts.begin(), hunts.end(), [](const WorstCorner& wc) {
        return wc.margin < -1e-3;
      });

  result.robust = current;
  result.activeCorners = corners.size();
  result.robustEvaluations = robustEvals;
  result.cornerSearchSeconds =
      static_cast<double>(core::trace::monotonicNowNs() - tCorner0) * 1e-9;
  return result;
}

}  // namespace amsyn::manufacture
