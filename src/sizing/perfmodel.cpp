#include "sizing/perfmodel.hpp"

#include <algorithm>
#include <cmath>

#include "circuit/process.hpp"
#include "sim/stats.hpp"

namespace amsyn::sizing {

using core::EvalStatus;

namespace {

/// Feed one fresh evaluation to the surrogate store, whose only consumer is
/// the corner hunt's vertex screen (manufacture::worstCaseCorner).  Training
/// data is the by-product of real evaluations only: feasible maps (the
/// taxonomy keys "_infeasible"/"_status" never become regression targets)
/// and fresh misses (cache hits return before this point).  A screened
/// vertex is never evaluated, so the surrogate can never train on its own
/// predictions.
void observeSurrogate(core::ExecutionContext& ctx, const PerformanceModel& model,
                      const std::vector<double>& x, const Performance& perf) {
  if (!ctx.config().surrogateScreening) return;
  if (perf.count("_infeasible")) return;
  const auto cand = surrogateCandidate(model, x);
  if (!cand) return;
  Performance heads;
  for (const auto& [name, value] : perf)
    if (!name.empty() && name[0] != '_') heads.emplace(name, value);
  if (!heads.empty()) ctx.surrogateStore().observe(*cand, heads);
}

}  // namespace

std::optional<core::surrogate::Candidate> surrogateCandidate(
    const PerformanceModel& model, const std::vector<double>& x) {
  const auto sig = model.surrogateSignature();
  if (!sig) return std::nullopt;
  const auto& vars = model.variables();
  if (x.size() != vars.size()) return std::nullopt;
  core::surrogate::Candidate c;
  core::cache::Hasher128 h;
  h.mixString("surrogate-class");
  h.mixDigest(sig->classKey);
  h.mix(1 + vars.size() + sig->context.size());
  c.classKey = h.digest();
  c.features.reserve(1 + vars.size() + sig->context.size());
  c.features.push_back(1.0);
  for (std::size_t i = 0; i < vars.size(); ++i) {
    const DesignVariable& v = vars[i];
    double t = 0.5;
    if (v.logScale && v.lo > 0.0 && v.hi > v.lo && x[i] > 0.0)
      t = std::log(x[i] / v.lo) / std::log(v.hi / v.lo);
    else if (v.hi > v.lo)
      t = (x[i] - v.lo) / (v.hi - v.lo);
    c.features.push_back(t);
  }
  c.features.insert(c.features.end(), sig->context.begin(), sig->context.end());
  return c;
}

std::vector<double> processSurrogateContext(const circuit::Process& proc) {
  // Order-1 scaling keeps the ridge problem well-conditioned next to the
  // unit-cube design coordinates.
  return {proc.vdd / 5.0,          proc.temperature / 300.0,
          proc.kpN * 1e4,          proc.kpP * 1e4,
          proc.vt0N,               proc.vt0P};
}

Performance safeEvaluate(const PerformanceModel& model, const std::vector<double>& x) {
  // Memoized fast path: the cache sits here — below every hot consumer
  // (sizing::CostFunction, topology/genetic batches, manufacture corner
  // hunts all evaluate through safeEvaluate) — so one integration point
  // covers all three loops the paper's runtime analysis names.  Both the
  // cache and the surrogate store resolve through the execution context:
  // the shared process-wide instances by default, a tenant's private ones
  // when its context asked for isolation.
  core::ExecutionContext& ctx = core::ExecutionContext::current();
  auto& cache = ctx.evalCache();
  std::optional<core::cache::Digest128> key;
  if (ctx.config().evalCacheEnabled) {
    if (model.evalCost() == EvalCost::Cheap) {
      // Evaluation ~ lookup cost: skip the digest, the lookup, *and* the
      // insert (key stays nullopt below).  Counted so hit-rate math over
      // core.cache.* stays honest about what the cache never saw.
      cache.noteBypass();
    } else {
      key = model.cacheKey(x);
      if (key) {
        core::cache::CachedEval cached;
        if (cache.lookup(*key, x, cached)) return std::move(cached.performance);
      }
    }
  }

  Performance perf;
  try {
    perf = model.evaluate(x);
  } catch (...) {
    // A throwing candidate is infeasible data, not a fatal error: the
    // optimization loop must keep iterating past it (FRIDGE-style robust
    // cost evaluation).  out_of_memory verdicts are environmental, not a
    // property of the candidate, so they are never cached — the same point
    // may evaluate fine once the pressure subsides.
    const EvalStatus st = core::classifyCurrentException();
    perf.clear();
    markInfeasible(perf, st);
    sim::recordEvalFailure(st);
    if (key && st != EvalStatus::OutOfMemory) cache.insert(*key, x, {perf, st});
    return perf;
  }
  if (std::any_of(perf.begin(), perf.end(),
                  [](const Performance::value_type& e) { return std::isnan(e.second); })) {
    markInfeasible(perf, EvalStatus::NanDetected);
    sim::recordEvalFailure(EvalStatus::NanDetected);
  }
  // Cache the full payload, taxonomy keys included: a later hit on a failed
  // candidate reports the same _infeasible/_status data the first
  // evaluation did (the failure tally itself is recorded once, above).
  if (key) cache.insert(*key, x, {perf, performanceStatus(perf)});
  observeSurrogate(ctx, model, x, perf);
  return perf;
}

}  // namespace amsyn::sizing
