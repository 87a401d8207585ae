// The evaluator abstraction behind Fig. 1b of the paper: every optimization-
// based synthesis engine iterates "evaluate performance -> adjust sizes".
// What varies between the surveyed systems is only the evaluator:
//   * equation-based (OPASYN [8], OPTIMAN [10]) -> EquationModel subclasses
//   * simulation-based (FRIDGE [22])            -> SimulationModel
//   * mixed AWE/equations (ASTRX/OBLX [23])     -> RelaxedDcModel
// All plug into the same CostFunction + annealer.
#pragma once

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/context.hpp"
#include "core/evalcache.hpp"
#include "core/evalstatus.hpp"
#include "core/performances.hpp"

namespace amsyn::sizing {

/// One independent design variable with box bounds.  Log-scaled variables
/// move multiplicatively during optimization (right for currents and device
/// sizes that span decades).
struct DesignVariable {
  std::string name;
  double lo = 0.0;
  double hi = 1.0;
  bool logScale = true;
  /// Relative proposal step for annealing moves (1.0 = default spread).
  /// Bias-voltage unknowns in the relaxed-dc formulation use small values:
  /// a valid operating point survives millivolt nudges, not volt jumps.
  double moveScale = 1.0;
};

using Performance = core::Performance;

/// Performance key carrying the structured failure reason: the value is the
/// numeric core::EvalStatus code.  Present only on payloads tagged by
/// markInfeasible (spec-level infeasibility — a circuit that evaluated fine
/// but is simply bad — stays untagged).
inline constexpr const char* kEvalStatusKey = "_status";

/// Mark a performance payload infeasible with a structured reason.  The first
/// reason sticks: later, more generic failures of the same evaluation do
/// not overwrite the root cause.
inline void markInfeasible(Performance& perf, core::EvalStatus reason) {
  perf["_infeasible"] = 1.0;
  perf.emplace(kEvalStatusKey, static_cast<double>(static_cast<int>(reason)));
}

/// Structured reason of a performance payload; Ok when untagged (feasible, or
/// infeasible for spec-level reasons rather than an evaluation failure).
inline core::EvalStatus performanceStatus(const Performance& perf) {
  const auto it = perf.find(kEvalStatusKey);
  if (it == perf.end()) return core::EvalStatus::Ok;
  const int code = static_cast<int>(it->second);
  if (code < 0 || code >= static_cast<int>(core::kEvalStatusCount))
    return core::EvalStatus::InternalError;
  return static_cast<core::EvalStatus>(code);
}

/// How an evaluation's cost compares to a cache transaction.  A hit costs
/// the model's key plus a sharded-map lookup: 0.2 us for an equation model
/// against its 1.5 us evaluation, 9 us for a simulator model (netlist
/// canonicalization) against its 310 us (bench_cache's BM_ microbenchmarks,
/// Release, 4-vCPU Xeon VM).  A miss pays the key, the lookup and an insert
/// on top of the evaluation, so an equation model gains only where hits are
/// common (the corner flow's replays) and loses where they are rare
/// (genetic selection).
/// Models self-attest their tier so safeEvaluate can skip the cache for
/// evaluations that would not repay it.
enum class EvalCost : std::uint8_t {
  Heavy,  ///< evaluation dominates a cache transaction: cache it (default)
  Cheap,  ///< evaluation ~ lookup cost: bypass the cache entirely
};

/// Interface: map a design-variable vector to named performance numbers.
class PerformanceModel {
 public:
  virtual ~PerformanceModel() = default;

  virtual const std::vector<DesignVariable>& variables() const = 0;

  /// Evaluate all performances at design point x (same order/size as
  /// variables()).  Implementations must be deterministic.  A design point
  /// that fails to evaluate (e.g. no DC convergence) reports the special
  /// performance {"_infeasible": 1.0} plus whatever it could compute.
  virtual Performance evaluate(const std::vector<double>& x) const = 0;

  /// A reasonable starting point (defaults to the geometric middle).
  virtual std::vector<double> initialPoint() const;

  /// Canonical candidate key for the memoized evaluation cache
  /// (core/evalcache.hpp): a digest of everything evaluate(x) depends on —
  /// model identity tag, canonicalized netlist, process parameters,
  /// evaluator options, and the (quantized) design vector.  Models return
  /// nullopt (the default) when they cannot attest a deterministic,
  /// self-contained identity — e.g. custom models, or evaluations wired to
  /// a wall-clock-dependent cancel flag — and such evaluations are never
  /// cached.  Two models with equal keys MUST produce bit-identical
  /// evaluate(x); safeEvaluate relies on this for the cache-on/off
  /// differential guarantee (tests/evalcache_test.cpp).
  virtual std::optional<core::cache::Digest128> cacheKey(
      const std::vector<double>& x) const {
    (void)x;
    return std::nullopt;
  }

  /// Cost tier driving safeEvaluate's cache policy (see EvalCost).  Heavy
  /// by default; models whose evaluate(x) costs about as much as a cache
  /// transaction override to Cheap and are never cached.  The tier only
  /// changes speed: a bypassed evaluation runs the same deterministic
  /// evaluate(x) a miss would.
  virtual EvalCost evalCost() const { return EvalCost::Heavy; }

  std::size_t dimension() const { return variables().size(); }
};

/// Total evaluation: never throws, never returns NaN scores.  An evaluator
/// exception becomes {"_infeasible": 1, "_status": internal_error}; a NaN in
/// any performance value marks the payload infeasible with nan_detected (a NaN
/// is a failed measurement, not a neutral score).  Both are tallied in the
/// sim.fail.* registry counters (sim::recordEvalFailure).  This is the
/// containment boundary the corner search
/// and any direct model consumer should call instead of evaluate().
///
/// Memoization: when the process-wide evaluation cache is enabled and the
/// model attests a canonical key (PerformanceModel::cacheKey), repeated
/// evaluations of the same candidate — annealing revisits, duplicate
/// genetic genomes, corner-vertex re-visits — return the cached Performance
/// payload, failure taxonomy included, without re-running the evaluator.
/// Failure tallies (sim::recordEvalFailure) are recorded once per distinct
/// candidate, on the miss; observability counters are the only thing the
/// cache changes — results are bit-identical with the cache on or off.
/// The cache and its on/off mode resolve through the calling thread's
/// current execution context.
Performance safeEvaluate(const PerformanceModel& model, const std::vector<double>& x);

inline std::vector<double> PerformanceModel::initialPoint() const {
  std::vector<double> x;
  for (const DesignVariable& v : variables()) {
    if (v.logScale && v.lo > 0.0)
      x.push_back(std::sqrt(v.lo * v.hi));  // geometric middle
    else
      x.push_back(0.5 * (v.lo + v.hi));
  }
  return x;
}

}  // namespace amsyn::sizing
