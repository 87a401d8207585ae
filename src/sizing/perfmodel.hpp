// The evaluator abstraction behind Fig. 1b of the paper: every optimization-
// based synthesis engine iterates "evaluate performance -> adjust sizes".
// What varies between the surveyed systems is only the evaluator:
//   * equation-based (OPASYN [8], OPTIMAN [10]) -> EquationModel subclasses
//   * simulation-based (FRIDGE [22])            -> SimulationModel
//   * mixed AWE/equations (ASTRX/OBLX [23])     -> RelaxedDcModel
// All plug into the same CostFunction + annealer.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

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

/// The eight amplifier performances every equation amplifier model reports,
/// in Performance's (name) order, and one evaluation's values in that order
/// (its "slots").
inline constexpr std::array<std::string_view, 8> kAmplifierPerformances = {
    "area", "gain_db", "noise_nv", "pm", "power", "slew", "swing", "ugf"};
using AmplifierValues = std::array<double, kAmplifierPerformances.size()>;

/// The payload of an evaluation that produced these values.
Performance amplifierPerformance(const AmplifierValues& v);

/// The slot carrying performance `name`, or nullopt when no slot does.
/// Consumers resolve their names once, then read slots by position.
constexpr std::optional<std::size_t> amplifierSlot(std::string_view name) {
  for (std::size_t i = 0; i < kAmplifierPerformances.size(); ++i)
    if (kAmplifierPerformances[i] == name) return i;
  return std::nullopt;
}

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

  /// The slot path: a model whose evaluation at x is exactly the eight
  /// amplifier performances may write them to `out` and return true, so
  /// inner loops skip the named payload.  Contract: when it returns true,
  /// amplifierPerformance(out) == evaluate(x) bit for bit; it may throw
  /// whatever evaluate throws.  False (the default) leaves `out`
  /// unspecified and sends the caller to evaluate().
  virtual bool evaluateAmplifier(const std::vector<double>& x, AmplifierValues& out) const;

  /// A reasonable starting point (defaults to the geometric middle).
  virtual std::vector<double> initialPoint() const;

  std::size_t dimension() const { return variables().size(); }
};

/// Total evaluation: never throws, never returns NaN scores.  An evaluator
/// exception becomes {"_infeasible": 1, "_status": internal_error}; a NaN in
/// any performance value marks the payload infeasible with nan_detected (a NaN
/// is a failed measurement, not a neutral score).  Both are tallied in the
/// sim.fail.* registry counters (sim::recordEvalFailure).  This is the
/// containment boundary the corner search
/// and any direct model consumer should call instead of evaluate().
Performance safeEvaluate(const PerformanceModel& model, const std::vector<double>& x);

/// safeEvaluate's NaN rule on its own, for callers that evaluate outside
/// it: a payload holding a NaN value is marked infeasible with
/// nan_detected and the failure tallied.  Returns whether it was marked.
bool markNanScores(Performance& perf);

inline bool PerformanceModel::evaluateAmplifier(const std::vector<double>&,
                                                AmplifierValues&) const {
  return false;
}

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
