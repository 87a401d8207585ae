#include "sizing/perfmodel.hpp"

#include <algorithm>
#include <cmath>

#include "sim/stats.hpp"

namespace amsyn::sizing {

using core::EvalStatus;

Performance safeEvaluate(const PerformanceModel& model, const std::vector<double>& x) {
  Performance perf;
  try {
    perf = model.evaluate(x);
  } catch (...) {
    // A throwing candidate is infeasible data, not a fatal error: the
    // optimization loop must keep iterating past it (FRIDGE-style robust
    // cost evaluation).
    const EvalStatus st = core::classifyCurrentException();
    perf.clear();
    markInfeasible(perf, st);
    sim::recordEvalFailure(st);
    return perf;
  }
  if (std::any_of(perf.begin(), perf.end(),
                  [](const Performance::value_type& e) { return std::isnan(e.second); })) {
    markInfeasible(perf, EvalStatus::NanDetected);
    sim::recordEvalFailure(EvalStatus::NanDetected);
  }
  return perf;
}

}  // namespace amsyn::sizing
