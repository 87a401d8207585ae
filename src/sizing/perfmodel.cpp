#include "sizing/perfmodel.hpp"

#include <algorithm>
#include <cmath>

#include "sim/stats.hpp"

namespace amsyn::sizing {

using core::EvalStatus;

Performance amplifierPerformance(const AmplifierValues& v) {
  // Inserted in name order, so no insertion moves an entry.
  Performance perf;
  perf.reserve(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) perf.emplace(kAmplifierPerformances[i], v[i]);
  return perf;
}

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
  markNanScores(perf);
  return perf;
}

bool markNanScores(Performance& perf) {
  if (std::none_of(perf.begin(), perf.end(),
                   [](const Performance::value_type& e) { return std::isnan(e.second); }))
    return false;
  markInfeasible(perf, EvalStatus::NanDetected);
  sim::recordEvalFailure(EvalStatus::NanDetected);
  return true;
}

}  // namespace amsyn::sizing
