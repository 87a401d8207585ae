// Concrete design plans for the amplifier library — the hand-derived sizing
// procedures an IDAC/OASYS developer would encode (here: the classic
// Allen & Holberg two-stage procedure).
//
// Plan inputs (context keys):
//   spec.gain_db, spec.ugf, spec.pm, spec.slew, spec.cload
//   optional: spec.power_max
// Plan outputs: out.i5, out.i7, out.vov1, out.vov3, out.vov5, out.vov6,
// out.cc (two-stage) — the legacy two-stage structure's equation-model
// coordinates (sizing/blocks.hpp), so a
// plan result can be evaluated, simulated and laid out like any optimizer
// result.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "knowledge/plan.hpp"
#include "sizing/spec.hpp"

namespace amsyn::knowledge {

/// Map a (possibly retargeted) spec set onto the opamp plans' input context
/// keys (spec.gain_db, spec.ugf, spec.pm, spec.slew, spec.power_max,
/// spec.cload), using the shared electrical-performance table
/// (core/performances.hpp).  Returns nullopt when the specs do not carry
/// the gain_db + ugf pair the plans require; otherwise fills the plan
/// defaults (pm = 60 deg, slew = 2 * ugf) for inputs the specs omit.
std::optional<std::map<std::string, double>> opampPlanInputs(
    const sizing::SpecSet& specs, double loadCap);

/// Two-stage Miller opamp plan with gain/power backtracking knobs.
DesignPlan twoStageOpampPlan();

/// Pull the two-stage design vector (legacy two-stage variable order)
/// out of a completed plan context.
std::vector<double> extractTwoStageDesign(const PlanContext& ctx);

}  // namespace amsyn::knowledge
