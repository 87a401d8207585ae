// Knowledge-plan seeds over the composed amplifier space: map the opamp
// design plans (knowledge/opamp_plans.hpp) onto any composed structure's
// variable vector (sizing/blocks.hpp).  The structures, their equation
// model (sizing::ComposedOpampModel) and their netlist builders live in
// amsyn_sizing; the library over them is topology::amplifierLibrary.
#pragma once

#include <optional>
#include <vector>

#include "circuit/process.hpp"
#include "sizing/blocks.hpp"
#include "sizing/spec.hpp"

namespace amsyn::topology {

/// Map the opamp design plans onto a composed structure's variable vector:
/// plan outputs fill the shared electrical coordinates, cascode overdrives
/// and the nulling ratio take deterministic block defaults.  nullopt when
/// the specs lack the gain_db + ugf pair the plans require or plan
/// backtracking fails.
std::optional<std::vector<double>> composedPlanSeed(const sizing::OpampStructure& s,
                                                    const sizing::SpecSet& specs,
                                                    const circuit::Process& proc,
                                                    double loadCap);

}  // namespace amsyn::topology
