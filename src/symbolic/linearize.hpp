// Bridge from the transistor-level netlist to the symbolic analyzer:
// linearize every device at a DC operating point into named small-signal
// symbols (gm_M1, gds_M1, cgs_M1, ...) whose nominal values come from the
// simulator.  This is how ISAAC-generated equations stay numerically honest:
// simplification thresholds are evaluated against the real operating point.
#pragma once

#include <map>
#include <string>

#include "sim/dc.hpp"
#include "sim/mna.hpp"
#include "symbolic/analyze.hpp"

namespace amsyn::symbolic {

/// Result of linearization: the symbolic circuit plus the mapping from
/// netlist node names to symbolic node indices.
struct LinearizedCircuit {
  SmallSignalCircuit circuit{1};
  std::map<std::string, std::size_t> nodeOf;

  std::size_t node(const std::string& name) const;
};

/// Linearize `mna`'s netlist at operating point `op`.  MOS devices become
/// gm/gds and their capacitances (no body effect); resistors become
/// conductances g_<name>; capacitors become c_<name>.  Negligible
/// (trans)conductances get no symbol.  DC voltage sources
/// short their terminals together (AC ground); current sources are open.
LinearizedCircuit linearize(const sim::Mna& mna, const sim::DcResult& op);

}  // namespace amsyn::symbolic
