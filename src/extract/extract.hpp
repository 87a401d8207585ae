// Layout parasitic extraction: wire resistance, ground capacitance and
// same-layer coupling capacitance from routed geometry, plus back-annotation
// into the circuit netlist for post-layout ("detailed design verification
// after extraction" in the paper's bottom-up path, section 2.1).
#pragma once

#include <map>
#include <string>

#include "circuit/netlist.hpp"
#include "circuit/process.hpp"
#include "geom/layout.hpp"

namespace amsyn::extract {

struct NetParasitics {
  double groundCap = 0.0;    ///< F, area + fringe to substrate
  double resistance = 0.0;   ///< ohms, series estimate over all wire shapes
  std::map<std::string, double> couplingTo;  ///< F per neighboring net
};

struct ExtractionResult {
  std::map<std::string, NetParasitics> nets;

  double groundCapOf(const std::string& net) const;
  double couplingBetween(const std::string& a, const std::string& b) const;
};

/// Extract every named routing shape's ground capacitance and resistance,
/// and the coupling between same-layer shapes of different nets up to
/// 6 lambda apart.
ExtractionResult extractParasitics(const geom::Layout& layout,
                                   const circuit::Process& proc);

/// Add extracted ground and coupling capacitors to a copy of the netlist
/// (capacitors below `minCap` are dropped to keep the matrix small).  Wire
/// resistance is *not* inserted as series elements — it is reported for
/// constraint checking, as era extractors did for cell-level analog.
circuit::Netlist backAnnotate(const circuit::Netlist& net, const ExtractionResult& ext,
                              double minCap = 0.5e-15);

}  // namespace amsyn::extract
