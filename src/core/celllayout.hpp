// The macrocell cell-layout flow of section 3.1, end to end: matching-
// constraint generation [47] -> device stacking [43,45] -> module generation
// -> KOAN-style placement [35] -> ANAGRAM-style routing [35] -> parasitic
// extraction -> back-annotation.  One call turns a sized transistor netlist
// into a laid-out, extracted cell.  The placer and router run at their
// default options (only the placement seed is set), and every net with two
// or more pins is routed as a quiet net.
#pragma once

#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "extract/extract.hpp"
#include "extract/matchgen.hpp"
#include "layout/cell/place.hpp"
#include "layout/cell/route.hpp"

namespace amsyn::core {

struct CellLayoutOptions {
  bool useStacking = true;        ///< merge diffusions before placement
  bool annealPlacement = true;    ///< false = deterministic row ("manual-style")
  std::uint64_t seed = 1;         ///< placement anneal seed
};

struct CellLayoutResult {
  geom::Layout layout;
  /// The placeable components (cell masters) the placement instances point
  /// into (geom::CellInstance::master is a non-owning pointer).  Owned here
  /// so the result is self-contained: transformedShapes()/extraction stay
  /// valid after the layout call returns.  Note a *copy* of the result
  /// aliases the source's components; move it instead.
  std::vector<layout::PlacementComponent> components;
  layout::Placement placement;
  layout::RouteResult routing;
  extract::ExtractionResult parasitics;
  circuit::Netlist annotated;    ///< original netlist + extracted parasitics
  std::vector<extract::MatchConstraint> matching;
  double areaLambda2 = 0.0;      ///< bounding-box area in lambda^2
  double wirelengthLambda = 0.0;
  std::size_t stackedDevices = 0;  ///< devices absorbed into merged stacks
  bool success = false;
  /// True when the annealed placement proved unroutable and the flow fell
  /// back to the deterministic row placement.
  bool usedRowFallback = false;
};

/// Lay out the MOS/R/C devices of `net`.  Testbench elements (sources,
/// controlled sources, huge feedback RCs) are skipped automatically; only
/// physical devices get geometry.  Equivalent to layoutCellGeometry
/// followed by extractCell.
CellLayoutResult layoutCell(const circuit::Netlist& net, const circuit::Process& proc,
                            const CellLayoutOptions& opts = {});

/// The geometric half of layoutCell: matching constraints, stacking, module
/// generation, placement and routing, through area/wirelength/success — but
/// no parasitic extraction (`parasitics`/`annotated` stay empty).  The flow
/// engine's layout stage runs this, so extraction is skipped when the
/// placement or routing failed.
CellLayoutResult layoutCellGeometry(const circuit::Netlist& net,
                                    const circuit::Process& proc,
                                    const CellLayoutOptions& opts = {});

/// The extraction half of layoutCell: extract parasitics from
/// `result.layout` and back-annotate them onto `net` into
/// `result.annotated`.  No-op when the geometry stage placed nothing.
void extractCell(const circuit::Netlist& net, const circuit::Process& proc,
                 CellLayoutResult& result);

}  // namespace amsyn::core
