// ANAGRAM II-style analog area routing (Cohn et al. [34-36]): a maze router
// on a uniform 3-layer grid (poly / metal1 / metal2).  Each connection is a
// goal-directed A* search whose heuristic, the planar step cost times the
// Manhattan distance to the target pin, is consistent.  The search keeps
// popping until no open node can tie or beat the best target found, and
// breaks equal-distance ties by (distance, node index), so it traces
// exactly the route a blind (distance, index) Dijkstra would while visiting
// far fewer nodes (see DESIGN.md section 15).  Metal2 may run over a device
// at a penalty, poly pays for its resistance, and nets that fail are routed
// first in the next rip-up-and-retry pass.  The grid pitch, wire width and
// costs are fixed in route.cpp.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "geom/layout.hpp"

namespace amsyn::layout {

struct NetReport {
  bool routed = false;
  double lengthLambda = 0.0;
  int vias = 0;
};

struct RouteResult {
  geom::Layout layout;           ///< instances + generated wires/vias
  std::map<std::string, NetReport> nets;
  bool allRouted = false;        ///< every listed net is routed
  double totalLengthLambda = 0.0;
};

/// Route the named nets over a placement.  Pins are taken from the placed
/// instances' transformed pins (pin name == net name).  Nets not listed are
/// ignored (e.g. bulk ties handled by abutment).  A listed net with fewer
/// than two pins, or with a pin off the routing layers (poly, metal1,
/// metal2), has nothing to connect and is reported unrouted.  Throws
/// std::invalid_argument when a net is listed twice.
RouteResult routeCells(const std::vector<geom::CellInstance>& placed,
                       const std::vector<std::string>& nets);

}  // namespace amsyn::layout
