// ANAGRAM II-style analog area routing (Cohn et al. [34-36]): a maze router
// on a uniform 3-layer grid (poly / metal1 / metal2).  Each connection is a
// goal-directed A* search whose heuristic, the cheapest planar step times
// the Manhattan distance to the target pin, is consistent.  The search
// keeps popping until no open node can tie or beat the best target found,
// and breaks equal-distance ties by (distance, node index), so it traces
// exactly the route a blind (distance, index) Dijkstra would while
// visiting far fewer nodes (with free vias, viaCost 0, a tie across one
// may resolve otherwise; see DESIGN.md section 15).  The router supports
//  * wire compatibility classes with crosstalk-avoidance costs (noisy wires
//    pay to run next to sensitive ones),
//  * symmetric differential routing (a net's path is mirrored for its peer),
//  * over-the-device routing on metal2 at a penalty,
//  * rip-up-and-retry across passes, and
//  * ROAD/ANAGRAM-III-style parasitic bounds [39,40]: nets with a
//    capacitance budget pay a length cost proportional to their sensitivity
//    and report bound violations.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "circuit/process.hpp"
#include "geom/layout.hpp"

namespace amsyn::layout {

enum class WireClass : std::uint8_t { Quiet, Noisy, Sensitive };

/// Are two wire classes incompatible (must avoid adjacency)?
constexpr bool incompatible(WireClass a, WireClass b) {
  return (a == WireClass::Noisy && b == WireClass::Sensitive) ||
         (a == WireClass::Sensitive && b == WireClass::Noisy);
}

struct RouteNet {
  std::string name;
  WireClass wireClass = WireClass::Quiet;
  /// ROAD-mode parasitic budget: max ground capacitance (F); 0 = unbounded.
  double capBound = 0.0;
  /// Mirror this net's routing from its peer (differential pair wiring).
  std::optional<std::string> symmetricPeer;
};

struct RouterOptions {
  geom::Coord pitch = 24;        ///< routing grid pitch (6 lambda)
  geom::Coord wireWidth = 12;    ///< drawn wire width (3 lambda)
  geom::Coord margin = 72;       ///< routing halo around the placement
  int viaCost = 4;
  int overDevicePenalty = 3;     ///< metal2 above device area
  int crosstalkPenalty = 12;     ///< stepping adjacent to an incompatible wire
  int polyPenalty = 6;           ///< poly is resistive: discourage long runs
  std::size_t maxPasses = 3;     ///< rip-up-and-retry rounds
};

struct NetReport {
  bool routed = false;
  double lengthLambda = 0.0;
  int vias = 0;
  bool symmetricRealized = false;
  double estimatedCap = 0.0;     ///< ground capacitance estimate (F)
  bool capBoundMet = true;
};

struct RouteResult {
  geom::Layout layout;           ///< instances + generated wires/vias
  std::map<std::string, NetReport> nets;
  bool allRouted = false;        ///< every listed net is routed
  double totalLengthLambda = 0.0;
  /// Crosstalk exposure: grid-adjacent run length (lambda) between
  /// incompatible wire classes (the quantity ANAGRAM II minimizes).
  double crosstalkExposureLambda = 0.0;
};

/// Route the named nets over a placement.  Pins are taken from the placed
/// instances' transformed pins (pin name == net name).  Nets not listed are
/// ignored (e.g. bulk ties handled by abutment).  A listed net with fewer
/// than two pins, or with a pin off the routing layers (poly, metal1,
/// metal2), has nothing to connect and is reported unrouted.  Throws
/// std::invalid_argument when a net is listed twice, and one naming the
/// field when `opts.pitch` or `opts.wireWidth` is <= 0, `opts.margin`,
/// `opts.viaCost` or a penalty is < 0, or `opts.maxPasses` is 0.  The cost
/// bounds are also what keep the search's heuristic consistent.
RouteResult routeCells(const std::vector<geom::CellInstance>& placed,
                       const std::vector<RouteNet>& nets, const circuit::Process& proc,
                       const RouterOptions& opts = {});

}  // namespace amsyn::layout
