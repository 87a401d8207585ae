// Design-rule checking over assembled layouts: same-layer spacing and
// minimum width on the routing layers.  The macrocell tools' contract is
// "legal by construction"; this checker is the independent auditor the test
// suite and the benches use to hold them to it.
#pragma once

#include <string>
#include <vector>

#include "circuit/process.hpp"
#include "geom/layout.hpp"

namespace amsyn::layout {

struct DrcViolation {
  enum class Kind : std::uint8_t { Spacing, Width } kind = Kind::Spacing;
  geom::Layer layer = geom::Layer::Metal1;
  geom::Rect a, b;          ///< offending shapes (b unused for Width)
  std::string netA, netB;
  geom::Coord value = 0;     ///< measured spacing / width (quarter-lambda)
  geom::Coord required = 0;
};

/// Check same-layer spacing (process ruleMinSpacing) between shapes of
/// different nets, and minimum width (ruleMinWidth), over the wires and
/// instance shapes on every routing layer.  Shapes of one net may abut or
/// overlap.  Width is checked per rect: a router's overlapping pads can
/// report Kind::Width even where their union is wide enough, so callers
/// that only want spacing filter those out.
std::vector<DrcViolation> checkDesignRules(const geom::Layout& layout,
                                           const circuit::Process& proc);

}  // namespace amsyn::layout
