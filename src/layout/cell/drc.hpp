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

  std::string describe() const;
};

struct DrcOptions {
  /// Check only these layers (empty = all routing layers).
  std::vector<geom::Layer> layers;
  /// Ignore shapes belonging to the same net (they may abut/overlap).
  bool sameNetExempt = true;
};

/// Check same-layer spacing (process ruleMinSpacing) and minimum width
/// (ruleMinWidth) over all wires + instance shapes.  Width is checked per
/// rect: a router's overlapping pads can report Kind::Width even where
/// their union is wide enough, so callers that only want spacing filter
/// those out.
std::vector<DrcViolation> checkDesignRules(const geom::Layout& layout,
                                           const circuit::Process& proc,
                                           const DrcOptions& opts = {});

}  // namespace amsyn::layout
