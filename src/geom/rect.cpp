#include "geom/rect.hpp"

#include <cstdlib>

namespace amsyn::geom {

Coord centerDistance(const Rect& a, const Rect& b) {
  const Point ca = a.center(), cb = b.center();
  return std::llabs(ca.x - cb.x) + std::llabs(ca.y - cb.y);
}

}  // namespace amsyn::geom
