#include "geom/transform.hpp"

namespace amsyn::geom {

Rect mirrorX(const Rect& r, Coord axisX) {
  return {2 * axisX - r.x1, r.y0, 2 * axisX - r.x0, r.y1};
}

}  // namespace amsyn::geom
