#include "geom/transform.hpp"

#include <stdexcept>

namespace amsyn::geom {

namespace {
Point orientPoint(Point p, Orientation o) {
  // Mirror variants flip X first.
  Coord x = p.x, y = p.y;
  switch (o) {
    case Orientation::MX: case Orientation::MX90: x = -x; break;
    case Orientation::MY: case Orientation::MY90: y = -y; break;
    default: break;
  }
  switch (o) {
    case Orientation::R0: case Orientation::MX: case Orientation::MY:
      return {x, y};
    case Orientation::R90: case Orientation::MX90: case Orientation::MY90:
      return {-y, x};
    case Orientation::R180:
      return {-x, -y};
    case Orientation::R270:
      return {y, -x};
  }
  throw std::logic_error("orientPoint: bad orientation");
}
}  // namespace

Point Transform::apply(Point p) const {
  const Point q = orientPoint(p, orient);
  return {q.x + dx, q.y + dy};
}

Rect Transform::apply(const Rect& r) const {
  const Point a = apply(Point{r.x0, r.y0});
  const Point b = apply(Point{r.x1, r.y1});
  return {std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x), std::max(a.y, b.y)};
}

Rect mirrorX(const Rect& r, Coord axisX) {
  return {2 * axisX - r.x1, r.y0, 2 * axisX - r.x0, r.y1};
}

}  // namespace amsyn::geom
