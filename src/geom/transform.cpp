#include "geom/transform.hpp"

#include <stdexcept>

namespace amsyn::geom {

std::string toString(Orientation o) {
  switch (o) {
    case Orientation::R0: return "R0";
    case Orientation::R90: return "R90";
    case Orientation::R180: return "R180";
    case Orientation::R270: return "R270";
    case Orientation::MX: return "MX";
    case Orientation::MX90: return "MX90";
    case Orientation::MY: return "MY";
    case Orientation::MY90: return "MY90";
  }
  return "?";
}

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

Transform Transform::compose(const Transform& inner) const {
  // Determine composed orientation by probing basis points; the dihedral
  // group is tiny so probing is simpler than a composition table.
  const Point e1 = apply(orientPoint({1, 0}, inner.orient));
  const Point e2 = apply(orientPoint({0, 1}, inner.orient));
  const Point o = apply(Point{inner.dx, inner.dy});
  const Point b1 = {e1.x - apply(orientPoint({0, 0}, inner.orient)).x,
                    e1.y - apply(orientPoint({0, 0}, inner.orient)).y};
  const Point b2 = {e2.x - apply(orientPoint({0, 0}, inner.orient)).x,
                    e2.y - apply(orientPoint({0, 0}, inner.orient)).y};
  for (Orientation cand : kAllOrientations) {
    if (orientPoint({1, 0}, cand) == b1 && orientPoint({0, 1}, cand) == b2)
      return Transform{cand, o.x, o.y};
  }
  throw std::logic_error("Transform::compose: no matching orientation");
}

Rect mirrorX(const Rect& r, Coord axisX) {
  return {2 * axisX - r.x1, r.y0, 2 * axisX - r.x0, r.y1};
}

}  // namespace amsyn::geom
