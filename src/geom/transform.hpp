// Eight-way orientation group (rotations + mirrors) and placement transforms.
// Device placers (KOAN-style) explore orientations as annealing moves;
// symmetric analog pairs need exact mirror transforms.
#pragma once

#include <array>
#include <stdexcept>

#include "geom/rect.hpp"

namespace amsyn::geom {

/// The dihedral group D4: R0..R270 are counterclockwise rotations; M*
/// variants mirror about the Y axis first (i.e. flip X), then rotate.
enum class Orientation : std::uint8_t { R0, R90, R180, R270, MX, MX90, MY, MY90 };

constexpr std::array<Orientation, 8> kAllOrientations = {
    Orientation::R0, Orientation::R90, Orientation::R180, Orientation::R270,
    Orientation::MX, Orientation::MX90, Orientation::MY, Orientation::MY90};

/// Does this orientation swap width and height?
constexpr bool swapsAxes(Orientation o) {
  return o == Orientation::R90 || o == Orientation::R270 || o == Orientation::MX90 ||
         o == Orientation::MY90;
}

/// Placement transform: orient about the local origin, then translate.
/// Inline: layout, routing, extraction and the placer's cost all call it
/// per shape.
struct Transform {
  Orientation orient = Orientation::R0;
  Coord dx = 0;
  Coord dy = 0;

  friend bool operator==(const Transform&, const Transform&) = default;

  Point apply(Point p) const {
    const Point q = orientPoint(p, orient);
    return {q.x + dx, q.y + dy};
  }
  Rect apply(const Rect& r) const {
    const Point a = apply(Point{r.x0, r.y0});
    const Point b = apply(Point{r.x1, r.y1});
    return {std::min(a.x, b.x), std::min(a.y, b.y), std::max(a.x, b.x),
            std::max(a.y, b.y)};
  }

 private:
  static Point orientPoint(Point p, Orientation o) {
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
};

/// Mirror-about-vertical-axis x = axisX, used for symmetric pair placement.
Rect mirrorX(const Rect& r, Coord axisX);

}  // namespace amsyn::geom
