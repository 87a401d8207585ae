// Eight-way orientation group (rotations + mirrors) and placement transforms.
// Device placers (KOAN-style) explore orientations as annealing moves;
// symmetric analog pairs need exact mirror transforms.
#pragma once

#include <array>

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
struct Transform {
  Orientation orient = Orientation::R0;
  Coord dx = 0;
  Coord dy = 0;

  Point apply(Point p) const;
  Rect apply(const Rect& r) const;
};

/// Mirror-about-vertical-axis x = axisX, used for symmetric pair placement.
Rect mirrorX(const Rect& r, Coord axisX);

}  // namespace amsyn::geom
