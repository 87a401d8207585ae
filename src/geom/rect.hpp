// Integer-lambda geometry primitives.  All layout tools in amsyn operate on
// an integer grid in units of lambda/4 (quarter design-rule-lambda), which
// keeps arithmetic exact — a standard choice in era layout tools (Magic,
// KOAN) to avoid floating-point design-rule ambiguity.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace amsyn::geom {

using Coord = std::int64_t;

struct Point {
  Coord x = 0;
  Coord y = 0;

  friend bool operator==(const Point&, const Point&) = default;
  Point operator+(const Point& o) const { return {x + o.x, y + o.y}; }
  Point operator-(const Point& o) const { return {x - o.x, y - o.y}; }
};

/// Half-open axis-aligned rectangle [x0, x1) x [y0, y1).  A rect with
/// x0 >= x1 or y0 >= y1 is empty.
struct Rect {
  Coord x0 = 0, y0 = 0, x1 = 0, y1 = 0;

  friend bool operator==(const Rect&, const Rect&) = default;

  static Rect fromSize(Coord x, Coord y, Coord w, Coord h) { return {x, y, x + w, y + h}; }

  Coord width() const { return x1 - x0; }
  Coord height() const { return y1 - y0; }
  Coord area() const { return empty() ? 0 : width() * height(); }
  bool empty() const { return x0 >= x1 || y0 >= y1; }
  Point center() const { return {(x0 + x1) / 2, (y0 + y1) / 2}; }
  Coord halfPerimeter() const { return empty() ? 0 : width() + height(); }

  bool contains(Point p) const { return p.x >= x0 && p.x < x1 && p.y >= y0 && p.y < y1; }
  bool contains(const Rect& o) const {
    return o.x0 >= x0 && o.x1 <= x1 && o.y0 >= y0 && o.y1 <= y1;
  }
  bool overlaps(const Rect& o) const {
    return !empty() && !o.empty() && x0 < o.x1 && o.x0 < x1 && y0 < o.y1 && o.y0 < y1;
  }

  Rect intersect(const Rect& o) const {
    return {std::max(x0, o.x0), std::max(y0, o.y0), std::min(x1, o.x1), std::min(y1, o.y1)};
  }
  Rect unionWith(const Rect& o) const {
    if (empty()) return o;
    if (o.empty()) return *this;
    return {std::min(x0, o.x0), std::min(y0, o.y0), std::max(x1, o.x1), std::max(y1, o.y1)};
  }
  Rect translated(Coord dx, Coord dy) const { return {x0 + dx, y0 + dy, x1 + dx, y1 + dy}; }
  Rect inflated(Coord d) const { return {x0 - d, y0 - d, x1 + d, y1 + d}; }

  /// Minimum separation between two non-overlapping rects (Chebyshev-style:
  /// max of the per-axis gaps; 0 when touching or overlapping).
  Coord gapTo(const Rect& o) const {
    const Coord gx = std::max<Coord>({o.x0 - x1, x0 - o.x1, 0});
    const Coord gy = std::max<Coord>({o.y0 - y1, y0 - o.y1, 0});
    return std::max(gx, gy);
  }
};

/// Manhattan distance between rect centers.
Coord centerDistance(const Rect& a, const Rect& b);

}  // namespace amsyn::geom
