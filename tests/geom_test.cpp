#include <gtest/gtest.h>

#include "geom/layout.hpp"
#include "geom/rect.hpp"
#include "geom/transform.hpp"

namespace geom = amsyn::geom;
using geom::Orientation;
using geom::Point;
using geom::Rect;
using geom::Transform;

TEST(Rect, BasicProperties) {
  const Rect r = Rect::fromSize(2, 3, 10, 4);
  EXPECT_EQ(r.width(), 10);
  EXPECT_EQ(r.height(), 4);
  EXPECT_EQ(r.area(), 40);
  EXPECT_EQ(r.halfPerimeter(), 14);
  EXPECT_FALSE(r.empty());
  EXPECT_TRUE(Rect{}.empty());
}

TEST(Rect, OverlapAndIntersect) {
  const Rect a{0, 0, 10, 10}, b{5, 5, 15, 15}, c{20, 20, 30, 30};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_FALSE(a.overlaps(c));
  const Rect i = a.intersect(b);
  EXPECT_EQ(i, (Rect{5, 5, 10, 10}));
  EXPECT_TRUE(a.intersect(c).empty());
}

TEST(Rect, TouchingRectsDoNotOverlap) {
  const Rect a{0, 0, 10, 10}, b{10, 0, 20, 10};
  EXPECT_FALSE(a.overlaps(b));
  EXPECT_EQ(a.gapTo(b), 0);
}

TEST(Rect, GapBetweenSeparatedRects) {
  const Rect a{0, 0, 10, 10}, b{13, 0, 20, 10};
  EXPECT_EQ(a.gapTo(b), 3);
  EXPECT_EQ(b.gapTo(a), 3);
  const Rect diag{15, 14, 20, 20};
  EXPECT_EQ(a.gapTo(diag), 5);  // max of x-gap 5 and y-gap 4
}

TEST(Rect, UnionAndBoundingBox) {
  const Rect a{0, 0, 5, 5}, b{10, 10, 12, 12};
  EXPECT_EQ(a.unionWith(b), (Rect{0, 0, 12, 12}));
  EXPECT_EQ(a.unionWith(Rect{}), a);
}

TEST(Transform, RotationsPreserveArea) {
  const Rect r{1, 2, 5, 10};
  for (auto o : geom::kAllOrientations) {
    const Transform t{o, 100, 200};
    const Rect q = t.apply(r);
    EXPECT_EQ(q.area(), r.area()) << static_cast<int>(o);
    if (geom::swapsAxes(o)) {
      EXPECT_EQ(q.width(), r.height());
    } else {
      EXPECT_EQ(q.width(), r.width());
    }
  }
}

TEST(Transform, R90RotatesPointCounterclockwise) {
  const Transform t{Orientation::R90, 0, 0};
  const Point p = t.apply(Point{1, 0});
  EXPECT_EQ(p, (Point{0, 1}));
}

TEST(Transform, MirrorXFlipsX) {
  const Transform t{Orientation::MX, 0, 0};
  EXPECT_EQ(t.apply(Point{3, 5}), (Point{-3, 5}));
}

TEST(Transform, MirrorAboutAxis) {
  const Rect r{2, 0, 5, 4};
  const Rect m = geom::mirrorX(r, 10);
  EXPECT_EQ(m, (Rect{15, 0, 18, 4}));
  // Mirroring twice is the identity.
  EXPECT_EQ(geom::mirrorX(m, 10), r);
}

TEST(Layout, MasterBoundingBoxAndPins) {
  geom::CellMaster m;
  m.name = "dev";
  m.shapes.push_back({geom::Layer::NDiff, {0, 0, 10, 6}, "d"});
  m.shapes.push_back({geom::Layer::Poly, {4, -2, 6, 8}, "g"});
  m.pins.push_back({"d", geom::Layer::Metal1, {8, 2, 10, 4}});
  m.pins.push_back({"d", geom::Layer::Metal1, {0, 2, 2, 4}});
  EXPECT_EQ(m.boundingBox(), (Rect{0, -2, 10, 8}));
  EXPECT_EQ(m.pinsOnNet("d").size(), 2u);
  EXPECT_TRUE(m.pinsOnNet("x").empty());
}

TEST(Layout, InstanceTransformsShapes) {
  geom::CellMaster m;
  m.shapes.push_back({geom::Layer::Metal1, {0, 0, 4, 2}, "a"});
  geom::CellInstance inst{"i0", &m, Transform{Orientation::R0, 100, 50}};
  const auto shapes = inst.transformedShapes();
  ASSERT_EQ(shapes.size(), 1u);
  EXPECT_EQ(shapes[0].rect, (Rect{100, 50, 104, 52}));
}
