#include <gtest/gtest.h>

#include "layout/cell/drc.hpp"
#include "sizing/database.hpp"
#include "sizing/eqmodel.hpp"
#include "sizing/opamp.hpp"

namespace {
using namespace amsyn;
const circuit::Process& proc() { return circuit::defaultProcess(); }
}  // namespace

// ------------------------------------------------------------ design database

TEST(DesignDatabase, SpecDistanceOrdersByCloseness) {
  sizing::SpecSet a, b, c;
  a.atLeast("gain_db", 60).atLeast("ugf", 5e6);
  b.atLeast("gain_db", 62).atLeast("ugf", 5.5e6);  // close to a
  c.atLeast("gain_db", 90).atLeast("ugf", 5e7);    // far from a
  EXPECT_LT(sizing::DesignDatabase::specDistance(a, b),
            sizing::DesignDatabase::specDistance(a, c));
  EXPECT_DOUBLE_EQ(sizing::DesignDatabase::specDistance(a, a), 0.0);
}

TEST(DesignDatabase, NearestReturnsClosestStoredDesign) {
  sizing::DesignDatabase db;
  sizing::SpecSet s1, s2;
  s1.atLeast("gain_db", 60);
  s2.atLeast("gain_db", 85);
  db.store({"low-gain", s1, {1.0}, {}});
  db.store({"high-gain", s2, {2.0}, {}});
  sizing::SpecSet query;
  query.atLeast("gain_db", 82);
  const auto hit = db.nearest(query);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->label, "high-gain");
}

TEST(DesignDatabase, EmptyDatabaseReturnsNothing) {
  sizing::DesignDatabase db;
  sizing::SpecSet q;
  q.atLeast("gain_db", 60);
  EXPECT_FALSE(db.nearest(q).has_value());
}

TEST(DesignDatabase, WarmStartReusesAndStores) {
  // OAC-style redesign: solve one spec set cold, then a neighboring one
  // warm; both must succeed and both land in the database.
  const sizing::ComposedOpampModel model(sizing::OpampStructure::legacyTwoStage(), proc(), 5e-12);
  sizing::DesignDatabase db;
  sizing::SpecSet first;
  first.atLeast("gain_db", 65).atLeast("ugf", 3e6).atLeast("pm", 55).minimize("power", 0.5,
                                                                              1e-3);
  sizing::SynthesisOptions opts;
  opts.seed = 5;
  const auto r1 = sizing::synthesizeWithDatabase(db, model, first, "first", opts);
  ASSERT_TRUE(r1.feasible);
  EXPECT_EQ(db.size(), 1u);

  sizing::SpecSet second;
  second.atLeast("gain_db", 67).atLeast("ugf", 3.5e6).atLeast("pm", 55).minimize("power",
                                                                                 0.5, 1e-3);
  const auto r2 = sizing::synthesizeWithDatabase(db, model, second, "second", opts);
  EXPECT_TRUE(r2.feasible);
  EXPECT_EQ(db.size(), 2u);
  // The warm start must yield a feasible neighbour design with comparable
  // power (it searched near the stored solution).
  EXPECT_LT(r2.performance.at("power"), r1.performance.at("power") * 4.0);
}

// ----------------------------------------------------------------------- DRC

TEST(Drc, CleanLayoutHasNoViolations) {
  geom::Layout l;
  l.wires.push_back({geom::Layer::Metal1, {0, 0, 100, 12}, "a"});
  l.wires.push_back({geom::Layer::Metal1, {0, 24, 100, 36}, "b"});  // 12 apart
  EXPECT_TRUE(layout::checkDesignRules(l, proc()).empty());
}

TEST(Drc, DetectsSpacingViolation) {
  geom::Layout l;
  l.wires.push_back({geom::Layer::Metal1, {0, 0, 100, 12}, "a"});
  l.wires.push_back({geom::Layer::Metal1, {0, 16, 100, 28}, "b"});  // only 4 apart
  const auto v = layout::checkDesignRules(l, proc());
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, layout::DrcViolation::Kind::Spacing);
  EXPECT_EQ(v[0].value, 4);
}

TEST(Drc, DetectsWidthViolation) {
  geom::Layout l;
  l.wires.push_back({geom::Layer::Metal2, {0, 0, 100, 6}, "thin"});  // 6 < 12
  const auto v = layout::checkDesignRules(l, proc());
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].kind, layout::DrcViolation::Kind::Width);
}

TEST(Drc, SameNetShapesMayAbut) {
  geom::Layout l;
  l.wires.push_back({geom::Layer::Metal1, {0, 0, 100, 12}, "a"});
  l.wires.push_back({geom::Layer::Metal1, {50, 0, 150, 12}, "a"});  // overlapping, same net
  EXPECT_TRUE(layout::checkDesignRules(l, proc()).empty());
}

TEST(Drc, DifferentLayersDoNotInteract) {
  geom::Layout l;
  l.wires.push_back({geom::Layer::Metal1, {0, 0, 100, 12}, "a"});
  l.wires.push_back({geom::Layer::Metal2, {0, 2, 100, 14}, "b"});
  EXPECT_TRUE(layout::checkDesignRules(l, proc()).empty());
}
