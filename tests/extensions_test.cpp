#include <gtest/gtest.h>

#include <cmath>

#include "layout/cell/drc.hpp"
#include "layout/cell/modgen.hpp"
#include "layout/cell/place.hpp"
#include "layout/system/segregate.hpp"
#include "sim/measure.hpp"
#include "sizing/database.hpp"
#include "sizing/eqmodel.hpp"
#include "sizing/opamp.hpp"
#include "symbolic/analyze.hpp"

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

// ---------------------------------------------------- performance-driven nets

namespace {
layout::Placement spreadRow(geom::Coord gap) {
  static std::vector<geom::CellMaster> masters;  // keep masters alive
  masters.clear();
  layout::Placement p;
  circuit::MosParams mp{circuit::MosType::Nmos, 10e-6, 2e-6, 1, 0.0, 1.0};
  geom::Coord x = 0;
  for (int i = 0; i < 4; ++i) {
    masters.push_back(layout::generateMos("M" + std::to_string(i), mp,
                                          "d" + std::to_string(i), "g",
                                          "s" + std::to_string(i), "0", proc()));
  }
  for (int i = 0; i < 4; ++i) {
    geom::CellInstance inst;
    inst.name = "M" + std::to_string(i);
    inst.master = &masters[static_cast<std::size_t>(i)];
    inst.placement = {geom::Orientation::R0, x, 0};
    p.instances.push_back(inst);
    x += masters.back().boundingBox().width() + gap;
  }
  geom::Rect bb;
  for (const auto& c : p.instances) bb = bb.unionWith(c.boundingBox());
  p.boundingBox = bb;
  p.overlapFree = true;
  return p;
}
}  // namespace

TEST(PerfDrivenPlacement, WeightedWirelengthRespondsToWeights) {
  const auto p = spreadRow(100);
  const double plain = layout::estimateWirelength(p.instances);
  const double heavyG = layout::estimateWirelengthWeighted(p.instances, {{"g", 5.0}});
  // "g" spans all devices, so weighting it up must raise the estimate.
  EXPECT_GT(heavyG, plain);
}

TEST(PerfDrivenPlacement, CriticalNetGetsShorter) {
  // Three devices share net "g"; devices 0 and 2 also share "crit".  With a
  // heavy weight on "crit", the placer should pull 0 and 2 closer together
  // than the unweighted run does.
  std::vector<layout::PlacementComponent> comps;
  circuit::MosParams mp{circuit::MosType::Nmos, 10e-6, 2e-6, 1, 0.0, 1.0};
  for (int i = 0; i < 4; ++i) {
    layout::PlacementComponent c;
    c.name = "M" + std::to_string(i);
    const std::string drain = (i == 0 || i == 2) ? "crit" : "d" + std::to_string(i);
    c.variants = {layout::generateMos(c.name, mp, drain, "g", "s" + std::to_string(i),
                                      "0", proc())};
    comps.push_back(std::move(c));
  }
  auto critLength = [&](const layout::Placement& p) {
    geom::Rect box;
    bool first = true;
    for (const auto& inst : p.instances)
      for (const auto& pin : inst.transformedPins())
        if (pin.name == "crit") {
          box = first ? pin.rect : box.unionWith(pin.rect);
          first = false;
        }
    return box.halfPerimeter();
  };
  layout::PlacerOptions plain;
  plain.seed = 9;
  layout::PlacerOptions weighted = plain;
  weighted.netWeights["crit"] = 30.0;
  const auto pPlain = layout::placeCells(comps, plain);
  const auto pWeighted = layout::placeCells(comps, weighted);
  ASSERT_TRUE(pWeighted.overlapFree);
  EXPECT_LE(critLength(pWeighted), critLength(pPlain));
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
  EXPECT_NE(v[0].describe().find("spacing"), std::string::npos);
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

// --------------------------------------------------------- symbolic poles

TEST(SymbolicPoles, RcPoleLocation) {
  symbolic::SmallSignalCircuit c(3);
  c.addConductance("g", 1e-3, 1, 2);
  c.addCapacitance("cl", 1e-9, 2, 0);
  const auto h = symbolic::voltageTransfer(c, 1, 2);
  const auto poles = h.poles(c.symbols());
  ASSERT_EQ(poles.size(), 1u);
  EXPECT_NEAR(poles[0].real(), -1e6, 1e3);  // -g/C = -1e6 rad/s
  EXPECT_TRUE(h.zeros(c.symbols()).empty());  // constant numerator
}

TEST(SymbolicPoles, TwoPoleLadder) {
  symbolic::SmallSignalCircuit c(4);
  c.addConductance("g1", 1e-3, 1, 2);
  c.addCapacitance("c1", 1e-9, 2, 0);
  c.addConductance("g2", 1e-4, 2, 3);
  c.addCapacitance("c2", 1e-10, 3, 0);
  const auto h = symbolic::voltageTransfer(c, 1, 3);
  const auto poles = h.poles(c.symbols());
  EXPECT_EQ(poles.size(), 2u);
  for (const auto& p : poles) EXPECT_LT(p.real(), 0.0);  // passive: stable
}

// ------------------------------------------------------------ segregation API

TEST(Segregate, AssignsByClassAndPreference) {
  std::vector<layout::SegregatedNet> nets = {
      {"clkA", layout::WireClass::Noisy, 0},
      {"clkB", layout::WireClass::Noisy, 2},
      {"sigA", layout::WireClass::Sensitive, 1},
      {"bias", layout::WireClass::Quiet, 3},
  };
  const auto a = layout::segregateChannels(nets);
  ASSERT_TRUE(a.valid);
  EXPECT_TRUE(layout::segregationHolds(a, nets));
  // Noisy nets land on even channels (default parity), sensitive on odd.
  EXPECT_EQ(a.channelOf.at("clkA") % 2, 0);
  EXPECT_EQ(a.channelOf.at("sigA") % 2, 1);
}

TEST(Segregate, CapacityForcesSpill) {
  std::vector<layout::SegregatedNet> nets;
  for (int i = 0; i < 6; ++i)
    nets.push_back({"n" + std::to_string(i), layout::WireClass::Noisy, 0});
  layout::SegregateOptions opts;
  opts.channelCount = 4;
  opts.maxLoadPerChannel = 2;
  const auto a = layout::segregateChannels(nets, opts);
  // 6 noisy nets at capacity 2: only channels 0 and 2 are noisy-legal, so
  // total legal capacity is 4 < 6 and the assignment must report failure.
  EXPECT_FALSE(a.valid);
  // With 8 channels (4 noisy-legal, capacity 8) everything fits.
  layout::SegregateOptions wide = opts;
  wide.channelCount = 8;
  const auto b = layout::segregateChannels(nets, wide);
  EXPECT_TRUE(b.valid);
  EXPECT_TRUE(layout::segregationHolds(b, nets));
}
