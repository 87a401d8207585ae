#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <numeric>
#include <set>
#include <tuple>

#include "bit_digest.hpp"
#include "circuit/netlist.hpp"
#include "core/celllayout.hpp"
#include "core/metrics.hpp"
#include "layout/cell/modgen.hpp"
#include "layout/cell/place.hpp"
#include "layout/cell/route.hpp"
#include "layout/cell/stack.hpp"
#include "sizing/opamp.hpp"

namespace lay = amsyn::layout;
namespace geom = amsyn::geom;
namespace ckt = amsyn::circuit;

namespace {
const ckt::Process& proc() { return ckt::defaultProcess(); }

ckt::MosParams nmos(double w = 10e-6, double l = 2e-6) {
  return {ckt::MosType::Nmos, w, l, 1, 0.0, 1.0};
}
ckt::MosParams pmos(double w = 10e-6, double l = 2e-6) {
  return {ckt::MosType::Pmos, w, l, 1, 0.0, 1.0};
}

/// Are all shapes of a net (wires + pins of placed instances) one connected
/// component?  Shapes connect when they overlap after 1-unit inflation and
/// are on the same layer, or one of them is a contact/via.
bool netConnected(const geom::Layout& layout, const std::string& net) {
  struct Piece {
    geom::Layer layer;
    geom::Rect rect;
  };
  std::vector<Piece> pieces;
  for (const auto& w : layout.wires)
    if (w.net == net) pieces.push_back({w.layer, w.rect});
  for (const auto& inst : layout.instances)
    for (const auto& pin : inst.transformedPins())
      if (pin.name == net) pieces.push_back({pin.layer, pin.rect});
  if (pieces.size() < 2) return pieces.size() == 1;

  auto connects = [](const Piece& a, const Piece& b) {
    if (!a.rect.inflated(1).overlaps(b.rect.inflated(1))) return false;
    if (a.layer == b.layer) return true;
    auto isCut = [](geom::Layer l) {
      return l == geom::Layer::Contact || l == geom::Layer::Via;
    };
    return isCut(a.layer) || isCut(b.layer);
  };
  std::vector<std::size_t> group(pieces.size());
  std::iota(group.begin(), group.end(), std::size_t{0});
  std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (group[x] != x) x = group[x] = group[group[x]];
    return x;
  };
  for (std::size_t i = 0; i < pieces.size(); ++i)
    for (std::size_t j = i + 1; j < pieces.size(); ++j)
      if (connects(pieces[i], pieces[j])) group[find(i)] = find(j);
  std::set<std::size_t> roots;
  for (std::size_t i = 0; i < pieces.size(); ++i) roots.insert(find(i));
  return roots.size() == 1;
}
}  // namespace

// ------------------------------------------------------------- module gen

TEST(ModGen, MosHasAllPins) {
  const auto m = lay::generateMos("M1", nmos(), "d", "g", "s", "b", proc());
  EXPECT_FALSE(m.pinsOnNet("d").empty());
  EXPECT_FALSE(m.pinsOnNet("g").empty());
  EXPECT_FALSE(m.pinsOnNet("s").empty());
  EXPECT_FALSE(m.pinsOnNet("b").empty());
  EXPECT_GT(m.boundingBox().area(), 0);
}

TEST(ModGen, FoldingShrinksHeightGrowsWidth) {
  lay::MosGenOptions one, four;
  four.fingers = 4;
  const auto m1 = lay::generateMos("M1", nmos(40e-6), "d", "g", "s", "b", proc(), one);
  const auto m4 = lay::generateMos("M1", nmos(40e-6), "d", "g", "s", "b", proc(), four);
  EXPECT_LT(m4.boundingBox().height(), m1.boundingBox().height());
  EXPECT_GT(m4.boundingBox().width(), m1.boundingBox().width());
}

TEST(ModGen, FoldedSourceOnOutside) {
  lay::MosGenOptions o;
  o.fingers = 2;
  const auto m = lay::generateMos("M1", nmos(20e-6), "d", "g", "s", "b", proc(), o);
  // 2 fingers: 3 contacts, alternating s-d-s: two source pins, one drain.
  EXPECT_EQ(m.pinsOnNet("s").size(), 2u);
  EXPECT_EQ(m.pinsOnNet("d").size(), 1u);
}

TEST(ModGen, PmosGetsNWell) {
  const auto m = lay::generateMos("M3", pmos(), "d", "g", "s", "vdd", proc());
  bool hasWell = false;
  for (const auto& s : m.shapes)
    if (s.layer == geom::Layer::NWell) hasWell = true;
  EXPECT_TRUE(hasWell);
}

TEST(ModGen, StackSharesDiffusion) {
  // Two devices in series (cascode): 3 contacts instead of 4.
  std::vector<lay::StackedDevice> devs = {
      {"M1", nmos(), "out", "g1", "mid", "0"},
      {"M2", nmos(), "mid", "g2", "gnd2", "0"},
  };
  const auto stack = lay::generateMosStack("stk", devs, proc());
  EXPECT_EQ(stack.pinsOnNet("mid").size(), 1u);  // shared region, one contact
  EXPECT_FALSE(stack.pinsOnNet("g1").empty());
  EXPECT_FALSE(stack.pinsOnNet("g2").empty());
  // Stack must be narrower than two separate devices side by side.
  const auto single = lay::generateMos("M1", nmos(), "a", "g", "b", "0", proc());
  EXPECT_LT(stack.boundingBox().width(), 2 * single.boundingBox().width());
}

TEST(ModGen, StackRejectsBrokenChain) {
  std::vector<lay::StackedDevice> devs = {
      {"M1", nmos(), "a", "g1", "x", "0"},
      {"M2", nmos(), "y", "g2", "b", "0"},  // x != y
  };
  EXPECT_THROW(lay::generateMosStack("bad", devs, proc()), std::invalid_argument);
}

TEST(ModGen, StackRejectsWidthMismatch) {
  std::vector<lay::StackedDevice> devs = {
      {"M1", nmos(10e-6), "a", "g1", "m", "0"},
      {"M2", nmos(20e-6), "m", "g2", "b", "0"},
  };
  EXPECT_THROW(lay::generateMosStack("bad", devs, proc()), std::invalid_argument);
}

TEST(ModGen, ResistorAreaScalesWithValue) {
  const auto r1 = lay::generateResistor("R1", 1e3, "a", "b", proc());
  const auto r2 = lay::generateResistor("R2", 10e3, "a", "b", proc());
  auto polyArea = [](const geom::CellMaster& m) {
    geom::Coord area = 0;
    for (const auto& s : m.shapes)
      if (s.layer == geom::Layer::Poly) area += s.rect.area();
    return area;
  };
  EXPECT_GT(polyArea(r2), 5 * polyArea(r1));
}

TEST(ModGen, CapacitorAreaMatchesValue) {
  const auto c = lay::generateCapacitor("C1", 1e-12, "top", "bot", proc());
  // 1 pF at 1 fF/um^2 -> 1000 um^2 -> side ~31.6 um = 79 lambda.
  const double sideLambda = static_cast<double>(c.boundingBox().width()) / 4.0;
  EXPECT_NEAR(sideLambda, 31.6e-6 / proc().lambda, 12.0);
}

// ------------------------------------------------------------- stacking

namespace {
/// Diff-pair-plus-mirror netlist: M1,M2 share "tail"; M3,M4 share "vdd".
ckt::Netlist mirrorPairNetlist() {
  ckt::Netlist n;
  n.addMos("M1", "n1", "inp", "tail", "0", ckt::MosType::Nmos, 20e-6, 2e-6);
  n.addMos("M2", "n2", "inn", "tail", "0", ckt::MosType::Nmos, 20e-6, 2e-6);
  n.addMos("M3", "n1", "n1", "vdd", "vdd", ckt::MosType::Pmos, 10e-6, 2e-6);
  n.addMos("M4", "n2", "n1", "vdd", "vdd", ckt::MosType::Pmos, 10e-6, 2e-6);
  return n;
}
}  // namespace

TEST(Stacking, GroupsByTypeAndWidth) {
  const auto graphs = lay::buildDiffusionGraphs(mirrorPairNetlist());
  ASSERT_EQ(graphs.size(), 2u);  // one NMOS group, one PMOS group
  for (const auto& g : graphs) EXPECT_EQ(g.edges.size(), 2u);
}

TEST(Stacking, WidthToleranceSplitsGroups) {
  ckt::Netlist n;
  n.addMos("M1", "a", "g", "b", "0", ckt::MosType::Nmos, 10e-6, 2e-6);
  n.addMos("M2", "b", "g", "c", "0", ckt::MosType::Nmos, 30e-6, 2e-6);
  const auto graphs = lay::buildDiffusionGraphs(n);
  EXPECT_EQ(graphs.size(), 2u);
}

TEST(Stacking, EulerBoundForPath) {
  // Chain a-b-c-d: 2 odd vertices -> 1 stack.
  ckt::Netlist n;
  n.addMos("M1", "a", "g1", "b", "0", ckt::MosType::Nmos, 10e-6, 2e-6);
  n.addMos("M2", "b", "g2", "c", "0", ckt::MosType::Nmos, 10e-6, 2e-6);
  n.addMos("M3", "c", "g3", "d", "0", ckt::MosType::Nmos, 10e-6, 2e-6);
  const auto graphs = lay::buildDiffusionGraphs(n);
  ASSERT_EQ(graphs.size(), 1u);
  EXPECT_EQ(graphs[0].minimumStacks(), 1u);
}

TEST(Stacking, EulerBoundForStar) {
  // Star at "mid" with 3 leaves: 4 odd vertices... degree(mid)=3 (odd),
  // leaves odd -> 4 odd -> 2 stacks.
  ckt::Netlist n;
  n.addMos("M1", "a", "g1", "mid", "0", ckt::MosType::Nmos, 10e-6, 2e-6);
  n.addMos("M2", "b", "g2", "mid", "0", ckt::MosType::Nmos, 10e-6, 2e-6);
  n.addMos("M3", "c", "g3", "mid", "0", ckt::MosType::Nmos, 10e-6, 2e-6);
  const auto graphs = lay::buildDiffusionGraphs(n);
  EXPECT_EQ(graphs[0].minimumStacks(), 2u);
}

TEST(Stacking, GreedyAchievesEulerMinimum) {
  for (const auto& net : {mirrorPairNetlist()}) {
    for (const auto& g : lay::buildDiffusionGraphs(net)) {
      const auto s = lay::greedyStacking(g);
      EXPECT_TRUE(lay::stackingValid(g, s));
      EXPECT_EQ(s.stacks.size(), g.minimumStacks());
    }
  }
}

TEST(Stacking, GreedyHandlesEulerCircuit) {
  // Ring a-b-c-a: all even degrees -> single closed trail, 1 stack.
  ckt::Netlist n;
  n.addMos("M1", "a", "g1", "b", "0", ckt::MosType::Nmos, 10e-6, 2e-6);
  n.addMos("M2", "b", "g2", "c", "0", ckt::MosType::Nmos, 10e-6, 2e-6);
  n.addMos("M3", "c", "g3", "a", "0", ckt::MosType::Nmos, 10e-6, 2e-6);
  const auto graphs = lay::buildDiffusionGraphs(n);
  const auto s = lay::greedyStacking(graphs[0]);
  EXPECT_TRUE(lay::stackingValid(graphs[0], s));
  EXPECT_EQ(s.stacks.size(), 1u);
}

TEST(Stacking, ExactMatchesGreedyCount) {
  for (const auto& g : lay::buildDiffusionGraphs(mirrorPairNetlist())) {
    const auto exact = lay::enumerateOptimalStackings(g, 8);
    ASSERT_FALSE(exact.empty());
    const auto greedy = lay::greedyStacking(g);
    for (const auto& s : exact) {
      EXPECT_TRUE(lay::stackingValid(g, s));
      EXPECT_EQ(s.stacks.size(), greedy.stacks.size());
    }
  }
}

TEST(Stacking, ExactEnumeratesMultipleSolutions) {
  // A path of 4 devices admits several optimal chains (direction/branching).
  ckt::Netlist n;
  n.addMos("M1", "a", "g1", "b", "0", ckt::MosType::Nmos, 10e-6, 2e-6);
  n.addMos("M2", "b", "g2", "c", "0", ckt::MosType::Nmos, 10e-6, 2e-6);
  n.addMos("M3", "b", "g3", "d", "0", ckt::MosType::Nmos, 10e-6, 2e-6);
  n.addMos("M4", "b", "g4", "e", "0", ckt::MosType::Nmos, 10e-6, 2e-6);
  const auto graphs = lay::buildDiffusionGraphs(n);
  const auto exact = lay::enumerateOptimalStackings(graphs[0], 16);
  EXPECT_GT(exact.size(), 1u);
}

TEST(Stacking, ExactThrowsOnHugeGroup) {
  ckt::Netlist n;
  for (int i = 0; i < 16; ++i)
    n.addMos("M" + std::to_string(i), "n" + std::to_string(i), "g",
             "n" + std::to_string(i + 1), "0", ckt::MosType::Nmos, 10e-6, 2e-6);
  const auto graphs = lay::buildDiffusionGraphs(n);
  EXPECT_THROW(lay::enumerateOptimalStackings(graphs[0]), std::invalid_argument);
  // ...but the O(n) extractor handles it fine.
  const auto s = lay::greedyStacking(graphs[0]);
  EXPECT_TRUE(lay::stackingValid(graphs[0], s));
  EXPECT_EQ(s.stacks.size(), 1u);
}

// ------------------------------------------------------------- placement

namespace {
std::vector<lay::PlacementComponent> diffPairComponents() {
  std::vector<lay::PlacementComponent> comps;
  lay::MosGenOptions fold2;
  fold2.fingers = 2;
  {
    lay::PlacementComponent c;
    c.name = "M1";
    c.variants = {lay::generateMos("M1", nmos(20e-6), "n1", "inp", "tail", "0", proc()),
                  lay::generateMos("M1", nmos(20e-6), "n1", "inp", "tail", "0", proc(),
                                   fold2)};
    c.symmetryPeer = "M2";
    comps.push_back(std::move(c));
  }
  {
    lay::PlacementComponent c;
    c.name = "M2";
    c.variants = {lay::generateMos("M2", nmos(20e-6), "n2", "inn", "tail", "0", proc()),
                  lay::generateMos("M2", nmos(20e-6), "n2", "inn", "tail", "0", proc(),
                                   fold2)};
    c.symmetryPeer = "M1";
    comps.push_back(std::move(c));
  }
  {
    lay::PlacementComponent c;
    c.name = "M5";
    c.variants = {lay::generateMos("M5", nmos(20e-6), "tail", "nb", "0", "0", proc())};
    comps.push_back(std::move(c));
  }
  return comps;
}
}  // namespace

TEST(Placer, RowPlacementIsLegal) {
  const auto p = lay::rowPlacement(diffPairComponents());
  EXPECT_TRUE(p.overlapFree);
  EXPECT_EQ(p.instances.size(), 3u);
  EXPECT_GT(p.wirelength, 0.0);
}

TEST(Placer, AnnealedPlacementIsLegalAndCompact) {
  const auto comps = diffPairComponents();
  lay::PlacerOptions opts;
  opts.seed = 3;
  const auto row = lay::rowPlacement(comps, opts);
  const auto an = lay::placeCells(comps, opts);
  EXPECT_TRUE(an.overlapFree);
  // The annealer must not be grossly worse than the trivial row.
  EXPECT_LT(static_cast<double>(an.boundingBox.area()),
            2.0 * static_cast<double>(row.boundingBox.area()));
}

TEST(Placer, SymmetricPairEndsUpMirrored) {
  const auto comps = diffPairComponents();
  lay::PlacerOptions opts;
  opts.seed = 5;
  opts.symmetryWeight = 8.0;
  const auto p = lay::placeCells(comps, opts);
  // Pair members must sit at (near-)equal heights.
  const auto& a = p.instances[0].boundingBox();
  const auto& b = p.instances[1].boundingBox();
  EXPECT_LT(std::abs(static_cast<double>(a.center().y - b.center().y)), 40.0);
}

TEST(Placer, WirelengthEstimateCountsSharedNets) {
  const auto comps = diffPairComponents();
  const auto p = lay::rowPlacement(comps);
  // "tail" spans all three devices: moving M5 far away must raise the
  // estimate.
  auto far = p.instances;
  far[2].placement.dx += 4000;
  EXPECT_GT(lay::estimateWirelength(far), p.wirelength);
}

// ------------------------------------------------------------- routing

TEST(Router, RoutesSimpleNetAndConnectsIt) {
  const auto comps = diffPairComponents();
  const auto p = lay::rowPlacement(comps);
  std::vector<lay::RouteNet> nets = {{"tail", lay::WireClass::Quiet, 0.0, std::nullopt}};
  const auto r = lay::routeCells(p.instances, nets, proc());
  ASSERT_TRUE(r.nets.at("tail").routed);
  EXPECT_TRUE(r.allRouted);
  EXPECT_GT(r.nets.at("tail").lengthLambda, 0.0);
  EXPECT_TRUE(netConnected(r.layout, "tail"));
}

TEST(Router, RoutesMultipleNets) {
  const auto comps = diffPairComponents();
  const auto p = lay::rowPlacement(comps);
  std::vector<lay::RouteNet> nets = {
      {"tail", lay::WireClass::Quiet, 0.0, std::nullopt},
      {"0", lay::WireClass::Quiet, 0.0, std::nullopt},
  };
  const auto r = lay::routeCells(p.instances, nets, proc());
  EXPECT_TRUE(r.allRouted);
  EXPECT_TRUE(netConnected(r.layout, "tail"));
  EXPECT_TRUE(netConnected(r.layout, "0"));
}

TEST(Router, CrosstalkPenaltySeparatesIncompatibleNets) {
  // Two parallel two-pin nets, one noisy one sensitive: with the penalty on,
  // exposure must be no worse than with it off.
  const auto comps = diffPairComponents();
  const auto p = lay::rowPlacement(comps);
  std::vector<lay::RouteNet> nets = {
      {"inp", lay::WireClass::Sensitive, 0.0, std::nullopt},
      {"tail", lay::WireClass::Noisy, 0.0, std::nullopt},
  };
  lay::RouterOptions noPenalty;
  noPenalty.crosstalkPenalty = 0;
  lay::RouterOptions withPenalty;
  withPenalty.crosstalkPenalty = 40;
  const auto r0 = lay::routeCells(p.instances, nets, proc(), noPenalty);
  const auto r1 = lay::routeCells(p.instances, nets, proc(), withPenalty);
  // "inp" is a single-pin net here (only gates of M1), so use tail/inp as a
  // smoke check: the run must succeed and exposure must not grow.
  EXPECT_LE(r1.crosstalkExposureLambda, r0.crosstalkExposureLambda + 1e-9);
}

TEST(Router, CapBoundReported) {
  const auto comps = diffPairComponents();
  const auto p = lay::rowPlacement(comps);
  std::vector<lay::RouteNet> nets = {
      {"tail", lay::WireClass::Quiet, 1e-18, std::nullopt},  // absurd bound
  };
  const auto r = lay::routeCells(p.instances, nets, proc());
  ASSERT_TRUE(r.nets.at("tail").routed);
  EXPECT_FALSE(r.nets.at("tail").capBoundMet);  // bound impossible to meet
  EXPECT_GT(r.nets.at("tail").estimatedCap, 1e-18);
}

namespace {
/// A bare pad master: one square pin of `net` on `layer`.
geom::CellMaster padMaster(const std::string& net, geom::Layer layer = geom::Layer::Metal1) {
  geom::CellMaster m;
  m.name = "pad_" + net;
  m.pins.push_back(geom::Pin{net, layer, {0, 0, 48, 48}});
  return m;
}

lay::RouteNet quiet(const std::string& name) {
  return {name, lay::WireClass::Quiet, 0.0, std::nullopt};
}

geom::CellInstance padAt(const geom::CellMaster& m, geom::Coord x, geom::Coord y) {
  return geom::CellInstance{m.name, &m, geom::Transform{geom::Orientation::R0, x, y}};
}

/// Net "a" runs up the left edge, its differential peer "b" up the right
/// edge (mirror images about the placement's vertical axis when
/// `bTopShift` is 0), and "c" runs across the right half.  The pad for the
/// unlisted net "d" balances the bounding box so the axis sits midway
/// between "a" and "b".
struct MirrorFixture {
  geom::CellMaster a = padMaster("a"), b = padMaster("b"), c = padMaster("c"),
                   d = padMaster("d");
  std::vector<geom::CellInstance> placed(geom::Coord bTopShift) const {
    return {padAt(a, 0, 0),     padAt(a, 0, 480),
            padAt(b, 480, 0),   padAt(b, 480 - bTopShift, 480),
            padAt(c, 384, 240), padAt(c, 624, 240),
            padAt(d, -144, 240)};
  }
  static std::vector<lay::RouteNet> nets(bool mirrorB) {
    std::vector<lay::RouteNet> out = {quiet("a"), quiet("b"), quiet("c")};
    if (mirrorB) out[1].symmetricPeer = "a";
    return out;
  }
};

void expectSameRouting(const lay::RouteResult& x, const lay::RouteResult& y) {
  ASSERT_EQ(x.layout.wires.size(), y.layout.wires.size());
  for (std::size_t i = 0; i < x.layout.wires.size(); ++i) {
    EXPECT_EQ(x.layout.wires[i].layer, y.layout.wires[i].layer) << i;
    EXPECT_EQ(x.layout.wires[i].rect, y.layout.wires[i].rect) << i;
    EXPECT_EQ(x.layout.wires[i].net, y.layout.wires[i].net) << i;
  }
  ASSERT_EQ(x.nets.size(), y.nets.size());
  for (const auto& [name, rep] : x.nets) {
    const auto& other = y.nets.at(name);
    EXPECT_EQ(rep.routed, other.routed) << name;
    EXPECT_EQ(rep.lengthLambda, other.lengthLambda) << name;
    EXPECT_EQ(rep.vias, other.vias) << name;
    EXPECT_EQ(rep.symmetricRealized, other.symmetricRealized) << name;
    EXPECT_EQ(rep.estimatedCap, other.estimatedCap) << name;
    EXPECT_EQ(rep.capBoundMet, other.capBoundMet) << name;
  }
  EXPECT_EQ(x.allRouted, y.allRouted);
  EXPECT_EQ(x.totalLengthLambda, y.totalLengthLambda);
  EXPECT_EQ(x.crosstalkExposureLambda, y.crosstalkExposureLambda);
}
}  // namespace

TEST(Router, SymmetricPeerIsMirrored) {
  const MirrorFixture f;
  const auto r = lay::routeCells(f.placed(0), MirrorFixture::nets(true), proc());
  EXPECT_TRUE(r.allRouted);
  EXPECT_TRUE(r.nets.at("b").symmetricRealized);
  EXPECT_FALSE(r.nets.at("a").symmetricRealized);
  EXPECT_EQ(r.nets.at("b").lengthLambda, r.nets.at("a").lengthLambda);
  EXPECT_TRUE(netConnected(r.layout, "b"));
}

TEST(Router, FailedMirrorLeavesTheGridAsItFoundIt) {
  // b's upper pad sits off a's mirror image, so the mirror misses it and b
  // is maze-routed instead.  The attempt must leave no node claimed: c,
  // routed after b across the mirrored column, routes as if b had no peer.
  const MirrorFixture f;
  const auto placed = f.placed(192);
  const auto mirrored = lay::routeCells(placed, MirrorFixture::nets(true), proc());
  const auto plain = lay::routeCells(placed, MirrorFixture::nets(false), proc());
  EXPECT_FALSE(mirrored.nets.at("b").symmetricRealized);
  EXPECT_TRUE(mirrored.allRouted);
  expectSameRouting(mirrored, plain);
}

TEST(Router, NetWithPinsOffTheRoutingLayersIsUnroutable) {
  const auto diff = padMaster("n", geom::Layer::NDiff);
  const auto a = padMaster("a");
  const std::vector<geom::CellInstance> placed = {padAt(diff, 0, 0), padAt(diff, 240, 0),
                                                  padAt(a, 0, 240), padAt(a, 240, 240)};
  const auto r = lay::routeCells(placed, {quiet("n"), quiet("a")}, proc());
  EXPECT_FALSE(r.nets.at("n").routed);
  EXPECT_FALSE(r.allRouted);
  EXPECT_TRUE(r.nets.at("a").routed);
  EXPECT_TRUE(netConnected(r.layout, "a"));
  for (const auto& w : r.layout.wires) EXPECT_NE(w.net, "n");
}

TEST(Router, SinglePinNetIsReportedUnroutedConsistently) {
  const auto lone = padMaster("s");
  const auto a = padMaster("a");
  const std::vector<geom::CellInstance> placed = {padAt(lone, 0, 0), padAt(a, 0, 240),
                                                  padAt(a, 240, 240)};
  const auto r = lay::routeCells(placed, {quiet("s"), quiet("a")}, proc());
  EXPECT_FALSE(r.nets.at("s").routed);
  EXPECT_FALSE(r.allRouted);  // agrees with the per-net report
  EXPECT_TRUE(r.nets.at("a").routed);
  // Without the lone net, everything routes.
  EXPECT_TRUE(lay::routeCells(placed, {quiet("a")}, proc()).allRouted);
}

TEST(Router, RejectsANetListedTwice) {
  const auto a = padMaster("a");
  const std::vector<geom::CellInstance> placed = {padAt(a, 0, 0), padAt(a, 240, 0)};
  EXPECT_THROW(lay::routeCells(placed, {quiet("a"), quiet("a")}, proc()), std::invalid_argument);
}

namespace {
/// Route a two-pad net under `opts`; throws what routeCells throws.
lay::RouteResult routePads(const lay::RouterOptions& opts) {
  static const auto a = padMaster("a");
  const std::vector<geom::CellInstance> placed = {padAt(a, 0, 0), padAt(a, 240, 240)};
  return lay::routeCells(placed, {quiet("a")}, proc(), opts);
}

/// routeCells must reject `opts` with an invalid_argument naming `field`.
void expectRejected(const lay::RouterOptions& opts, const std::string& field) {
  try {
    routePads(opts);
    ADD_FAILURE() << field << " accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}
}  // namespace

TEST(Router, RejectsANonPositivePitch) {
  for (const geom::Coord pitch : {0, -24}) {
    lay::RouterOptions opts;
    opts.pitch = pitch;
    expectRejected(opts, "pitch");
  }
}

TEST(Router, RejectsANonPositiveWireWidth) {
  for (const geom::Coord width : {0, -12}) {
    lay::RouterOptions opts;
    opts.wireWidth = width;
    expectRejected(opts, "wireWidth");
  }
}

TEST(Router, RejectsANegativeMargin) {
  lay::RouterOptions opts;
  opts.margin = -1;
  expectRejected(opts, "margin");
  opts.margin = 0;
  EXPECT_TRUE(routePads(opts).allRouted);
}

TEST(Router, RejectsANegativeViaCost) {
  lay::RouterOptions opts;
  opts.viaCost = -10;
  expectRejected(opts, "viaCost");
}

TEST(Router, RejectsANegativePenalty) {
  lay::RouterOptions overDevice;
  overDevice.overDevicePenalty = -1;
  expectRejected(overDevice, "overDevicePenalty");
  lay::RouterOptions crosstalk;
  crosstalk.crosstalkPenalty = -1;
  expectRejected(crosstalk, "crosstalkPenalty");
  lay::RouterOptions poly;
  poly.polyPenalty = -1;
  expectRejected(poly, "polyPenalty");
}

TEST(Router, RejectsZeroPasses) {
  lay::RouterOptions opts;
  opts.maxPasses = 0;
  expectRejected(opts, "maxPasses");
}

// ------------------------------------------------------------- layer goldens
//
// Raw-bit digests of placeCells/rowPlacement and routeCells output.  The
// pinned flow results only see a cell's bounding-box area, so a moved wire
// or a changed anneal trajectory would otherwise pass unnoticed.  Each
// geometry digest covers every emitted wire in order, every NetReport
// field, the route totals, every instance transform and chosen variant, the
// placement figures and anneal statistics, and the placement-move counter
// delta.  The maze-expansion counter delta is pinned beside it, apart: a
// search that visits fewer nodes to find the same routes moves only that
// count.  A change that must not move layout keeps the geometry digests;
// one that means to re-records them and says why.

namespace {
using amsyn::testutil::BitDigest;

std::uint64_t counterTotal(const char* name) {
  return amsyn::core::metrics::registry().total(name);
}

/// A layer run's geometry digest and the maze expansions it spent.
struct LayerRun {
  std::string geometry;
  std::uint64_t expansions = 0;
};

void addRect(BitDigest& d, const geom::Rect& r) { d.i64(r.x0).i64(r.y0).i64(r.x1).i64(r.y1); }

void addPlacement(BitDigest& d, const lay::Placement& p) {
  d.u64(p.instances.size());
  for (const auto& inst : p.instances)
    d.str(inst.name)
        .u64(static_cast<std::uint64_t>(inst.placement.orient))
        .i64(inst.placement.dx)
        .i64(inst.placement.dy);
  d.u64(p.variantChosen.size());
  for (const auto& [name, v] : p.variantChosen) d.str(name).u64(v);
  addRect(d, p.boundingBox);
  d.real(p.wirelength).u64(p.overlapFree).real(p.symmetryError);
  d.real(p.stats.bestCost).u64(p.stats.movesAttempted).u64(p.stats.movesAccepted).u64(
      p.stats.stages);
}

void addRouting(BitDigest& d, const lay::RouteResult& r) {
  d.u64(r.layout.wires.size());
  for (const auto& w : r.layout.wires) {
    d.u64(static_cast<std::uint64_t>(w.layer)).str(w.net);
    addRect(d, w.rect);
  }
  d.u64(r.nets.size());
  for (const auto& [name, rep] : r.nets)
    d.str(name)
        .u64(rep.routed)
        .real(rep.lengthLambda)
        .i64(rep.vias)
        .u64(rep.symmetricRealized)
        .real(rep.estimatedCap)
        .u64(rep.capBoundMet);
  d.real(r.totalLengthLambda).real(r.crosstalkExposureLambda);
}

/// Lay out the Fig. 2 two-stage opamp cell, as bench_fig2_cell_layouts does.
amsyn::core::CellLayoutResult fig2Cell(bool anneal, bool stacking, std::uint64_t seed) {
  const auto net = amsyn::sizing::buildTwoStageOpamp(amsyn::sizing::TwoStageParams{}, proc());
  amsyn::core::CellLayoutOptions opts;
  opts.annealPlacement = anneal;
  opts.useStacking = stacking;
  opts.seed = seed;
  return amsyn::core::layoutCellGeometry(net, proc(), opts);
}

/// Digest the Fig. 2 cell's placement, routing and layer work.
LayerRun fig2CellRun(bool anneal, bool stacking, std::uint64_t seed) {
  const std::uint64_t expansions = counterTotal("route.expansions");
  const std::uint64_t moves = counterTotal("place.moves_attempted");
  const auto r = fig2Cell(anneal, stacking, seed);
  EXPECT_TRUE(r.success);
  BitDigest d;
  addPlacement(d, r.placement);
  addRouting(d, r.routing);
  d.u64(r.usedRowFallback).u64(counterTotal("place.moves_attempted") - moves);
  return {d.hex(), counterTotal("route.expansions") - expansions};
}

std::string placeDigest(const lay::PlacerOptions& opts) {
  const auto comps = diffPairComponents();
  const std::uint64_t moves = counterTotal("place.moves_attempted");
  const auto p = lay::placeCells(comps, opts);
  BitDigest d;
  addPlacement(d, p);
  d.u64(counterTotal("place.moves_attempted") - moves);
  return d.hex();
}

LayerRun routeRun(const std::vector<lay::RouteNet>& nets, const lay::RouterOptions& opts = {}) {
  const auto comps = diffPairComponents();
  const auto p = lay::rowPlacement(comps);
  const std::uint64_t expansions = counterTotal("route.expansions");
  const auto r = lay::routeCells(p.instances, nets, proc(), opts);
  BitDigest d;
  addRouting(d, r);
  return {d.hex(), counterTotal("route.expansions") - expansions};
}

/// One option set of the router sweep: router options, and nets that
/// replace the placement's same-named quiet net or join the list.
struct SweepCase {
  lay::RouterOptions opts;
  std::vector<lay::RouteNet> nets;
};

std::vector<SweepCase> sweepCases() {
  using lay::WireClass;
  const std::vector<lay::RouteNet> classed = {
      {"tail", WireClass::Noisy, 0.0, std::nullopt},
      {"out", WireClass::Noisy, 0.0, std::nullopt},
      {"0", WireClass::Sensitive, 0.0, std::nullopt},
      {"n1", WireClass::Sensitive, 0.0, std::nullopt},
      {"nbias", WireClass::Sensitive, 0.0, std::nullopt},
  };
  std::vector<SweepCase> cases(8);
  cases[0].opts.crosstalkPenalty = 0;
  cases[0].nets = classed;
  cases[1].opts.crosstalkPenalty = 40;
  cases[1].nets = classed;
  cases[2].opts.viaCost = 1;
  cases[3].opts.viaCost = 9;
  cases[4].opts.polyPenalty = 0;
  cases[5].nets = {{"tail", WireClass::Quiet, 1e-15, std::nullopt}};
  cases[6].nets = {{"inp", WireClass::Quiet, 0.0, std::nullopt},
                   {"inn", WireClass::Quiet, 0.0, std::string("inp")},
                   {"no1", WireClass::Quiet, 0.0, std::string("n1")}};
  // cases[7]: the defaults.
  return cases;
}

/// A quiet net for every pin name the placement carries at least twice.
std::vector<lay::RouteNet> multiPinNets(const std::vector<geom::CellInstance>& placed) {
  std::map<std::string, std::size_t> pinCount;
  for (const auto& inst : placed)
    for (const auto& pin : inst.transformedPins()) ++pinCount[pin.name];
  std::vector<lay::RouteNet> nets;
  for (const auto& [name, count] : pinCount)
    if (count >= 2) nets.push_back({name, lay::WireClass::Quiet, 0.0, std::nullopt});
  return nets;
}

/// Route every sweep case over one placement and digest the lot.  The
/// base net list is multiPinNets(placed).
LayerRun sweepRun(const std::vector<geom::CellInstance>& placed) {
  BitDigest d;
  std::uint64_t expansions = 0;
  for (const auto& c : sweepCases()) {
    auto nets = multiPinNets(placed);
    for (const auto& over : c.nets) {
      const auto it = std::find_if(nets.begin(), nets.end(),
                                   [&](const lay::RouteNet& n) { return n.name == over.name; });
      if (it != nets.end())
        *it = over;
      else
        nets.push_back(over);
    }
    const std::uint64_t before = counterTotal("route.expansions");
    const auto r = lay::routeCells(placed, nets, proc(), c.opts);
    expansions += counterTotal("route.expansions") - before;
    addRouting(d, r);
  }
  return {d.hex(), expansions};
}
}  // namespace

TEST(LayerGoldens, Fig2RowCells) {
  const auto stacked = fig2CellRun(false, true, 1);  // manual-1: row, stacked
  EXPECT_EQ(stacked.geometry, "0x543e22078bd3748a");
  EXPECT_EQ(stacked.expansions, 10612u);
  const auto flat = fig2CellRun(false, false, 1);  // manual-2: row, flat
  EXPECT_EQ(flat.geometry, "0x897f446a6f450eae");
  EXPECT_EQ(flat.expansions, 11030u);
}

TEST(LayerGoldens, Fig2AnnealedCells) {
  const auto auto1 = fig2CellRun(true, true, 3);
  EXPECT_EQ(auto1.geometry, "0xcd80e245ea6573c1");
  EXPECT_EQ(auto1.expansions, 10612u);
  const auto auto2 = fig2CellRun(true, true, 17);
  EXPECT_EQ(auto2.geometry, "0x089d9d8a83064b08");
  EXPECT_EQ(auto2.expansions, 10612u);
}

TEST(LayerGoldens, PlacerFixtures) {
  lay::PlacerOptions seed3;
  seed3.seed = 3;
  EXPECT_EQ(placeDigest(seed3), "0xfe46efa56ba1ae17");
  lay::PlacerOptions symmetric;
  symmetric.seed = 5;
  symmetric.symmetryWeight = 8.0;
  EXPECT_EQ(placeDigest(symmetric), "0x3a4a6489de9b1896");
  lay::PlacerOptions weighted;
  weighted.seed = 11;
  weighted.netWeights = {{"tail", 6.0}, {"inp", 0.25}};
  EXPECT_EQ(placeDigest(weighted), "0xc1e0a33ff70338d4");
}

TEST(LayerGoldens, RouterFixtures) {
  const lay::RouteNet tail{"tail", lay::WireClass::Quiet, 0.0, std::nullopt};
  const lay::RouteNet ground{"0", lay::WireClass::Quiet, 0.0, std::nullopt};
  const std::vector<lay::RouteNet> classed = {
      {"inp", lay::WireClass::Sensitive, 0.0, std::nullopt},
      {"tail", lay::WireClass::Noisy, 0.0, std::nullopt},
      {"0", lay::WireClass::Sensitive, 0.0, std::nullopt},
  };
  lay::RouterOptions noPenalty;
  noPenalty.crosstalkPenalty = 0;
  lay::RouterOptions withPenalty;
  withPenalty.crosstalkPenalty = 40;
  const lay::RouteNet capBounded{"tail", lay::WireClass::Quiet, 1e-18, std::nullopt};
  const struct {
    LayerRun run;
    const char* geometry;
    std::uint64_t expansions;
  } fixtures[] = {
      {routeRun({tail}), "0x226c5f902e925b6e", 47u},
      {routeRun({tail, ground}), "0x3d21f30e8b0ffa01", 160u},
      {routeRun(classed, noPenalty), "0x6a5c6728366ab33f", 160u},
      {routeRun(classed, withPenalty), "0x41f2d09c7dec6bf5", 575u},
      {routeRun({capBounded}), "0x4083ec2e435cb77f", 47u},
  };
  for (std::size_t i = 0; i < std::size(fixtures); ++i) {
    EXPECT_EQ(fixtures[i].run.geometry, fixtures[i].geometry) << "fixture " << i;
    EXPECT_EQ(fixtures[i].run.expansions, fixtures[i].expansions) << "fixture " << i;
  }
}

// Every sweep case (crosstalk penalty 0 and 40 over classed nets, via cost
// 1 and 9, no poly penalty, a capacitance-bounded net, mirrored pairs, the
// defaults) routed over annealed placements of the diff pair and of the
// Fig. 2 cell.  The annealer keeps the row when it cannot beat it, as it
// does for the Fig. 2 cell at seed 3; seeds 14 and 20 pack it otherwise.
TEST(LayerGoldens, RouterSweep) {
  const auto comps = diffPairComponents();
  for (const auto& [seed, geometry, expansions] :
       {std::tuple{std::uint64_t{3}, "0xdd8b2f5eb5163d07", std::uint64_t{1309}},
        std::tuple{std::uint64_t{11}, "0xad2a4e6d4053fd4b", std::uint64_t{1799}}}) {
    lay::PlacerOptions opts;
    opts.seed = seed;
    const auto run = sweepRun(lay::placeCells(comps, opts).instances);
    EXPECT_EQ(run.geometry, geometry) << "diff pair, seed " << seed;
    EXPECT_EQ(run.expansions, expansions) << "diff pair, seed " << seed;
  }
  const auto fig2 = fig2Cell(false, true, 1);  // its components are the cell's masters
  for (const auto& [seed, geometry, expansions] :
       {std::tuple{std::uint64_t{3}, "0xd4cd85a47f5c5b9e", std::uint64_t{80359}},
        std::tuple{std::uint64_t{14}, "0xe65b83ef0be33f43", std::uint64_t{588765}},
        std::tuple{std::uint64_t{20}, "0x68165d6709a0c6ca", std::uint64_t{85231}}}) {
    lay::PlacerOptions opts;
    opts.seed = seed;
    const auto run = sweepRun(lay::placeCells(fig2.components, opts).instances);
    EXPECT_EQ(run.geometry, geometry) << "Fig. 2 cell, seed " << seed;
    EXPECT_EQ(run.expansions, expansions) << "Fig. 2 cell, seed " << seed;
  }
}

TEST(Router, FreeViasStillRouteConnectedNets) {
  // With no via cost or penalty, stepping between layers costs nothing, so
  // equal-distance nodes can reach each other.  Tie-breaking must not link
  // such nodes into a parent cycle: every routed net stays one connected
  // tree.
  lay::RouterOptions opts;
  opts.viaCost = 0;
  opts.overDevicePenalty = 0;
  opts.polyPenalty = 0;
  const auto cell = fig2Cell(false, true, 1);
  const auto r =
      lay::routeCells(cell.placement.instances, multiPinNets(cell.placement.instances), proc(),
                      opts);
  EXPECT_TRUE(r.allRouted);
  for (const auto& [name, rep] : r.nets) EXPECT_TRUE(netConnected(r.layout, name)) << name;
}
