#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <random>

#include "extract/extract.hpp"
#include "extract/matchgen.hpp"
#include "reference/extract_allpairs.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/measure.hpp"
#include "sizing/opamp.hpp"

namespace ex = amsyn::extract;
namespace geom = amsyn::geom;
namespace ckt = amsyn::circuit;
namespace sim = amsyn::sim;
namespace sz = amsyn::sizing;

namespace {
const ckt::Process& proc() { return ckt::defaultProcess(); }

geom::Layout twoWireLayout(geom::Coord gap) {
  geom::Layout l;
  // Two parallel metal1 wires, 1000 units long, 12 wide, `gap` apart.
  l.wires.push_back({geom::Layer::Metal1, {0, 0, 1000, 12}, "a"});
  l.wires.push_back({geom::Layer::Metal1, {0, 12 + gap, 1000, 24 + gap}, "b"});
  return l;
}
}  // namespace

TEST(Extract, GroundCapScalesWithLength) {
  geom::Layout small, big;
  small.wires.push_back({geom::Layer::Metal1, {0, 0, 500, 12}, "n"});
  big.wires.push_back({geom::Layer::Metal1, {0, 0, 5000, 12}, "n"});
  const auto eSmall = ex::extractParasitics(small, proc());
  const auto eBig = ex::extractParasitics(big, proc());
  EXPECT_GT(eBig.groundCapOf("n"), 5.0 * eSmall.groundCapOf("n"));
}

TEST(Extract, CouplingFallsWithSpacing) {
  const auto close = ex::extractParasitics(twoWireLayout(8), proc());
  const auto far = ex::extractParasitics(twoWireLayout(20), proc());
  EXPECT_GT(close.couplingBetween("a", "b"), far.couplingBetween("a", "b"));
  EXPECT_GT(far.couplingBetween("a", "b"), 0.0);
  // Beyond the window: no coupling.
  const auto veryFar = ex::extractParasitics(twoWireLayout(100), proc());
  EXPECT_DOUBLE_EQ(veryFar.couplingBetween("a", "b"), 0.0);
}

TEST(Extract, CouplingIsSymmetric) {
  const auto e = ex::extractParasitics(twoWireLayout(8), proc());
  EXPECT_DOUBLE_EQ(e.couplingBetween("a", "b"), e.couplingBetween("b", "a"));
}

TEST(Extract, ResistanceTracksSquares) {
  geom::Layout l;
  l.wires.push_back({geom::Layer::Poly, {0, 0, 1200, 12}, "r"});  // 100 squares
  const auto e = ex::extractParasitics(l, proc());
  EXPECT_NEAR(e.nets.at("r").resistance, 100.0 * proc().rsPoly, 1.0);
}

TEST(Extract, BackAnnotateAddsCapacitors) {
  ckt::Netlist net;
  net.addVSource("V1", "a", "0", 1.0, 1.0);
  net.addResistor("R1", "a", "b", 1e3);
  net.addResistor("R2", "b", "0", 1e3);

  ex::ExtractionResult ext;
  ext.nets["b"].groundCap = 2e-12;
  ext.nets["a"].groundCap = 1e-12;
  ext.nets["a"].couplingTo["b"] = 0.5e-12;
  ext.nets["b"].couplingTo["a"] = 0.5e-12;

  const auto annotated = ex::backAnnotate(net, ext);
  std::size_t caps = 0;
  for (const auto& d : annotated.devices())
    if (d.type == ckt::DeviceType::Capacitor) ++caps;
  EXPECT_EQ(caps, 3u);  // 2 ground + 1 coupling
  // The original netlist is untouched.
  EXPECT_EQ(net.devices().size(), 3u);
}

TEST(Extract, BackAnnotationShiftsPole) {
  // RC divider: added parasitic cap must lower the pole, and so the gain
  // well above it.
  ckt::Netlist net;
  net.addVSource("V1", "in", "0", 0.0, 1.0);
  net.addResistor("R1", "in", "out", 100e3);
  net.addCapacitor("CL", "out", "0", 1e-12);

  ex::ExtractionResult ext;
  ext.nets["out"].groundCap = 3e-12;

  auto gainAt10MHz = [&](const ckt::Netlist& n) {
    sim::Mna mna(n, proc());
    const auto op = sim::dcOperatingPoint(mna);
    return std::abs(sim::acTransfer(mna, op, "out", 10e6));
  };
  const double before = gainAt10MHz(net);
  const double after = gainAt10MHz(ex::backAnnotate(net, ext));
  EXPECT_LT(after, before * 0.5);  // 1 pF -> 4 pF: pole drops 4x
}

TEST(MatchGen, FindsDiffPairAndMirrorsInOpamp) {
  const auto net = sz::buildTwoStageOpamp(sz::TwoStageParams{}, proc(), {});
  const auto constraints = ex::generateMatchingConstraints(net);

  bool pairM1M2 = false, mirrorM3M4 = false, mirrorBias = false;
  for (const auto& c : constraints) {
    if (c.kind == ex::MatchKind::DifferentialPair &&
        ((c.deviceA == "M1" && c.deviceB == "M2") ||
         (c.deviceA == "M2" && c.deviceB == "M1")))
      pairM1M2 = true;
    if (c.kind == ex::MatchKind::CurrentMirror &&
        ((c.deviceA == "M3" && c.deviceB == "M4")))
      mirrorM3M4 = true;
    if (c.kind == ex::MatchKind::CurrentMirror && c.deviceA == "M8") mirrorBias = true;
  }
  EXPECT_TRUE(pairM1M2);
  EXPECT_TRUE(mirrorM3M4);
  EXPECT_TRUE(mirrorBias);  // M8 diode mirrors into M5 or M7
}

TEST(MatchGen, DiffPairImpliesSymmetricNets) {
  const auto net = sz::buildTwoStageOpamp(sz::TwoStageParams{}, proc(), {});
  const auto constraints = ex::generateMatchingConstraints(net);
  for (const auto& c : constraints) {
    if (c.kind != ex::MatchKind::DifferentialPair) continue;
    ASSERT_EQ(c.symmetricNets.size(), 2u);
    // Gate nets of the pair: inp / inn.
    const auto& g = c.symmetricNets[0];
    EXPECT_TRUE((g.first == "inp" && g.second == "inn") ||
                (g.first == "inn" && g.second == "inp"));
  }
}

TEST(MatchGen, NoFalsePairOnSupplySources) {
  // Two unrelated NMOS with sources at ground: not a differential pair.
  ckt::Netlist net;
  net.addMos("Ma", "x", "g1", "0", "0", ckt::MosType::Nmos, 10e-6, 2e-6);
  net.addMos("Mb", "y", "g2", "0", "0", ckt::MosType::Nmos, 10e-6, 2e-6);
  const auto constraints = ex::generateMatchingConstraints(net);
  for (const auto& c : constraints)
    EXPECT_NE(c.kind, ex::MatchKind::DifferentialPair);
}

// ------------------------------------------------- indexed vs all-pairs
//
// extractParasitics finds coupling neighbours through a bin index; the
// reference compares every pair.  Both must agree on every bit of every
// sum, which holds only if the index finds every coupling pair and adds
// them in the all-pairs (i, j) order.

namespace {

/// Empty when the two extractions agree bit for bit, else the first
/// difference.
std::string extractionMismatch(const ex::ExtractionResult& got,
                               const ex::ExtractionResult& want) {
  const auto same = [](double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; };
  if (got.nets.size() != want.nets.size()) return "net count";
  for (auto g = got.nets.begin(), w = want.nets.begin(); g != got.nets.end(); ++g, ++w) {
    if (g->first != w->first) return "net " + g->first + " vs " + w->first;
    const auto& gp = g->second;
    const auto& wp = w->second;
    if (!same(gp.groundCap, wp.groundCap)) return g->first + ": groundCap";
    if (!same(gp.resistance, wp.resistance)) return g->first + ": resistance";
    if (gp.couplingTo.size() != wp.couplingTo.size()) return g->first + ": coupling count";
    for (auto gc = gp.couplingTo.begin(), wc = wp.couplingTo.begin();
         gc != gp.couplingTo.end(); ++gc, ++wc)
      if (gc->first != wc->first || !same(gc->second, wc->second))
        return g->first + ": coupling to " + wc->first;
  }
  return {};
}

std::string differential(const geom::Layout& layout) {
  return extractionMismatch(ex::extractParasitics(layout, proc()),
                            amsyn::reference::extractAllPairs(layout, proc()));
}

/// A seeded random layout: clustered wires on the three routing layers
/// (plus a few on layers extraction skips), some of them long straps,
/// others placed at a chosen gap or corner-to-corner from an earlier
/// shape, coordinates around the origin and often on multiples of 16.
/// Every other layout also carries a placed instance.
struct RandomLayout {
  geom::Layout layout;
  geom::CellMaster master;  // the instance's master; layout points into it
};

void fillRandomLayout(std::uint64_t seed, RandomLayout& out) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](std::uint64_t n) { return static_cast<geom::Coord>(rng() % n); };
  constexpr geom::Layer kLayers[] = {geom::Layer::Poly, geom::Layer::Metal1,
                                     geom::Layer::Metal2, geom::Layer::Via};
  const char* const kNets[] = {"a", "b", "c", "d", "e", ""};
  const std::size_t shapes = static_cast<std::size_t>(pick(80));
  const geom::Coord span = 64 + pick(1500);
  auto& made = out.layout.wires;
  for (std::size_t k = 0; k < shapes; ++k) {
    geom::Shape s;
    s.layer = kLayers[pick(20) == 0 ? 3 : pick(3)];
    s.net = kNets[pick(20) == 0 ? 5 : pick(5)];
    const geom::Coord w = 1 + pick(30);
    const geom::Coord len = pick(8) == 0 ? 200 + pick(2000) : 1 + pick(60);  // straps
    const bool horizontal = pick(2) == 0;
    const geom::Coord sx = horizontal ? len : w;
    const geom::Coord sy = horizontal ? w : len;
    geom::Coord x = pick(2 * span) - span;
    geom::Coord y = pick(2 * span) - span;
    if (pick(3) == 0) x -= x % 16, y -= y % 16;  // on bin edges
    const auto kind = pick(4);
    if (!made.empty() && kind != 0) {
      const geom::Rect& a = made[static_cast<std::size_t>(pick(made.size()))].rect;
      constexpr geom::Coord kGaps[] = {0, 1, 2, 23, 24, 25, 12};
      const geom::Coord g = kGaps[pick(std::size(kGaps))];
      switch (pick(4)) {
        case 0: x = a.x1 + g, y = a.y0 + pick(40) - 20; break;       // right of a
        case 1: x = a.x0 - g - sx, y = a.y0 + pick(40) - 20; break;  // left of a
        case 2: x = a.x0 + pick(40) - 20, y = a.y1 + g; break;       // above a
        default: x = a.x1 + g, y = a.y1 + (pick(2) == 0 ? g : 0);    // corner to corner
      }
    }
    s.rect = geom::Rect::fromSize(x, y, sx, sy);
    made.push_back(s);
  }
  if (seed % 2 == 0) {
    const std::size_t own = static_cast<std::size_t>(pick(12));
    for (std::size_t k = 0; k < own; ++k) {
      geom::Shape s;
      s.layer = kLayers[pick(3)];
      s.net = kNets[pick(6)];
      s.rect = geom::Rect::fromSize(pick(200) - 100, pick(200) - 100, 1 + pick(40), 1 + pick(40));
      out.master.shapes.push_back(s);
    }
    geom::CellInstance inst;
    inst.name = "X";
    inst.master = &out.master;
    inst.placement = {geom::kAllOrientations[static_cast<std::size_t>(pick(8))],
                      pick(400) - 200, pick(400) - 200};
    out.layout.instances.push_back(inst);
  }
}

geom::Layout wiresOf(std::initializer_list<geom::Shape> shapes) {
  geom::Layout l;
  l.wires.assign(shapes.begin(), shapes.end());
  return l;
}

}  // namespace

TEST(ExtractDifferential, SeededRandomLayoutsMatchAllPairsBitForBit) {
  std::size_t coupled = 0;
  for (std::uint64_t seed = 1; seed <= 1200; ++seed) {
    RandomLayout r;
    fillRandomLayout(seed, r);
    EXPECT_EQ(differential(r.layout), "") << "seed " << seed;
    for (const auto& [net, par] : ex::extractParasitics(r.layout, proc()).nets)
      coupled += par.couplingTo.size();
  }
  EXPECT_GT(coupled, 10000u);  // the layouts do couple, on many nets
}

TEST(ExtractDifferential, EdgeCasesMatchAllPairsBitForBit) {
  using geom::Layer;
  EXPECT_EQ(differential(geom::Layout{}), "");
  EXPECT_EQ(differential(wiresOf({{Layer::Metal1, {0, 0, 100, 12}, "a"}})), "");
  // Gaps 0 and 25 do not couple; 1 and 24 do.
  for (const geom::Coord gap : {0, 1, 24, 25}) {
    const auto l = twoWireLayout(gap);
    EXPECT_EQ(differential(l), "") << "gap " << gap;
    EXPECT_EQ(ex::extractParasitics(l, proc()).couplingBetween("a", "b") > 0.0,
              gap == 1 || gap == 24)
        << "gap " << gap;
  }
  // Corners that touch, or sit one unit apart diagonally (no parallel run).
  EXPECT_EQ(differential(wiresOf({{Layer::Metal1, {0, 0, 12, 12}, "a"},
                                  {Layer::Metal1, {12, 12, 24, 24}, "b"},
                                  {Layer::Metal1, {25, 25, 37, 37}, "c"}})),
            "");
  // A strap spanning many bins, with neighbours along it, on bin edges and
  // at negative coordinates; same-net neighbours do not couple.
  EXPECT_EQ(differential(wiresOf({{Layer::Metal2, {-4096, 0, 4096, 12}, "s"},
                                  {Layer::Metal2, {-1024, 24, -960, 36}, "a"},
                                  {Layer::Metal2, {-64, -36, 0, -24}, "b"},
                                  {Layer::Metal2, {960, 12, 1024, 24}, "s"},
                                  {Layer::Metal2, {2048, 36, 2112, 48}, "c"},
                                  {Layer::Metal1, {0, 24, 64, 36}, "a"}})),
            "");
  // A rect with x0 > x1 is empty, yet gap and run still make it couple.
  const auto inverted = wiresOf({{Layer::Metal1, {100, 0, 0, 12}, "a"},
                                 {Layer::Metal1, {10, 0, 200, 12}, "b"}});
  EXPECT_EQ(differential(inverted), "");
  EXPECT_GT(ex::extractParasitics(inverted, proc()).couplingBetween("a", "b"), 0.0);
  // Shapes so far apart the index must not grow one bin per 64 units.
  EXPECT_EQ(differential(wiresOf({{Layer::Metal1, {-1000000000, 0, -999999900, 12}, "a"},
                                  {Layer::Metal1, {-999999900, 20, -999999800, 32}, "b"},
                                  {Layer::Metal1, {1000000000, 0, 1000000100, 12}, "c"}})),
            "");
}
