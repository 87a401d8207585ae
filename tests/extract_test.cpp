#include <gtest/gtest.h>

#include <cmath>

#include "extract/extract.hpp"
#include "extract/matchgen.hpp"
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
