#include <gtest/gtest.h>

#include <cmath>

#include "circuit/mosmodel.hpp"
#include "circuit/netlist.hpp"
#include "circuit/parser.hpp"
#include "circuit/process.hpp"

namespace ckt = amsyn::circuit;

TEST(Netlist, GroundAliases) {
  ckt::Netlist n;
  EXPECT_EQ(n.node("0"), ckt::kGround);
  EXPECT_EQ(n.node("gnd"), ckt::kGround);
  EXPECT_NE(n.node("out"), ckt::kGround);
}

TEST(Netlist, BuildersRegisterDevices) {
  ckt::Netlist n;
  n.addResistor("R1", "a", "b", 1e3);
  n.addCapacitor("C1", "b", "0", 1e-12);
  n.addVSource("V1", "a", "0", 5.0, 1.0);
  n.addMos("M1", "d", "g", "s", "0", ckt::MosType::Nmos, 10e-6, 1e-6);
  EXPECT_EQ(n.devices().size(), 4u);
  EXPECT_EQ(n.branchCount(), 1u);  // only V1
  EXPECT_EQ(n.device("M1").mos.w, 10e-6);
  EXPECT_THROW(n.device("nope"), std::out_of_range);
}

TEST(Netlist, RejectsBadValues) {
  ckt::Netlist n;
  EXPECT_THROW(n.addResistor("R1", "a", "b", 0.0), std::invalid_argument);
  EXPECT_THROW(n.addResistor("R2", "a", "b", -5.0), std::invalid_argument);
  EXPECT_THROW(n.addMos("M1", "d", "g", "s", "b", ckt::MosType::Nmos, -1e-6, 1e-6),
               std::invalid_argument);
}

TEST(Netlist, DevicesOnNode) {
  ckt::Netlist n;
  n.addResistor("R1", "a", "b", 1e3);
  n.addResistor("R2", "b", "c", 1e3);
  const auto onB = n.devicesOnNode(n.node("b"));
  EXPECT_EQ(onB.size(), 2u);
}

TEST(ParseValue, EngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(ckt::parseValue("1.5k"), 1500.0);
  EXPECT_DOUBLE_EQ(ckt::parseValue("10u"), 10e-6);
  EXPECT_DOUBLE_EQ(ckt::parseValue("2meg"), 2e6);
  EXPECT_DOUBLE_EQ(ckt::parseValue("3p"), 3e-12);
  EXPECT_DOUBLE_EQ(ckt::parseValue("4.7n"), 4.7e-9);
  EXPECT_DOUBLE_EQ(ckt::parseValue("1e-3"), 1e-3);
  EXPECT_THROW(ckt::parseValue("abc"), std::invalid_argument);
}

TEST(ParseValue, TrailingUnitLettersAreIgnored) {
  // SPICE semantics: an optional scale factor, then arbitrary alphabetic
  // unit letters that carry no meaning ("v", "hz", "ohm", "a", "x"...).
  EXPECT_DOUBLE_EQ(ckt::parseValue("2.5v"), 2.5);
  EXPECT_DOUBLE_EQ(ckt::parseValue("1kohm"), 1e3);
  EXPECT_DOUBLE_EQ(ckt::parseValue("100mhz"), 0.1);  // m = milli, hz = unit
  EXPECT_DOUBLE_EQ(ckt::parseValue("3GHz"), 3e9);
  EXPECT_DOUBLE_EQ(ckt::parseValue("10uA"), 10e-6);
  EXPECT_DOUBLE_EQ(ckt::parseValue("5ns"), 5e-9);
  EXPECT_DOUBLE_EQ(ckt::parseValue("1x"), 1.0);  // unknown letter = pure unit
}

TEST(ParseValue, MegVersusMilliDisambiguation) {
  // "meg" must be matched as a whole before "m" falls through to milli.
  EXPECT_DOUBLE_EQ(ckt::parseValue("1megohm"), 1e6);
  EXPECT_DOUBLE_EQ(ckt::parseValue("1mohm"), 1e-3);
  EXPECT_DOUBLE_EQ(ckt::parseValue("2.2MEG"), 2.2e6);
  EXPECT_DOUBLE_EQ(ckt::parseValue("1mv"), 1e-3);
}

TEST(ParseValue, NonAlphabeticTailStillThrows) {
  EXPECT_THROW(ckt::parseValue("1k5"), std::invalid_argument);
  EXPECT_THROW(ckt::parseValue("2.5v2"), std::invalid_argument);
  EXPECT_THROW(ckt::parseValue("1_ohm"), std::invalid_argument);
  // Non-finite results: stod's nan/inf spellings and scale overflow.
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "infinity", "1e308meg", "1e300t",
                          "1e999"})
    EXPECT_THROW(ckt::parseValue(bad), std::invalid_argument) << bad;
  EXPECT_DOUBLE_EQ(ckt::parseValue("1e300k"), 1e303);
}

TEST(ParseDeck, SimpleRcCircuit) {
  const auto net = ckt::parseDeck(R"(
* a simple RC
V1 in 0 DC 1 AC 1
R1 in out 1k
C1 out 0 1p
.end
)");
  EXPECT_EQ(net.devices().size(), 3u);
  EXPECT_DOUBLE_EQ(net.device("R1").value, 1000.0);
  EXPECT_DOUBLE_EQ(net.device("V1").acMag, 1.0);
}

TEST(ParseDeck, MosWithParameters) {
  const auto net = ckt::parseDeck("M1 d g s 0 PMOS W=20u L=2u M=4\n.end\n");
  const auto& m = net.device("M1").mos;
  EXPECT_EQ(m.type, ckt::MosType::Pmos);
  EXPECT_DOUBLE_EQ(m.w, 20e-6);
  EXPECT_DOUBLE_EQ(m.l, 2e-6);
  EXPECT_EQ(m.m, 4);
}

TEST(ParseDeck, RejectsMalformedCards) {
  EXPECT_THROW(ckt::parseDeck("R1 a b\n"), std::invalid_argument);
  EXPECT_THROW(ckt::parseDeck("M1 d g s b NMOS\n"), std::invalid_argument);
  EXPECT_THROW(ckt::parseDeck("X1 a b c\n"), std::invalid_argument);
  // Non-finite values never reach a device.
  EXPECT_THROW(ckt::parseDeck("M1 d g s 0 nmos W=nan L=1u\n"), std::invalid_argument);
  EXPECT_THROW(ckt::parseDeck("M1 d g s 0 nmos W=1u L=inf\n"), std::invalid_argument);
  EXPECT_THROW(ckt::parseDeck("R1 a 0 inf\n"), std::invalid_argument);
  EXPECT_THROW(ckt::parseDeck("C1 a 0 1e308meg\n"), std::invalid_argument);
  // M= is a whole device count in [1, INT_MAX].
  for (const char* m : {"3e9", "0", "-2", "1.5", "nan", "2147483648"})
    EXPECT_THROW(ckt::parseDeck(std::string("M1 d g s 0 nmos W=1u L=1u M=") + m + "\n"),
                 std::invalid_argument)
        << m;
  EXPECT_EQ(ckt::parseDeck("M1 d g s 0 nmos W=1u L=1u M=2147483647\n").device("M1").mos.m,
            2147483647);
}

// ---------------------------------------------------------------- MOS model

class MosModelTest : public ::testing::Test {
 protected:
  ckt::Process proc = ckt::defaultProcess();
  ckt::MosParams nmos{ckt::MosType::Nmos, 10e-6, 1e-6, 1, 0.0, 1.0};
  ckt::MosParams pmos{ckt::MosType::Pmos, 10e-6, 1e-6, 1, 0.0, 1.0};
};

TEST_F(MosModelTest, CutoffBelowThreshold) {
  const auto op = ckt::evalMos(nmos, proc, 2.0, 0.3, 0.0, 0.0);
  EXPECT_EQ(op.region, ckt::MosRegion::Cutoff);
  EXPECT_NEAR(op.ids, 0.0, 1e-9);
}

TEST_F(MosModelTest, SaturationCurrentMatchesSquareLaw) {
  const double vgs = 1.5, vds = 3.0;
  const auto op = ckt::evalMos(nmos, proc, vds, vgs, 0.0, 0.0);
  EXPECT_EQ(op.region, ckt::MosRegion::Saturation);
  const double beta = proc.kpN * nmos.w / nmos.l;
  const double vov = vgs - proc.vt0N;
  const double lam = proc.lambdaN * 1e-6 / nmos.l;
  EXPECT_NEAR(op.ids, 0.5 * beta * vov * vov * (1 + lam * vds), 1e-9);
  EXPECT_NEAR(op.gm, beta * vov * (1 + lam * vds), 1e-9);
}

TEST_F(MosModelTest, TriodeRegion) {
  const auto op = ckt::evalMos(nmos, proc, 0.1, 3.0, 0.0, 0.0);
  EXPECT_EQ(op.region, ckt::MosRegion::Triode);
  EXPECT_GT(op.ids, 0.0);
  EXPECT_GT(op.gds, op.gm);  // deep triode: gds dominates
}

TEST_F(MosModelTest, BodyEffectRaisesThreshold) {
  const auto noBody = ckt::evalMos(nmos, proc, 3.0, 1.5, 0.0, 0.0);
  const auto withBody = ckt::evalMos(nmos, proc, 3.0, 1.5, 0.0, -2.0);  // vb below vs
  EXPECT_GT(withBody.vth, noBody.vth);
  EXPECT_LT(withBody.ids, noBody.ids);
}

TEST_F(MosModelTest, PmosSymmetry) {
  // PMOS with source at vdd, gate low => conducting; |ids| mirrors NMOS.
  const auto op = ckt::evalMos(pmos, proc, 2.0, 3.5, 5.0, 5.0);  // vsg = 1.5, vsd = 3
  EXPECT_EQ(op.region, ckt::MosRegion::Saturation);
  EXPECT_LT(op.ids, 0.0);  // current flows out of the drain terminal
}

TEST_F(MosModelTest, DrainSourceSwapAntisymmetry) {
  // Swapping drain/source voltages must flip the current sign (the channel
  // is symmetric in level 1).
  const auto fwd = ckt::evalMos(nmos, proc, 1.0, 3.0, 0.0, 0.0);
  const auto rev = ckt::evalMos(nmos, proc, 0.0, 3.0, 1.0, 0.0);
  EXPECT_NEAR(fwd.ids, -rev.ids, 1e-12);
}

TEST_F(MosModelTest, MultiplicityScalesCurrent) {
  auto m4 = nmos;
  m4.m = 4;
  const auto op1 = ckt::evalMos(nmos, proc, 3.0, 1.5, 0.0, 0.0);
  const auto op4 = ckt::evalMos(m4, proc, 3.0, 1.5, 0.0, 0.0);
  EXPECT_NEAR(op4.ids, 4.0 * op1.ids, 1e-12);
}

TEST_F(MosModelTest, CapsPartitionByRegion) {
  const auto sat = ckt::evalMos(nmos, proc, 3.0, 1.5, 0.0, 0.0);
  EXPECT_GT(sat.cgs, sat.cgd);  // saturation: cgs ~ 2/3 Cox, cgd = overlap only
  const auto tri = ckt::evalMos(nmos, proc, 0.05, 3.0, 0.0, 0.0);
  EXPECT_NEAR(tri.cgs, tri.cgd, 1e-18);  // triode: split evenly
}

TEST_F(MosModelTest, NoisePsdPositiveAndFlickerRises) {
  const auto op = ckt::evalMos(nmos, proc, 3.0, 1.5, 0.0, 0.0);
  const double lowF = ckt::mosNoisePsd(nmos, proc, op, 10.0);
  const double highF = ckt::mosNoisePsd(nmos, proc, op, 1e7);
  EXPECT_GT(lowF, highF);  // 1/f dominates at low frequency
  EXPECT_GT(highF, 0.0);
}

TEST(Process, DefaultsSane) {
  const auto& p = ckt::defaultProcess();
  EXPECT_GT(p.vdd, 0);
  EXPECT_GT(p.kpN, p.kpP);  // electrons faster than holes
  EXPECT_LT(p.vt0P, 0);
  EXPECT_GT(p.kT(), 0);
}
