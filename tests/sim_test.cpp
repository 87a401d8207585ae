#include <gtest/gtest.h>

#include <cmath>

#include "circuit/parser.hpp"
#include "core/context.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/measure.hpp"
#include "sim/mna.hpp"
#include "sim/noise.hpp"

namespace ckt = amsyn::circuit;
namespace sim = amsyn::sim;

namespace {
const ckt::Process& proc() { return ckt::defaultProcess(); }

double nodeV(const sim::Mna& mna, const sim::DcResult& op, const std::string& node) {
  return mna.nodeVoltage(op.x, *mna.netlist().findNode(node));
}

/// A fresh explicit context installed for the rest of the enclosing scope.
/// Its metrics slice counts exactly the traffic recorded from here on, on
/// this thread and on any pool worker the work fans out to.
class SliceProbe {
 public:
  SliceProbe() : ctx_(amsyn::core::ContextConfig::fromEnv()), scope_(ctx_) {}
  std::uint64_t operator[](const std::string& name) const {
    const auto counters = ctx_.sliceCounters();
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }

 private:
  amsyn::core::ExecutionContext ctx_;
  amsyn::core::ContextScope scope_;
};
}  // namespace

TEST(Dc, VoltageDivider) {
  auto net = ckt::parseDeck(R"(
V1 in 0 DC 10
R1 in mid 1k
R2 mid 0 3k
.end)");
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(nodeV(mna, op, "mid"), 7.5, 1e-6);
}

TEST(Dc, KclResidualIsZeroAtSolution) {
  auto net = ckt::parseDeck(R"(
V1 in 0 DC 5
R1 in a 2k
R2 a 0 1k
R3 a b 5k
R4 b 0 1k
.end)");
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  amsyn::num::VecD f;
  mna.assemble(op.x, {}, nullptr, &f);
  EXPECT_LT(amsyn::num::normInf(f), 1e-9);
}

TEST(Dc, CurrentSourceIntoResistor) {
  ckt::Netlist net;
  net.addISource("I1", "0", "out", 1e-3);  // 1 mA pushed into "out"
  net.addResistor("R1", "out", "0", 2e3);
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(nodeV(mna, op, "out"), 2.0, 1e-6);
}

TEST(Dc, VcvsGain) {
  auto net = ckt::parseDeck(R"(
V1 in 0 DC 0.5
E1 out 0 in 0 10
R1 out 0 1k
.end)");
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(nodeV(mna, op, "out"), 5.0, 1e-9);
}

TEST(Dc, VccsIntoLoad) {
  auto net = ckt::parseDeck(R"(
V1 in 0 DC 1
G1 0 out in 0 1m
R1 out 0 1k
.end)");
  // Our convention: G pushes gm*vc from node0 -> node1, so out gets +1 mA.
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(nodeV(mna, op, "out"), 1.0, 1e-9);
}

TEST(Dc, DiodeForwardDrop) {
  auto net = ckt::parseDeck(R"(
V1 in 0 DC 5
R1 in a 1k
D1 a 0
.end)");
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  const double vd = nodeV(mna, op, "a");
  EXPECT_GT(vd, 0.4);
  EXPECT_LT(vd, 0.8);
}

TEST(Dc, NmosInverterTransfersHighToLow) {
  auto net = ckt::parseDeck(R"(
V1 vdd 0 DC 5
VG g 0 DC 5
R1 vdd out 10k
M1 out g 0 0 NMOS W=20u L=1u
.end)");
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  EXPECT_LT(nodeV(mna, op, "out"), 0.5);  // transistor pulls output low
}

TEST(Dc, MosCurrentMirrorCopies) {
  // Reference branch: I=50uA into diode-connected M1; M2 mirrors into R load.
  ckt::Netlist net;
  net.addVSource("VDD", "vdd", "0", 5.0);
  net.addISource("IREF", "vdd", "ref", 50e-6);
  net.addMos("M1", "ref", "ref", "0", "0", ckt::MosType::Nmos, 20e-6, 2e-6);
  net.addMos("M2", "out", "ref", "0", "0", ckt::MosType::Nmos, 20e-6, 2e-6);
  net.addResistor("RL", "vdd", "out", 10e3);
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  // Mirrored current ~ 50uA -> drop ~0.5V across RL (modulo lambda).
  const double iOut = (5.0 - nodeV(mna, op, "out")) / 10e3;
  EXPECT_NEAR(iOut, 50e-6, 8e-6);
}

TEST(Ac, RcLowpassPole) {
  auto net = ckt::parseDeck(R"(
V1 in 0 DC 0 AC 1
R1 in out 1k
C1 out 0 1n
.end)");
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  const double fp = 1.0 / (2 * M_PI * 1e3 * 1e-9);  // ~159 kHz
  const auto sweep = sim::acAnalysis(mna, op, "out", {fp / 100, fp, fp * 100});
  EXPECT_NEAR(std::abs(sweep.points[0].value), 1.0, 1e-3);
  EXPECT_NEAR(std::abs(sweep.points[1].value), 1.0 / std::sqrt(2.0), 1e-3);
  EXPECT_NEAR(std::abs(sweep.points[2].value), 0.01, 1e-3);
  // Phase at the pole is -45 degrees.
  EXPECT_NEAR(std::arg(sweep.points[1].value) * 180 / M_PI, -45.0, 0.5);
}

TEST(Ac, RlcSeriesResonance) {
  auto net = ckt::parseDeck(R"(
V1 in 0 DC 0 AC 1
R1 in a 10
L1 a out 1u
C1 out 0 1n
.end)");
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  const double f0 = 1.0 / (2 * M_PI * std::sqrt(1e-6 * 1e-9));
  // At resonance the cap voltage is Q times the input.
  const double q = std::sqrt(1e-6 / 1e-9) / 10.0;
  const auto h = sim::acTransfer(mna, op, "out", f0);
  EXPECT_NEAR(std::abs(h), q, q * 0.02);
}

TEST(Ac, CommonSourceGainMatchesGmRo) {
  auto net = ckt::parseDeck(R"(
VDD vdd 0 DC 5
VG g 0 DC 1.2 AC 1
IB vdd out 100u
M1 out g 0 0 NMOS W=50u L=2u
.end)");
  // Bias the gate so M1 sinks ~the 100uA the ideal source supplies.
  sim::Mna mna(net, proc());
  // Find the gate voltage where ids ~ 100 uA using the model directly.
  // vov = sqrt(2 I / beta), beta = 120u * 25 = 3 mA/V^2 -> vov ~ 0.258
  auto* vg = net.findDevice("VG");
  ASSERT_NE(vg, nullptr);
  const double beta = proc().kpN * 50e-6 / 2e-6;
  const double vov = std::sqrt(2 * 100e-6 / beta);
  vg->value = proc().vt0N + vov;
  sim::Mna mna2(net, proc());
  const auto op = sim::dcOperatingPoint(mna2);
  ASSERT_TRUE(op.converged);
  // Small-signal gain = -gm / gds of M1 (ideal current-source load).
  const auto ops = mna2.mosOperatingPoints(op.x);
  ASSERT_EQ(ops.size(), 1u);
  const double expected = ops[0].second.gm / ops[0].second.gds;
  const auto h = sim::acTransfer(mna2, op, "out", 10.0);
  EXPECT_NEAR(std::abs(h), expected, expected * 0.05);
}

TEST(Ac, SweepFactorsOncePerUniqueFrequency) {
  auto net = ckt::parseDeck(R"(
V1 in 0 DC 0 AC 1
R1 in out 1k
C1 out 0 1n
.end)");
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  SliceProbe slice;
  const auto sweep = sim::acAnalysis(mna, op, "out", {1e3, 1e3, 2e3, 2e3});
  ASSERT_EQ(sweep.points.size(), 4u);
  // (G + jwC) depends only on w: duplicated points reuse the cached LU.
  EXPECT_EQ(slice["sim.lu_factorizations"], 2u);
  EXPECT_EQ(slice["sim.lu_reuses"], 2u);
  // Identical frequencies must produce identical phasors.
  EXPECT_EQ(sweep.points[0].value, sweep.points[1].value);
  EXPECT_EQ(sweep.points[2].value, sweep.points[3].value);
}

TEST(Noise, AdjointSolveReusesForwardFactorization) {
  auto net = ckt::parseDeck(R"(
V1 in 0 DC 0 AC 1
R1 in out 1k
R2 out 0 1k
.end)");
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  SliceProbe slice;
  const auto nz = sim::noiseAnalysis(mna, op, "out", {1e2, 1e3, 1e4});
  ASSERT_EQ(nz.points.size(), 3u);
  // Per frequency: the forward solve factors, the adjoint (transposed) solve
  // reuses the same factorization.
  EXPECT_EQ(slice["sim.lu_factorizations"], 3u);
  EXPECT_EQ(slice["sim.lu_reuses"], 3u);
}

TEST(Noise, ResistorDividerMatchesTheory) {
  // Output noise of two parallel resistors to ground: 4kT * (R1 || R2).
  auto net = ckt::parseDeck(R"(
V1 in 0 DC 0 AC 1
R1 in out 1k
R2 out 0 1k
.end)");
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  const auto nz = sim::noiseAnalysis(mna, op, "out", {1e3});
  const double rPar = 500.0;
  const double expected = 4.0 * proc().kT() * rPar;
  EXPECT_NEAR(nz.points[0].outputPsd, expected, expected * 1e-6);
  // Input-referred: divide by gain^2 = 0.25.
  EXPECT_NEAR(nz.points[0].inputReferredPsd, expected / 0.25, expected * 4e-6);
}

TEST(Measure, LogspaceCoversRange) {
  const auto fs = sim::logspace(1.0, 1e6, 10);
  EXPECT_DOUBLE_EQ(fs.front(), 1.0);
  EXPECT_NEAR(fs.back(), 1e6, 1.0);
  for (std::size_t i = 1; i < fs.size(); ++i) EXPECT_GT(fs[i], fs[i - 1]);
}

TEST(Measure, SinglePoleMeasurements) {
  auto net = ckt::parseDeck(R"(
V1 in 0 DC 0 AC 1
G1 0 out in 0 1m
R1 out 0 100k
C1 out 0 15.9p
.end)");
  // H(0) = gm*R = 100 (40 dB); pole at ~100 kHz; UGF ~ 10 MHz.
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  const auto sweep = sim::acAnalysis(mna, op, "out", sim::logspace(10.0, 1e9, 20));
  EXPECT_NEAR(sim::dcGainDb(sweep), 40.0, 0.1);
  const auto bw = sim::bandwidth3dB(sweep);
  ASSERT_TRUE(bw.has_value());
  EXPECT_NEAR(*bw, 1e5, 1e4);
  const auto ugf = sim::unityGainFrequency(sweep);
  ASSERT_TRUE(ugf.has_value());
  EXPECT_NEAR(*ugf, 1e7, 1e6);
  const auto pm = sim::phaseMarginDeg(sweep);
  ASSERT_TRUE(pm.has_value());
  EXPECT_NEAR(*pm, 90.0, 2.0);  // single pole: ~90 degrees
}

TEST(Measure, StaticPowerOfDivider) {
  auto net = ckt::parseDeck(R"(
V1 in 0 DC 10
R1 in 0 1k
.end)");
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  EXPECT_NEAR(sim::staticPower(mna, op), 0.1, 1e-9);  // V^2/R = 100 mW
}
