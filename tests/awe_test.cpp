#include <gtest/gtest.h>

#include <cmath>

#include "awe/awe.hpp"
#include "circuit/parser.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"

namespace awe = amsyn::awe;
namespace ckt = amsyn::circuit;
namespace sim = amsyn::sim;
namespace num = amsyn::num;

namespace {
std::pair<sim::Mna, sim::DcResult> setup(const std::string& deck,
                                         const ckt::Netlist** keep) {
  static std::vector<std::unique_ptr<ckt::Netlist>> storage;
  storage.push_back(std::make_unique<ckt::Netlist>(ckt::parseDeck(deck)));
  *keep = storage.back().get();
  sim::Mna mna(*storage.back(), ckt::defaultProcess());
  auto op = sim::dcOperatingPoint(mna);
  return {std::move(mna), std::move(op)};
}
}  // namespace

TEST(Awe, RcPoleRecovered) {
  const ckt::Netlist* net;
  auto [mna, op] = setup(R"(
V1 in 0 DC 0 AC 1
R1 in out 1k
C1 out 0 1n
.end)", &net);
  ASSERT_TRUE(op.converged);
  const auto model = awe::aweTransfer(mna, op, "out", 2);
  // Single pole at -1/RC = -1e6 rad/s.
  ASSERT_GE(model.pr.poles.size(), 1u);
  // Dominant pole:
  double minMag = 1e30;
  std::complex<double> dom;
  for (const auto& p : model.pr.poles)
    if (std::abs(p) < minMag) {
      minMag = std::abs(p);
      dom = p;
    }
  EXPECT_NEAR(dom.real(), -1e6, 1e3);
  EXPECT_NEAR(dom.imag(), 0.0, 1e3);
}

TEST(Awe, MagnitudeMatchesAcAnalysis) {
  const ckt::Netlist* net;
  auto [mna, op] = setup(R"(
V1 in 0 DC 0 AC 1
R1 in a 1k
C1 a 0 1n
R2 a out 10k
C2 out 0 100p
.end)", &net);
  ASSERT_TRUE(op.converged);
  const auto model = awe::aweTransfer(mna, op, "out", 3);
  for (double f : {1e3, 1e4, 1e5, 1e6}) {
    const auto exact = std::abs(sim::acTransfer(mna, op, "out", f));
    EXPECT_NEAR(model.magnitudeAt(f), exact, exact * 0.02) << "f=" << f;
  }
}

TEST(Awe, StepResponseMatchesTransientShape) {
  const ckt::Netlist* net;
  auto [mna, op] = setup(R"(
V1 in 0 DC 0 AC 1
R1 in out 1k
C1 out 0 1n
.end)", &net);
  ASSERT_TRUE(op.converged);
  const auto model = awe::aweTransfer(mna, op, "out", 2);
  // Unit step through H(s)=1/(1+sRC): v(t) = 1 - exp(-t/RC).
  for (double t : {0.5e-6, 1e-6, 3e-6}) {
    const double expected = 1.0 - std::exp(-t / 1e-6);
    EXPECT_NEAR(model.stepResponse(t), expected, 0.01) << "t=" << t;
  }
}

TEST(Awe, StablePolesEnforced) {
  const ckt::Netlist* net;
  auto [mna, op] = setup(R"(
V1 in 0 DC 0 AC 1
R1 in a 1k
C1 a 0 2n
R2 a b 2k
C2 b 0 1n
R3 b out 5k
C3 out 0 0.5n
.end)", &net);
  ASSERT_TRUE(op.converged);
  const auto model = awe::aweTransfer(mna, op, "out", 4);
  for (const auto& p : model.pr.poles) EXPECT_LE(p.real(), 0.0);
}

TEST(Awe, GenericMomentEngineMatchesDense) {
  // 2x2 system: G = [[2,-1],[-1,2]], C = I, b = [1,0].
  num::MatrixD g(2, 2), c(2, 2);
  g(0, 0) = 2; g(0, 1) = -1; g(1, 0) = -1; g(1, 1) = 2;
  c(0, 0) = 1; c(1, 1) = 1;
  const num::VecD b = {1.0, 0.0};
  const auto model = awe::aweLinearSystem(g, c, b, 0, 2);
  // m0 = (G^-1 b)[0] = (2/3); check against hand computation.
  EXPECT_NEAR(model.moments[0], 2.0 / 3.0, 1e-12);
  // m1 = (-G^-1 C m0vec)[0]; m0vec = [2/3, 1/3], G^-1 = 1/3*[[2,1],[1,2]]
  // C m0vec = m0vec; -G^-1 m0vec = -[5/9, 4/9] -> m1 = -5/9.
  EXPECT_NEAR(model.moments[1], -5.0 / 9.0, 1e-12);
}

TEST(Awe, ModelFromMomentsReducesOrder) {
  // Moments of 1/(1+s) requested at order 2 -> singular Hankel -> q=1.
  const auto model = awe::modelFromMoments({1.0, -1.0, 1.0, -1.0});
  EXPECT_EQ(model.pr.poles.size(), 1u);
  EXPECT_NEAR(model.pr.poles[0].real(), -1.0, 1e-9);
}
