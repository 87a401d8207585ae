#include <gtest/gtest.h>

#include <cmath>

#include "bit_digest.hpp"
#include "circuit/parser.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "symbolic/analyze.hpp"
#include "symbolic/linearize.hpp"
#include "symbolic/sympoly.hpp"

namespace sym = amsyn::symbolic;
namespace ckt = amsyn::circuit;
namespace sim = amsyn::sim;

TEST(SymSum, CanonicalMerging) {
  sym::SymbolTable t;
  const auto a = t.intern("a", 2.0);
  const auto b = t.intern("b", 3.0);
  auto s = sym::SymSum::symbol(a) * sym::SymSum::symbol(b);
  s = s + sym::SymSum::symbol(b) * sym::SymSum::symbol(a);  // same product
  EXPECT_EQ(s.termCount(), 1u);
  EXPECT_DOUBLE_EQ(s.evaluate(t), 12.0);  // 2 * (a*b)
}

TEST(SymSum, CancellationRemovesTerm) {
  sym::SymbolTable t;
  const auto a = t.intern("a", 2.0);
  const auto s = sym::SymSum::symbol(a) + sym::SymSum::symbol(a).negated();
  EXPECT_TRUE(s.isZero());
}

TEST(SymSum, SimplificationDropsSmallTerms) {
  sym::SymbolTable t;
  const auto big = t.intern("big", 1.0);
  const auto small = t.intern("small", 1e-9);
  const auto s = sym::SymSum::symbol(big) + sym::SymSum::symbol(small);
  const auto simp = s.simplified(t, 1e-3);
  EXPECT_EQ(simp.termCount(), 1u);
  EXPECT_DOUBLE_EQ(simp.evaluate(t), 1.0);
}

TEST(SymSum, ToStringReadable) {
  sym::SymbolTable t;
  const auto gm = t.intern("gm1", 1e-3);
  const auto s = sym::SymSum::symbol(gm) * sym::SymSum::constant(2.0);
  EXPECT_EQ(s.toString(t), "2*gm1");
}

TEST(SPoly, PolynomialArithmetic) {
  sym::SymbolTable t;
  const auto g = t.intern("g", 0.5);
  const auto c = t.intern("c", 2.0);
  // (g + s c)^2 = g^2 + 2 g c s + c^2 s^2
  const auto p = sym::SPoly{sym::SymSum::symbol(g)} + sym::SPoly::sTimes(sym::SymSum::symbol(c));
  const auto sq = p * p;
  EXPECT_EQ(sq.degree(), 2u);
  const auto coeffs = sq.evaluate(t);
  EXPECT_DOUBLE_EQ(coeffs[0], 0.25);
  EXPECT_DOUBLE_EQ(coeffs[1], 2.0);
  EXPECT_DOUBLE_EQ(coeffs[2], 4.0);
}

TEST(Determinant, DiagonalAndPermutationSigns) {
  sym::SymbolTable t;
  const auto a = t.intern("a", 3.0);
  const auto b = t.intern("b", 5.0);
  // [[a, 0], [0, b]] -> det = a*b
  std::vector<std::vector<sym::SPoly>> m(2, std::vector<sym::SPoly>(2));
  m[0][0] = sym::SPoly{sym::SymSum::symbol(a)};
  m[1][1] = sym::SPoly{sym::SymSum::symbol(b)};
  EXPECT_DOUBLE_EQ(sym::symbolicDeterminant(m).evaluate(t)[0], 15.0);
  // [[0, a], [b, 0]] -> det = -a*b
  std::vector<std::vector<sym::SPoly>> m2(2, std::vector<sym::SPoly>(2));
  m2[0][1] = sym::SPoly{sym::SymSum::symbol(a)};
  m2[1][0] = sym::SPoly{sym::SymSum::symbol(b)};
  EXPECT_DOUBLE_EQ(sym::symbolicDeterminant(m2).evaluate(t)[0], -15.0);
}

TEST(Determinant, MatchesNumericFor4x4) {
  // Random-ish numeric matrix as constants; compare against direct LU det.
  sym::SymbolTable t;
  std::vector<std::vector<sym::SPoly>> m(4, std::vector<sym::SPoly>(4));
  amsyn::num::MatrixD a(4, 4);
  const double vals[16] = {4, 1, 2, 0.5, 1, 3, 0, 2, 2, 0, 5, 1, 0.5, 2, 1, 4};
  for (std::size_t i = 0; i < 4; ++i)
    for (std::size_t j = 0; j < 4; ++j) {
      a(i, j) = vals[4 * i + j];
      m[i][j] = sym::SPoly{sym::SymSum::constant(vals[4 * i + j])};
    }
  EXPECT_NEAR(sym::symbolicDeterminant(m).evaluate(t)[0], amsyn::num::LUD(a).determinant(),
              1e-9);
}

TEST(Analyze, RcVoltageDividerTransfer) {
  // v_out/v_in of series g1 into shunt g2: H = g1/(g1+g2), frequency-flat.
  sym::SmallSignalCircuit c(3);  // gnd, in=1, out=2
  c.addConductance("g1", 1e-3, 1, 2);
  c.addConductance("g2", 3e-3, 2, 0);
  const auto h = sym::voltageTransfer(c, 1, 2);
  EXPECT_NEAR(h.magnitudeAt(c.symbols(), 1.0), 0.25, 1e-12);
  EXPECT_NEAR(h.magnitudeAt(c.symbols(), 1e9), 0.25, 1e-12);
}

TEST(Analyze, RcLowpassSymbolic) {
  sym::SmallSignalCircuit c(3);
  c.addConductance("g", 1e-3, 1, 2);    // R = 1k
  c.addCapacitance("cl", 1e-9, 2, 0);   // C = 1n
  const auto h = sym::voltageTransfer(c, 1, 2);
  // Denominator must contain a g term and an s*c term: H = g/(g + s c).
  const auto den = h.den.evaluate(c.symbols());
  ASSERT_EQ(den.size(), 2u);
  EXPECT_NEAR(den[1] / den[0], 1e-6, 1e-12);  // time constant RC
  const double fp = 1.0 / (2 * M_PI * 1e-6);
  EXPECT_NEAR(h.magnitudeAt(c.symbols(), fp), 1.0 / std::sqrt(2.0), 1e-6);
}

TEST(Analyze, CommonSourceSymbolicGain) {
  // gm stage with output conductance go and load cl:
  // H(0) = -gm/go; one pole at go/cl.
  sym::SmallSignalCircuit c(3);
  c.addTransconductance("gm", 2e-3, 2, 0, 1, 0);  // current leaves node 2
  c.addConductance("go", 1e-5, 2, 0);
  c.addCapacitance("cl", 1e-12, 2, 0);
  const auto h = sym::voltageTransfer(c, 1, 2);
  EXPECT_NEAR(h.magnitudeAt(c.symbols(), 1.0), 200.0, 1e-6);
  // Symbolic structure: numerator should be exactly -gm (one term).
  EXPECT_EQ(h.num.termCount(), 1u);
  const auto numc = h.num.evaluate(c.symbols());
  EXPECT_DOUBLE_EQ(numc[0], -2e-3);
}

TEST(Linearize, MatchesNumericAcForCommonSource) {
  // Full loop: transistor netlist -> DC op -> symbolic linearization ->
  // symbolic |H| must track the simulator's AC within tight tolerance.
  auto net = ckt::parseDeck(R"(
VDD vdd 0 DC 5
VG g 0 DC 1.1 AC 1
RD vdd out 20k
M1 out g 0 0 NMOS W=20u L=2u
CL out 0 1p
.end)");
  sim::Mna mna(net, ckt::defaultProcess());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);

  const auto lin = sym::linearize(mna, op);
  const auto h = sym::voltageTransfer(lin.circuit, lin.node("g"), lin.node("out"));
  for (double f : {1e2, 1e5, 1e7, 1e8}) {
    const double exact = std::abs(sim::acTransfer(mna, op, "out", f));
    const double symbolic = h.magnitudeAt(lin.circuit.symbols(), f);
    EXPECT_NEAR(symbolic, exact, exact * 0.02) << "f=" << f;
  }
}

TEST(Linearize, VddIsAcGround) {
  auto net = ckt::parseDeck(R"(
VDD vdd 0 DC 5
R1 vdd out 10k
.end)");
  sim::Mna mna(net, ckt::defaultProcess());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  const auto lin = sym::linearize(mna, op);
  EXPECT_EQ(lin.node("vdd"), 0u);  // merged with ground
}

TEST(Linearize, SimplificationShrinksExpression) {
  auto net = ckt::parseDeck(R"(
VDD vdd 0 DC 5
VG g 0 DC 1.1 AC 1
RD vdd out 20k
M1 out g 0 0 NMOS W=20u L=2u
CL out 0 10p
.end)");
  sim::Mna mna(net, ckt::defaultProcess());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  const auto lin = sym::linearize(mna, op);
  const auto h = sym::voltageTransfer(lin.circuit, lin.node("g"), lin.node("out"));
  const auto simp = h.simplified(lin.circuit.symbols(), 0.05);
  EXPECT_LT(simp.termCount(), h.termCount());
  // The simplified function must still be numerically accurate at dc.
  const double full = h.magnitudeAt(lin.circuit.symbols(), 10.0);
  const double reduced = simp.magnitudeAt(lin.circuit.symbols(), 10.0);
  EXPECT_NEAR(reduced, full, full * 0.1);
}

// Raw linearization bits on the common-source fixture: every symbol's name
// and nominal, the node map, and the transfer function's symbolic text,
// numeric coefficients and magnitude at four frequencies.
TEST(EvalGoldens, LinearizedCommonSourceTransfer) {
  auto net = ckt::parseDeck(R"(
VDD vdd 0 DC 5
VG g 0 DC 1.1 AC 1
RD vdd out 20k
M1 out g 0 0 NMOS W=20u L=2u
CL out 0 1p
.end)");
  sim::Mna mna(net, ckt::defaultProcess());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  const auto lin = sym::linearize(mna, op);
  const auto& syms = lin.circuit.symbols();
  amsyn::testutil::BitDigest d;
  d.u64(syms.size());
  for (std::size_t i = 0; i < syms.size(); ++i) {
    const auto id = static_cast<sym::SymbolId>(i);
    d.str(syms.name(id)).real(syms.nominal(id));
  }
  for (const auto& [name, node] : lin.nodeOf) d.str(name).u64(node);
  const auto h = sym::voltageTransfer(lin.circuit, lin.node("g"), lin.node("out"));
  d.str(h.toString(syms)).reals(h.numericNum(syms)).reals(h.numericDen(syms));
  for (double f : {1e2, 1e5, 1e7, 1e8}) d.real(h.magnitudeAt(syms, f));
  EXPECT_EQ(d.hex(), "0xa442b38a048dbf6d");
}
