#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "numeric/anneal.hpp"
#include "numeric/interval.hpp"
#include "numeric/matrix.hpp"
#include "numeric/optimize.hpp"
#include "numeric/pade.hpp"
#include "numeric/polynomial.hpp"
#include "numeric/rng.hpp"
#include "numeric/stats.hpp"

namespace num = amsyn::num;

TEST(Matrix, IdentityMultiply) {
  auto id = num::MatrixD::identity(3);
  num::MatrixD a(3, 3);
  int v = 1;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = v++;
  auto b = id * a;
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(b(i, j), a(i, j));
}

TEST(LU, SolvesKnownSystem) {
  num::MatrixD a(2, 2);
  a(0, 0) = 2;  a(0, 1) = 1;
  a(1, 0) = 1;  a(1, 1) = 3;
  const num::VecD x = num::solveDense(a, {5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(LU, TransposedSolveMatchesExplicitTranspose) {
  num::MatrixD a(3, 3);
  const double vals[9] = {4, 1, 0, 2, 5, 1, 0, 3, 6};
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) a(i, j) = vals[3 * i + j];
  num::MatrixD at(3, 3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) at(i, j) = a(j, i);
  const num::VecD b = {1.0, -2.0, 3.0};
  const num::VecD x1 = num::LUD(a).solveTransposed(b);
  const num::VecD x2 = num::solveDense(at, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-12);
}

TEST(LU, DeterminantWithPivoting) {
  num::MatrixD a(2, 2);
  a(0, 0) = 0;  a(0, 1) = 2;   // forces a row swap
  a(1, 0) = 3;  a(1, 1) = 1;
  EXPECT_NEAR(num::LUD(a).determinant(), -6.0, 1e-12);
}

TEST(LU, ThrowsOnSingular) {
  num::MatrixD a(2, 2);
  a(0, 0) = 1;  a(0, 1) = 2;
  a(1, 0) = 2;  a(1, 1) = 4;
  EXPECT_THROW(num::LUD{a}, std::runtime_error);
}

TEST(LU, ComplexSolve) {
  using C = std::complex<double>;
  num::MatrixC a(2, 2);
  a(0, 0) = C{1, 1};  a(0, 1) = C{0, 0};
  a(1, 0) = C{0, 0};  a(1, 1) = C{0, 2};
  const num::VecC x = num::solveDense(a, num::VecC{C{2, 0}, C{4, 0}});
  EXPECT_NEAR(x[0].real(), 1.0, 1e-12);
  EXPECT_NEAR(x[0].imag(), -1.0, 1e-12);
  EXPECT_NEAR(x[1].imag(), -2.0, 1e-12);
}

TEST(Polynomial, EvaluateAndDerivative) {
  const num::Polynomial p({1.0, -3.0, 2.0});  // 1 - 3x + 2x^2
  EXPECT_DOUBLE_EQ(p.evaluate(2.0), 3.0);
  const auto d = p.derivative();
  EXPECT_DOUBLE_EQ(d.evaluate(2.0), 5.0);  // -3 + 4x
}

TEST(Polynomial, RootsOfQuadratic) {
  const num::Polynomial p({2.0, -3.0, 1.0});  // (x-1)(x-2)
  auto roots = p.roots();
  ASSERT_EQ(roots.size(), 2u);
  std::sort(roots.begin(), roots.end(),
            [](auto a, auto b) { return a.real() < b.real(); });
  EXPECT_NEAR(roots[0].real(), 1.0, 1e-8);
  EXPECT_NEAR(roots[1].real(), 2.0, 1e-8);
  EXPECT_NEAR(roots[0].imag(), 0.0, 1e-8);
}

TEST(Polynomial, ComplexConjugateRoots) {
  const num::Polynomial p({5.0, 2.0, 1.0});  // roots -1 +/- 2i
  auto roots = p.roots();
  ASSERT_EQ(roots.size(), 2u);
  for (const auto& r : roots) {
    EXPECT_NEAR(r.real(), -1.0, 1e-8);
    EXPECT_NEAR(std::abs(r.imag()), 2.0, 1e-8);
  }
}

TEST(Pade, RecoversSinglePoleExactly) {
  // H(s) = 1 / (1 + s): moments 1, -1, 1, -1, ...  The order-2 Hankel matrix
  // of a 1-pole response is singular, so padeAuto must fall back to q = 1.
  const std::vector<double> m = {1.0, -1.0, 1.0, -1.0};
  const auto r = num::padeAuto(m);
  EXPECT_EQ(r.den.degree(), 1u);
  const std::complex<double> s{0.0, 0.3};
  const auto exact = 1.0 / (1.0 + s);
  const auto approx = r.evaluate(s);
  EXPECT_NEAR(std::abs(approx - exact), 0.0, 1e-6);
}

TEST(Pade, PoleResidueMatchesTwoPoleSystem) {
  // H(s) = 1/((1+s)(1+s/10)); moments from partial fractions.
  // H(s) = (10/9)/(1+s) - (1/9)/(1+s/10)
  auto moment = [](int k) {
    return (10.0 / 9.0) * std::pow(-1.0, k) - (1.0 / 9.0) * std::pow(-0.1, k);
  };
  std::vector<double> m;
  for (int k = 0; k < 4; ++k) m.push_back(moment(k));
  const auto pr = num::toPoleResidue(num::padeApproximant(m, 2));
  ASSERT_EQ(pr.poles.size(), 2u);
  std::vector<double> poleRe = {pr.poles[0].real(), pr.poles[1].real()};
  std::sort(poleRe.begin(), poleRe.end());
  EXPECT_NEAR(poleRe[0], -10.0, 1e-4);
  EXPECT_NEAR(poleRe[1], -1.0, 1e-6);
}

TEST(Pade, StepResponseApproachesDc) {
  const std::vector<double> m = {2.0, -2.0, 2.0, -2.0};  // 2/(1+s)
  const auto pr = num::toPoleResidue(num::padeAuto(m));
  EXPECT_NEAR(pr.step(50.0), 2.0, 1e-3);
  EXPECT_NEAR(pr.step(0.0), 0.0, 1e-9);
}

TEST(Interval, ArithmeticBounds) {
  const num::Interval a{1.0, 2.0}, b{-1.0, 3.0};
  const auto sum = a + b;
  EXPECT_DOUBLE_EQ(sum.lo(), 0.0);
  EXPECT_DOUBLE_EQ(sum.hi(), 5.0);
  const auto prod = a * b;
  EXPECT_DOUBLE_EQ(prod.lo(), -2.0);
  EXPECT_DOUBLE_EQ(prod.hi(), 6.0);
}

TEST(Interval, DivisionByZeroIntervalThrows) {
  EXPECT_THROW(num::Interval(1.0, 2.0) / num::Interval(-1.0, 1.0), std::domain_error);
}

TEST(Interval, EvenPowerStraddlingZero) {
  const auto sq = num::pow(num::Interval{-2.0, 1.0}, 2);
  EXPECT_DOUBLE_EQ(sq.lo(), 0.0);
  EXPECT_DOUBLE_EQ(sq.hi(), 4.0);
}

TEST(Interval, ContainmentSemantics) {
  const num::Interval a{0.0, 10.0};
  EXPECT_TRUE(a.contains(5.0));
  EXPECT_TRUE(a.contains(num::Interval{1.0, 2.0}));
  EXPECT_FALSE(a.contains(num::Interval{5.0, 11.0}));
  EXPECT_TRUE(a.intersects(num::Interval{9.0, 20.0}));
  EXPECT_FALSE(a.intersects(num::Interval{10.5, 20.0}));
}

TEST(NelderMead, MinimizesRosenbrock) {
  auto rosen = [](const std::vector<double>& x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  num::BoxBounds box{{-5.0, -5.0}, {5.0, 5.0}};
  num::NelderMeadOptions opts;
  opts.maxEvaluations = 5000;
  const auto res = num::nelderMead(rosen, {-1.0, 2.0}, box, opts);
  EXPECT_NEAR(res.x[0], 1.0, 1e-3);
  EXPECT_NEAR(res.x[1], 1.0, 1e-3);
}

TEST(NelderMead, RespectsBounds) {
  auto f = [](const std::vector<double>& x) { return -x[0]; };  // pushes to upper bound
  num::BoxBounds box{{0.0}, {2.0}};
  const auto res = num::nelderMead(f, {1.0}, box);
  EXPECT_LE(res.x[0], 2.0 + 1e-12);
  EXPECT_NEAR(res.x[0], 2.0, 1e-3);
}

TEST(CoordinateSearch, FindsQuadraticMinimum) {
  auto f = [](const std::vector<double>& x) {
    return (x[0] - 0.3) * (x[0] - 0.3) + (x[1] + 0.7) * (x[1] + 0.7);
  };
  num::BoxBounds box{{-2.0, -2.0}, {2.0, 2.0}};
  const auto res = num::coordinateSearch(f, {0.0, 0.0}, box);
  EXPECT_NEAR(res.x[0], 0.3, 1e-4);
  EXPECT_NEAR(res.x[1], -0.7, 1e-4);
}

TEST(Anneal, OptimizesNoisyQuadratic) {
  // State: one double; moves perturb it.  Global minimum at x = 3.
  double x = -10.0, prev = x, best = x;
  amsyn::num::AnnealProblem prob;
  prob.cost = [&] { return (x - 3.0) * (x - 3.0); };
  prob.propose = [&](num::Rng& rng) {
    prev = x;
    x += rng.uniform(-1.0, 1.0);
  };
  prob.undo = [&] { x = prev; };
  prob.snapshot = [&] { best = x; };
  num::AnnealOptions opts;
  opts.seed = 42;
  const auto stats = num::anneal(prob, opts);
  EXPECT_NEAR(best, 3.0, 0.1);
  EXPECT_GT(stats.movesAccepted, 0u);
}

TEST(Stats, MeanVarPercentile) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(num::mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(num::variance(xs), 2.5);
  EXPECT_DOUBLE_EQ(num::percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(num::percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(num::percentile(xs, 100), 5.0);
}

TEST(Stats, WilsonIntervalBrackets) {
  const auto p = num::wilsonInterval(90, 100);
  EXPECT_NEAR(p.estimate, 0.9, 1e-12);
  EXPECT_LT(p.lo95, 0.9);
  EXPECT_GT(p.hi95, 0.9);
  EXPECT_GT(p.lo95, 0.8);
}

TEST(Rng, Deterministic) {
  num::Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}
