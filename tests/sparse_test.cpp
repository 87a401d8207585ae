// Tests for the sparse-MNA fast path: the general sparse LU
// (numeric/sparse_lu.hpp), the fixed-pattern stamp plan (sim/mnasparse.hpp),
// the solver-mode knob (sim/solver.hpp), and — the headline proof — a
// differential suite showing synthesis results are *bit-identical* across
// {Dense, Sparse} solver modes at 1 and 8 threads with the eval cache on or
// off.  Like the eval cache, the solver knob may only change speed, never
// results; these tests are the enforcement.
//
// The solver mode is a field of the execution context's config, so every
// test that needs one runs under a SolverScope; counters are process-wide
// and measured as deltas.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/process.hpp"
#include "core/context.hpp"
#include "core/evalcache.hpp"
#include "core/flow.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "manufacture/corners.hpp"
#include "numeric/matrix.hpp"
#include "numeric/rng.hpp"
#include "numeric/sparse_lu.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/mna.hpp"
#include "sim/mnasparse.hpp"
#include "sim/solver.hpp"
#include "sim/transient.hpp"
#include "sizing/opamp.hpp"
#include "sizing/simmodel.hpp"
#include "sizing/spec.hpp"

namespace core = amsyn::core;
namespace cache = amsyn::core::cache;
namespace num = amsyn::num;
namespace sim = amsyn::sim;
namespace sz = amsyn::sizing;
namespace mf = amsyn::manufacture;
namespace ckt = amsyn::circuit;

namespace {

const ckt::Process& proc() { return ckt::defaultProcess(); }

/// The environment's config with the solver mode (and optionally the eval
/// cache) overridden.  A context built from it shares the process handles.
core::ContextConfig solverConfig(sim::SolverMode m,
                                 std::optional<bool> cacheOn = std::nullopt) {
  core::ContextConfig cfg = core::ContextConfig::fromEnv();
  cfg.solver = m;
  if (cacheOn) cfg.evalCacheEnabled = *cacheOn;
  return cfg;
}

/// Runs the enclosing scope under a context with solver mode `m`.
struct SolverScope {
  explicit SolverScope(sim::SolverMode m, std::optional<bool> cacheOn = std::nullopt)
      : ctx(solverConfig(m, cacheOn)), scope(ctx) {}
  core::ExecutionContext ctx;
  core::ContextScope scope;
};

std::uint64_t rawBits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

::testing::AssertionResult vecBitIdentical(const std::vector<double>& a,
                                           const std::vector<double>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "sizes differ: " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (rawBits(a[i]) != rawBits(b[i]))
      return ::testing::AssertionFailure()
             << "[" << i << "] differs in bits: " << a[i] << " vs " << b[i];
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult vecBitIdentical(const num::VecC& a, const num::VecC& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "sizes differ: " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (rawBits(a[i].real()) != rawBits(b[i].real()) ||
        rawBits(a[i].imag()) != rawBits(b[i].imag()))
      return ::testing::AssertionFailure()
             << "[" << i << "] differs in bits: (" << a[i].real() << "," << a[i].imag()
             << ") vs (" << b[i].real() << "," << b[i].imag() << ")";
  return ::testing::AssertionSuccess();
}

template <typename T>
num::Matrix<T> denseOf(const num::CscMatrix<T>& a) {
  num::Matrix<T> m(a.n, a.n);
  for (std::size_t c = 0; c < a.n; ++c)
    for (std::size_t k = a.colPtr[c]; k < a.colPtr[c + 1]; ++k) m(a.row[k], c) = a.val[k];
  return m;
}

/// Random structurally-sparse matrix with a full diagonal; density in (0,1)
/// is the off-diagonal fill probability.
num::CscMatrix<double> randomSparse(num::Rng& rng, std::size_t n, double density) {
  num::CscBuilder bld(n);
  std::vector<std::size_t> handles;
  for (std::size_t i = 0; i < n; ++i) handles.push_back(bld.add(i, i));
  std::vector<std::pair<std::size_t, std::size_t>> offDiag;
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t r = 0; r < n; ++r)
      if (r != c && rng.uniform() < density) {
        handles.push_back(bld.add(r, c));
        offDiag.push_back({r, c});
      }
  std::vector<std::size_t> slotOf;
  auto a = bld.finalize<double>(slotOf);
  std::size_t h = 0;
  for (std::size_t i = 0; i < n; ++i)
    a.val[slotOf[handles[h++]]] = rng.uniform(0.5, 3.0) * (rng.uniform() < 0.5 ? -1 : 1);
  for (std::size_t k = 0; k < offDiag.size(); ++k)
    a.val[slotOf[handles[h++]]] = rng.uniform(-2.0, 2.0);
  return a;
}

num::VecD randomVec(num::Rng& rng, std::size_t n) {
  num::VecD b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

}  // namespace

// ---------------------------------------------------------------------------
// Sparse LU: bit-compatibility with the dense kernel (Natural ordering)

TEST(SparseLu, NaturalOrderingMatchesDenseBitwiseOnRandomMatrices) {
  num::Rng rng(20260808);
  int solved = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 3 + static_cast<std::size_t>(rng.index(22));
    const auto a = randomSparse(rng, n, rng.uniform(0.05, 0.45));
    const num::VecD b = randomVec(rng, n);

    num::SparseLuD slu;
    const auto st = slu.factor(a);
    bool denseThrew = false;
    std::optional<num::LUD> dlu;
    try {
      dlu.emplace(denseOf(a));
    } catch (const std::runtime_error&) {
      denseThrew = true;
    }
    // Singular verdicts must agree (the dense kernel throws there).
    ASSERT_EQ(st == num::SparseLuStatus::Singular, denseThrew) << "trial " << trial;
    if (denseThrew) continue;
    ASSERT_EQ(st, num::SparseLuStatus::Ok) << "trial " << trial;
    EXPECT_TRUE(vecBitIdentical(slu.solve(b), dlu->solve(b))) << "trial " << trial;
    EXPECT_TRUE(vecBitIdentical(slu.solveTransposed(b), dlu->solveTransposed(b)))
        << "trial " << trial;
    ++solved;
  }
  EXPECT_GE(solved, 40);  // the suite must not pass vacuously
}

TEST(SparseLu, ComplexNaturalOrderingMatchesDenseBitwise) {
  num::Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 3 + static_cast<std::size_t>(rng.index(14));
    const auto ar = randomSparse(rng, n, 0.3);
    num::CscMatrix<std::complex<double>> a;
    a.n = ar.n;
    a.colPtr = ar.colPtr;
    a.row = ar.row;
    for (double v : ar.val) a.val.push_back({v, 0.3 * v + 0.1});
    num::VecC b(n);
    for (auto& v : b) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};

    num::SparseLuC slu;
    if (slu.factor(a) != num::SparseLuStatus::Ok) continue;
    num::LUC dlu(denseOf(a));
    EXPECT_TRUE(vecBitIdentical(slu.solve(b), dlu.solve(b))) << "trial " << trial;
    EXPECT_TRUE(vecBitIdentical(slu.solveTransposed(b), dlu.solveTransposed(b)))
        << "trial " << trial;
  }
}

TEST(SparseLu, RefactorReplaysWithoutReanalysisAndStaysBitIdentical) {
  num::Rng rng(42);
  const std::size_t n = 12;
  auto a = randomSparse(rng, n, 0.3);
  num::SparseLuD slu;
  ASSERT_EQ(slu.factor(a), num::SparseLuStatus::Ok);
  EXPECT_EQ(slu.analyzeCount(), 1u);

  // Scaling every value preserves the partial-pivot choice, so subsequent
  // factors are numeric-only replays of the cached analysis.
  for (int pass = 0; pass < 3; ++pass) {
    for (auto& v : a.val) v *= 1.5;
    ASSERT_EQ(slu.factor(a), num::SparseLuStatus::Ok);
    const num::VecD b = randomVec(rng, n);
    EXPECT_TRUE(vecBitIdentical(slu.solve(b), num::LUD(denseOf(a)).solve(b)));
  }
  EXPECT_EQ(slu.analyzeCount(), 1u);
  EXPECT_EQ(slu.refactorCount(), 3u);
  EXPECT_EQ(slu.pivotDriftCount(), 0u);
}

TEST(SparseLu, PivotDriftTriggersReanalysisWithBitIdenticalResults) {
  // Column 0's pivot moves from the diagonal to the off-diagonal row when
  // the values flip dominance; the refactor must detect the drift,
  // re-analyze, and still match dense bitwise.
  num::CscBuilder bld(2);
  const auto h00 = bld.add(0, 0), h10 = bld.add(1, 0), h01 = bld.add(0, 1),
             h11 = bld.add(1, 1);
  std::vector<std::size_t> slotOf;
  auto a = bld.finalize<double>(slotOf);
  num::SparseLuD slu;

  a.val[slotOf[h00]] = 4.0;
  a.val[slotOf[h10]] = 1.0;
  a.val[slotOf[h01]] = 1.0;
  a.val[slotOf[h11]] = 2.0;
  ASSERT_EQ(slu.factor(a), num::SparseLuStatus::Ok);
  EXPECT_TRUE(vecBitIdentical(slu.solve({1.0, -1.0}), num::LUD(denseOf(a)).solve({1.0, -1.0})));

  a.val[slotOf[h00]] = 1.0;
  a.val[slotOf[h10]] = 4.0;  // pivot now row 1
  ASSERT_EQ(slu.factor(a), num::SparseLuStatus::Ok);
  EXPECT_GE(slu.pivotDriftCount(), 1u);
  EXPECT_TRUE(vecBitIdentical(slu.solve({1.0, -1.0}), num::LUD(denseOf(a)).solve({1.0, -1.0})));
}

TEST(SparseLu, NearSingularStaysBitIdenticalToDense) {
  // A nearly rank-deficient system (rows almost parallel) stresses pivoting
  // and cancellation; as long as dense does not throw, sparse must replay
  // the identical arithmetic.
  num::CscBuilder bld(3);
  std::vector<std::size_t> h;
  for (std::size_t c = 0; c < 3; ++c)
    for (std::size_t r = 0; r < 3; ++r) h.push_back(bld.add(r, c));
  std::vector<std::size_t> slotOf;
  auto a = bld.finalize<double>(slotOf);
  const double eps = 1e-13;
  const double vals[9] = {1.0, 1.0, 2.0, 2.0, 2.0 + eps, 1.0, 3.0, 3.0, 5.0};
  for (std::size_t i = 0; i < 9; ++i) a.val[slotOf[h[i]]] = vals[i];

  num::SparseLuD slu;
  ASSERT_EQ(slu.factor(a), num::SparseLuStatus::Ok);
  num::LUD dlu(denseOf(a));
  const num::VecD b = {0.25, -1.5, 3.0};
  EXPECT_TRUE(vecBitIdentical(slu.solve(b), dlu.solve(b)));
}

TEST(SparseLu, StructurallySingularReportsSingular) {
  num::CscBuilder bld(3);
  bld.add(0, 0);
  bld.add(1, 1);  // column 2 empty
  std::vector<std::size_t> slotOf;
  auto a = bld.finalize<double>(slotOf);
  a.val[0] = 1.0;
  a.val[1] = 1.0;
  num::SparseLuD slu;
  EXPECT_EQ(slu.factor(a), num::SparseLuStatus::Singular);
}

namespace {

/// Arrow matrix with the dense hub at row/column 0: the worst case for
/// natural-order elimination (complete fill).
num::CscMatrix<double> arrowMatrix(std::size_t n) {
  num::CscBuilder bld(n);
  std::vector<std::size_t> handles;
  for (std::size_t i = 0; i < n; ++i) handles.push_back(bld.add(i, i));
  for (std::size_t i = 1; i < n; ++i) {
    handles.push_back(bld.add(0, i));
    handles.push_back(bld.add(i, 0));
  }
  std::vector<std::size_t> slotOf;
  auto a = bld.finalize<double>(slotOf);
  std::size_t h = 0;
  for (std::size_t i = 0; i < n; ++i)
    a.val[slotOf[handles[h++]]] = 10.0 + static_cast<double>(i);  // dominant diagonal
  for (std::size_t i = 1; i < n; ++i) {
    a.val[slotOf[handles[h++]]] = 1.0 / static_cast<double>(i + 1);
    a.val[slotOf[handles[h++]]] = -1.0 / static_cast<double>(i + 2);
  }
  return a;
}

}  // namespace

TEST(SparseLu, ExcessFillGuardTripsOnArrowMatrixUnderNaturalOrdering) {
  const auto a = arrowMatrix(40);
  num::SparseLuOptions opts;
  opts.maxFillRatio = 0.3;  // natural-order arrow fill is ~100%
  num::SparseLu<double> slu(opts);
  EXPECT_EQ(slu.factor(a), num::SparseLuStatus::ExcessFill);
}

TEST(SparseLu, PivotGrowthGuardTrips) {
  // [[1e-8, 1], [1, 1]] with the tiny pivot forced by structure would grow;
  // with partial pivoting growth is |u11| bounded, so instead cap the guard
  // below the achievable growth of a matrix whose elimination amplifies.
  num::CscBuilder bld(2);
  const auto h00 = bld.add(0, 0), h10 = bld.add(1, 0), h01 = bld.add(0, 1),
             h11 = bld.add(1, 1);
  std::vector<std::size_t> slotOf;
  auto a = bld.finalize<double>(slotOf);
  a.val[slotOf[h00]] = 2.0;
  a.val[slotOf[h10]] = 1.0;
  a.val[slotOf[h01]] = -3.0;
  a.val[slotOf[h11]] = 4.0;  // u11 = 4 - (1/2)(-3) = 5.5 > max|A| = 4
  num::SparseLuOptions opts;
  opts.maxPivotGrowth = 1.0;
  num::SparseLu<double> slu(opts);
  EXPECT_EQ(slu.factor(a), num::SparseLuStatus::PivotGrowth);

  // The same factorization passes a sane bound.
  num::SparseLu<double> ok;  // default: growth check at 0 = disabled
  EXPECT_EQ(ok.factor(a), num::SparseLuStatus::Ok);
  EXPECT_GT(slu.pivotGrowth(), 1.0);
}

TEST(SparseLu, CscBuilderCollapsesDuplicateStampsIntoOneSlot) {
  num::CscBuilder bld(2);
  const auto h1 = bld.add(0, 0);
  const auto h2 = bld.add(0, 0);  // duplicate stamp position
  const auto h3 = bld.add(1, 1);
  std::vector<std::size_t> slotOf;
  auto a = bld.finalize<double>(slotOf);
  EXPECT_EQ(a.val.size(), 2u);
  EXPECT_EQ(slotOf[h1], slotOf[h2]);
  EXPECT_NE(slotOf[h1], slotOf[h3]);
  a.val[slotOf[h1]] += 1.0;
  a.val[slotOf[h2]] += 2.0;  // accumulates into the same entry
  EXPECT_EQ(a.val[slotOf[h1]], 3.0);
}

TEST(SparseLu, AdoptedSymbolicSkipsAnalysisAcrossInstances) {
  num::Rng rng(99);
  auto a = randomSparse(rng, 10, 0.3);
  num::SparseLuD first;
  ASSERT_EQ(first.factor(a), num::SparseLuStatus::Ok);
  ASSERT_TRUE(first.haveSymbolic());

  // Same structure, scaled values (pivot order preserved): the adopter
  // replays the shared analysis numerically with no analysis of its own.
  for (auto& v : a.val) v *= 2.0;
  num::SparseLuD second;
  second.adoptSymbolic(first.symbolic());
  ASSERT_EQ(second.factor(a), num::SparseLuStatus::Ok);
  EXPECT_EQ(second.analyzeCount(), 0u);
  EXPECT_EQ(second.refactorCount(), 1u);
  const num::VecD b = randomVec(rng, 10);
  EXPECT_TRUE(vecBitIdentical(second.solve(b), num::LUD(denseOf(a)).solve(b)));
}

// ---------------------------------------------------------------------------
// Solver-mode knob

TEST(SolverMode, ParseAndNameRoundtrip) {
  using sim::SolverMode;
  EXPECT_EQ(core::parseSolverKind("auto"), SolverMode::Auto);
  EXPECT_EQ(core::parseSolverKind("Dense"), SolverMode::Dense);
  EXPECT_EQ(core::parseSolverKind("SPARSE"), SolverMode::Sparse);
  EXPECT_EQ(core::parseSolverKind("nonsense"), std::nullopt);
  EXPECT_EQ(core::parseSolverKind(""), std::nullopt);
  for (auto m : {SolverMode::Auto, SolverMode::Dense, SolverMode::Sparse})
    EXPECT_EQ(core::parseSolverKind(core::solverKindName(m)), m);
}

TEST(SolverMode, UseSparseSolverFollowsModeAndThreshold) {
  {
    SolverScope dense(sim::SolverMode::Dense);
    EXPECT_FALSE(sim::useSparseSolver(100000));
  }
  {
    SolverScope sparse(sim::SolverMode::Sparse);
    EXPECT_TRUE(sim::useSparseSolver(2));
    EXPECT_FALSE(sim::useSparseSolver(1));  // a 1x1 "system" has no sparse win
  }
  SolverScope autoMode(sim::SolverMode::Auto);
  EXPECT_FALSE(sim::useSparseSolver(sim::kSparseAutoThreshold - 1));
  EXPECT_TRUE(sim::useSparseSolver(sim::kSparseAutoThreshold));
}

TEST(SolverMode, FlowOptionRoutesToProcessMode) {
  // The solver a flow uses is its context's config: a parent's reaches
  // sim::solverMode(), a job child built with its own config overrides it
  // for that job only, and the ambient context keeps the env choice.
  using sim::SolverMode;
  const SolverMode ambientMode = sim::solverMode();
  EXPECT_EQ(ambientMode, core::ExecutionContext::ambient().config().solver);
  core::ExecutionContext parent(solverConfig(SolverMode::Sparse));
  {
    core::ContextScope scope(parent);
    EXPECT_EQ(sim::solverMode(), SolverMode::Sparse);
    {
      const auto inherits = parent.makeChild();
      core::ContextScope jobScope(*inherits);
      EXPECT_EQ(sim::solverMode(), SolverMode::Sparse);
    }
    {
      core::ContextConfig cfg = parent.config();
      cfg.solver = SolverMode::Dense;
      const auto overrides = parent.makeChild(cfg);
      core::ContextScope jobScope(*overrides);
      EXPECT_EQ(sim::solverMode(), SolverMode::Dense);
    }
    EXPECT_EQ(sim::solverMode(), SolverMode::Sparse);
  }
  EXPECT_EQ(sim::solverMode(), ambientMode);
}

// ---------------------------------------------------------------------------
// SparseMna: the stamp plan reproduces the dense assembler bit for bit

namespace {

/// Opamp testbench plus one of every remaining device type, so the stamp
/// plan covers every branch of the dense assembler's switch.
ckt::Netlist mixedNetlist() {
  ckt::Netlist net = sz::buildTwoStageOpamp(sz::TwoStageParams{}, proc());
  net.addInductor("LX", "out", "lx1", 1e-6);
  net.addResistor("RX", "lx1", "0", 50.0);
  net.addDiode("DX", "lx1", "0", 1e-14);
  net.addVcvs("EX", "ex1", "0", "out", "0", 2.0);
  net.addResistor("RE", "ex1", "0", 1e4);
  net.addVccs("GX", "0", "gx1", "out", "0", 1e-4);
  net.addResistor("RG", "gx1", "0", 2e3);
  net.addISource("IX", "0", "gx1", 1e-6);
  return net;
}

}  // namespace

TEST(SparseMna, AssemblyMatchesDenseBitwiseInEveryMode) {
  const ckt::Netlist net = mixedNetlist();
  const sim::Mna mna(net, proc());
  sim::SparseMna sp(mna);
  const std::size_t n = mna.size();
  ASSERT_EQ(sp.size(), n);

  num::Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    num::VecD x(n);
    for (auto& v : x) v = rng.uniform(-0.5, proc().vdd + 0.5);

    sim::AssemblyOptions aopt;
    std::map<std::size_t, sim::CompanionState> companions;
    if (trial % 3 == 1) {  // DC continuation shapes
      aopt.sourceScale = rng.uniform(0.1, 1.0);
      aopt.gmin = rng.uniform(0.0, 1e-6);
    } else if (trial % 3 == 2) {  // transient with companion states
      aopt.time = rng.uniform(0.0, 1e-6);
      aopt.timestep = 1e-9;
      aopt.trapezoidal = trial % 2 == 0;
      for (std::size_t d = 0; d < net.devices().size(); ++d) {
        const double pv = rng.uniform(-1.0, 1.0);
        const double pi = rng.uniform(-1e-4, 1e-4);
        companions[d] = {pv, pi};  // storage elements read theirs; rest ignored
      }
      aopt.companions = &companions;
    }

    num::MatrixD jd(n, n);
    num::VecD fd(n, 0.0);
    mna.assemble(x, aopt, &jd, &fd);
    num::VecD fs;
    sp.assemble(x, aopt, true, &fs);

    EXPECT_TRUE(vecBitIdentical(fs, fd)) << "residual, trial " << trial;
    const auto& csc = sp.csc();
    num::MatrixD js(n, n);
    for (std::size_t c = 0; c < n; ++c)
      for (std::size_t k = csc.colPtr[c]; k < csc.colPtr[c + 1]; ++k)
        js(csc.row[k], c) = csc.val[k];
    EXPECT_TRUE(vecBitIdentical(js.data(), jd.data())) << "jacobian, trial " << trial;
  }
}

TEST(SparseMna, AcValuesMatchDenseAcMatricesBitwise) {
  const ckt::Netlist net = mixedNetlist();
  const sim::Mna mna(net, proc());
  sim::SparseMna sp(mna);
  const std::size_t n = mna.size();

  num::Rng rng(321);
  num::VecD xOp(n);
  for (auto& v : xOp) v = rng.uniform(0.0, proc().vdd);

  num::MatrixD gd, cd;
  num::VecD bd;
  mna.acMatrices(xOp, gd, cd, bd);
  std::vector<double> gv, cv;
  num::VecD bs;
  sp.acValues(xOp, gv, cv, bs);

  EXPECT_TRUE(vecBitIdentical(bs, bd));
  const auto& csc = sp.csc();
  num::MatrixD gs(n, n), cs(n, n);
  for (std::size_t c = 0; c < n; ++c)
    for (std::size_t k = csc.colPtr[c]; k < csc.colPtr[c + 1]; ++k) {
      gs(csc.row[k], c) = gv[k];
      cs(csc.row[k], c) = cv[k];
    }
  EXPECT_TRUE(vecBitIdentical(gs.data(), gd.data()));
  EXPECT_TRUE(vecBitIdentical(cs.data(), cd.data()));
}

TEST(SparseMna, PatternDigestSeparatesStructures) {
  const ckt::Netlist netA = mixedNetlist();
  const sim::Mna mnaA(netA, proc());
  sim::SparseMna a1(mnaA), a2(mnaA);
  EXPECT_EQ(a1.patternDigest(), a2.patternDigest());  // same structure, same key

  // A grounded resistor on an existing node only restamps its diagonal and
  // leaves the union pattern (hence the digest) unchanged — that is the
  // cache working as intended.  A genuinely new coupling must change it.
  ckt::Netlist netB = mixedNetlist();
  netB.addResistor("RZ", "inp", "gx1", 1e6);  // new off-diagonal pair
  const sim::Mna mnaB(netB, proc());
  sim::SparseMna b(mnaB);
  EXPECT_NE(a1.patternDigest(), b.patternDigest());
}

// ---------------------------------------------------------------------------
// Analyses: DC / AC / transient bit-identical across solver modes

namespace {

struct AnalysisRun {
  num::VecD dcX;
  std::string dcStrategy;
  num::VecC acValues;
  std::vector<num::VecD> tranStates;
};

AnalysisRun runAnalyses(sim::SolverMode mode) {
  SolverScope solver(mode);
  ckt::Netlist net;
  auto& v = net.addVSource("V1", "in", "0", 0.0, 1.0);
  v.waveform.kind = ckt::Waveform::Kind::Pulse;
  v.waveform.v1 = 0.0;
  v.waveform.v2 = 1.0;
  v.waveform.rise = 1e-12;
  v.waveform.width = 1.0;
  v.waveform.period = 2.0;
  net.addResistor("R1", "in", "n1", 1e3);
  net.addInductor("L1", "n1", "out", 1e-6);
  net.addCapacitor("C1", "out", "0", 1e-9);
  net.addResistor("R2", "out", "0", 1e5);
  net.addDiode("D1", "out", "0", 1e-14);
  const sim::Mna mna(net, proc());

  AnalysisRun run;
  const auto op = sim::dcOperatingPoint(mna);
  EXPECT_TRUE(op.converged);
  run.dcX = op.x;
  run.dcStrategy = op.strategy;

  const auto sweep = sim::acAnalysis(mna, op, "out", sim::logspace(1e3, 1e8, 4));
  EXPECT_EQ(sweep.status, core::EvalStatus::Ok);
  for (const auto& p : sweep.points) run.acValues.push_back(p.value);

  sim::TransientOptions topts;
  topts.tStop = 2e-7;
  topts.tStep = 1e-9;
  const auto tr = sim::transientAnalysis(mna, op, topts);
  EXPECT_TRUE(tr.completed);
  run.tranStates = tr.states;
  return run;
}

std::uint64_t sparseSolveTotal() {
  return core::metrics::Registry::instance().total(sim::sparseCounters().solves);
}

}  // namespace

TEST(SparseDifferential, DcAcTransientBitIdenticalAcrossSolverModes) {
  const auto dense = runAnalyses(sim::SolverMode::Dense);
  const auto before = sparseSolveTotal();
  const auto sparse = runAnalyses(sim::SolverMode::Sparse);
  // The differential is vacuous unless the sparse path actually ran.
  EXPECT_GT(sparseSolveTotal(), before);

  EXPECT_EQ(dense.dcStrategy, sparse.dcStrategy);
  EXPECT_TRUE(vecBitIdentical(dense.dcX, sparse.dcX));
  EXPECT_TRUE(vecBitIdentical(dense.acValues, sparse.acValues));
  ASSERT_EQ(dense.tranStates.size(), sparse.tranStates.size());
  for (std::size_t i = 0; i < dense.tranStates.size(); ++i)
    EXPECT_TRUE(vecBitIdentical(dense.tranStates[i], sparse.tranStates[i])) << "step " << i;
}

TEST(SparseDifferential, AcSolveBatchMatchesPointwiseSolves) {
  SolverScope solver(sim::SolverMode::Sparse);
  const ckt::Netlist net = sz::buildTwoStageOpamp(sz::TwoStageParams{}, proc());
  const sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna, sim::flatStart(mna, proc().vdd / 2));
  ASSERT_TRUE(op.converged);

  sim::AcSolver one(mna, op);
  sim::AcSolver batch(mna, op);
  const auto freqs = sim::logspace(1.0, 1e9, 3);
  const auto rhs = one.stimulus();
  const auto xs = batch.solveBatch(freqs, rhs);
  ASSERT_EQ(xs.size(), freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i)
    EXPECT_TRUE(vecBitIdentical(xs[i], one.solve(freqs[i], rhs))) << "freq " << freqs[i];
}

// ---------------------------------------------------------------------------
// Differential suite: full flow and corner hunt across
// {Dense, Sparse} x {1, 8} threads x {cache on, off}

namespace {

sz::SynthesisOptions fastSynthesisOptions() {
  sz::SynthesisOptions opts;
  opts.seed = 11;
  opts.multistarts = 2;
  opts.anneal.stagnationStages = 2;
  opts.anneal.coolingRate = 0.7;
  opts.refineEvaluations = 40;
  return opts;
}

core::FlowResult runFlow(sim::SolverMode solver, bool cacheOn, std::size_t threads) {
  cache::EvalCache::instance().clear();
  SolverScope scope(solver, cacheOn);
  core::ScopedThreadPool scoped(threads);
  sz::SpecSet specs;
  specs.atLeast("gain_db", 36.0)
      .atLeast("ugf", 1e7)
      .atLeast("pm", 60.0)
      .atMost("power", 4e-3)
      .minimize("power", 0.3, 1e-3);
  core::FlowOptions opts;
  opts.loadCap = 2e-12;
  opts.seed = 3;
  opts.synthesis = fastSynthesisOptions();
  opts.layout.annealPlacement = false;
  return core::synthesizeAmplifier(specs, proc(), opts);
}

/// The run-report prefix that is a pure function of the FlowResult (name +
/// info + values; counters/spans and wall-clock seconds masked) — the same
/// schema check the eval-cache differential pins.
std::string reportResultPrefix(const core::FlowResult& r) {
  std::string json = core::flowRunReportJson(r);
  const auto pos = json.find("\"counters\"");
  if (pos != std::string::npos) json = json.substr(0, pos);
  std::string masked;
  std::size_t at = 0;
  while (true) {
    const auto hit = json.find(".seconds\": ", at);
    if (hit == std::string::npos) break;
    const auto valueStart = hit + std::strlen(".seconds\": ");
    auto valueEnd = valueStart;
    while (valueEnd < json.size() && json[valueEnd] != ',' && json[valueEnd] != '\n')
      ++valueEnd;
    masked += json.substr(at, valueStart - at);
    masked += '#';
    at = valueEnd;
  }
  masked += json.substr(at);
  return masked;
}

::testing::AssertionResult perfBitIdentical(const sz::Performance& a,
                                            const sz::Performance& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "sizes differ: " << a.size() << " vs " << b.size();
  auto ia = a.begin();
  auto ib = b.begin();
  for (; ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first)
      return ::testing::AssertionFailure()
             << "keys differ: " << ia->first << " vs " << ib->first;
    if (rawBits(ia->second) != rawBits(ib->second))
      return ::testing::AssertionFailure()
             << ia->first << " differs in bits: " << ia->second << " vs " << ib->second;
  }
  return ::testing::AssertionSuccess();
}

void expectFlowsBitIdentical(const core::FlowResult& a, const core::FlowResult& b,
                             const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.topology, b.topology);
  EXPECT_TRUE(vecBitIdentical(a.designPoint, b.designPoint));
  EXPECT_EQ(a.redesigns, b.redesigns);
  EXPECT_EQ(a.failureReason, b.failureReason);
  EXPECT_EQ(a.failureStatus, b.failureStatus);
  ASSERT_EQ(a.verifications.size(), b.verifications.size());
  for (std::size_t i = 0; i < a.verifications.size(); ++i) {
    EXPECT_EQ(a.verifications[i].stage, b.verifications[i].stage);
    EXPECT_EQ(a.verifications[i].passed, b.verifications[i].passed);
    EXPECT_TRUE(
        perfBitIdentical(a.verifications[i].measured, b.verifications[i].measured));
  }
  ASSERT_EQ(a.stageRecords.size(), b.stageRecords.size());
  for (std::size_t i = 0; i < a.stageRecords.size(); ++i) {
    EXPECT_EQ(a.stageRecords[i].name, b.stageRecords[i].name);
    EXPECT_EQ(a.stageRecords[i].attempt, b.stageRecords[i].attempt);
    EXPECT_EQ(a.stageRecords[i].status, b.stageRecords[i].status);
    EXPECT_EQ(a.stageRecords[i].detail, b.stageRecords[i].detail);
    EXPECT_EQ(a.stageRecords[i].evalStatus, b.stageRecords[i].evalStatus);
  }
  EXPECT_EQ(reportResultPrefix(a), reportResultPrefix(b));
}

}  // namespace

TEST(SparseDifferential, FlowBitIdenticalAcrossSolversThreadsAndCache) {
  using sim::SolverMode;
  const auto reference = runFlow(SolverMode::Dense, false, 1);
  for (const auto solver : {SolverMode::Dense, SolverMode::Sparse})
    for (const std::size_t threads : {std::size_t{1}, std::size_t{8}})
      for (const bool cacheOn : {false, true}) {
        if (solver == SolverMode::Dense && threads == 1 && !cacheOn) continue;
        const std::string label = std::string(core::solverKindName(solver)) +
                                  " threads=" + std::to_string(threads) +
                                  " cache=" + (cacheOn ? "on" : "off");
        expectFlowsBitIdentical(reference, runFlow(solver, cacheOn, threads), label);
      }
  cache::EvalCache::instance().clear();
}

namespace {

/// Simulation-based worst-case corner hunt + audit at a fixed design — the
/// robustSynthesize access pattern, heavy in DC + AC solves.
std::vector<double> cornerHuntMargins(sim::SolverMode solver) {
  cache::EvalCache::instance().clear();
  // Cache off: isolate the solver differential from the cache.
  SolverScope scope(solver, /*cacheOn=*/false);
  const mf::ModelFactory factory = [](const ckt::Process& p) {
    sz::SimModelOptions opts;
    opts.measureNoise = false;
    return std::make_unique<sz::SimulationModel>(
        sz::twoStageTemplate(p, {5e-12, 2.2, true}), p, opts);
  };
  sz::SpecSet specs;
  specs.atLeast("gain_db", 55.0).atLeast("pm", 45.0).atMost("power", 1e-2);
  const auto tmpl = sz::twoStageTemplate(proc(), {5e-12, 2.2, true});
  std::vector<double> x;
  for (const auto& v : tmpl.variables)
    x.push_back(v.logScale && v.lo > 0 ? std::sqrt(v.lo * v.hi) : 0.5 * (v.lo + v.hi));
  mf::VariationSpace space;
  std::vector<double> margins;
  for (int phase = 0; phase < 2; ++phase)  // hunt, then audit
    for (const auto& spec : specs.specs()) {
      const auto wc = mf::worstCaseCorner(factory, proc(), space, x, spec);
      margins.push_back(wc.margin);
      margins.push_back(wc.value);
      for (double cc : wc.corner) margins.push_back(cc);
    }
  return margins;
}

}  // namespace

TEST(SparseDifferential, CornerHuntBitIdenticalAcrossSolverModes) {
  const auto dense = cornerHuntMargins(sim::SolverMode::Dense);
  const auto before = sparseSolveTotal();
  const auto sparse = cornerHuntMargins(sim::SolverMode::Sparse);
  EXPECT_GT(sparseSolveTotal(), before);  // the sparse leg really ran sparse
  EXPECT_TRUE(vecBitIdentical(dense, sparse));
}
