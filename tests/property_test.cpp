// Property-based (parameterized) invariant sweeps across the library:
// randomized-but-seeded inputs, checked against invariants that must hold
// for *every* instance, not just the hand-picked unit-test cases.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "layout/cell/drc.hpp"
#include "layout/cell/modgen.hpp"
#include "layout/cell/place.hpp"
#include "layout/cell/route.hpp"
#include "layout/cell/stack.hpp"
#include "layout/system/channel.hpp"
#include "layout/system/segregate.hpp"
#include "numeric/anneal.hpp"
#include "numeric/interval.hpp"
#include "numeric/pade.hpp"
#include "numeric/rng.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sizing/eqmodel.hpp"
#include "sizing/opamp.hpp"

namespace {
using namespace amsyn;
const circuit::Process& proc() { return circuit::defaultProcess(); }
}  // namespace

// ------------------------------------------------------------ KCL property

class MnaKclProperty : public ::testing::TestWithParam<int> {};

TEST_P(MnaKclProperty, ResidualVanishesAtSolvedOperatingPoint) {
  // Random ladder of resistors, MOS devices and sources; whatever the
  // topology, a converged DC solution must satisfy KCL to solver tolerance.
  num::Rng rng(static_cast<std::uint64_t>(GetParam()));
  circuit::Netlist net;
  net.addVSource("VDD", "vdd", "0", 5.0);
  const int stages = 2 + static_cast<int>(rng.index(4));
  std::string prev = "vdd";
  for (int i = 0; i < stages; ++i) {
    const std::string node = "n" + std::to_string(i);
    net.addResistor("R" + std::to_string(i), prev, node,
                    1e3 * (1.0 + rng.uniform() * 9.0));
    if (rng.chance(0.5)) {
      net.addMos("M" + std::to_string(i), node, prev, "0", "0", circuit::MosType::Nmos,
                 (2.0 + rng.uniform() * 30.0) * 1e-6, 2e-6);
    } else {
      net.addResistor("RG" + std::to_string(i), node, "0",
                      1e3 * (1.0 + rng.uniform() * 9.0));
    }
    prev = node;
  }
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged) << "seed " << GetParam();
  num::VecD f;
  mna.assemble(op.x, {}, nullptr, &f);
  EXPECT_LT(num::normInf(f), 1e-8) << "seed " << GetParam();
}

TEST_P(MnaKclProperty, AcSolutionSatisfiesComplexSystem) {
  num::Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  circuit::Netlist net;
  net.addVSource("VIN", "in", "0", 1.0, 1.0);
  std::string prev = "in";
  for (int i = 0; i < 3; ++i) {
    const std::string node = "m" + std::to_string(i);
    net.addResistor("R" + std::to_string(i), prev, node, 1e3 * (1 + rng.uniform() * 5));
    net.addCapacitor("C" + std::to_string(i), node, "0", 1e-12 * (1 + rng.uniform() * 10));
    prev = node;
  }
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);

  num::MatrixD g, c;
  num::VecD b;
  mna.acMatrices(op.x, g, c, b);
  const double f = 1e3 * std::pow(10.0, rng.uniform() * 5.0);
  const double w = 2 * M_PI * f;
  const std::size_t n = mna.size();
  num::MatrixC a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) a(i, j) = {g(i, j), w * c(i, j)};
  num::VecC rhs(n);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = b[i];
  const auto x = num::LUC(a).solve(rhs);
  // Residual of the complex system.
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    std::complex<double> acc = -rhs[i];
    for (std::size_t j = 0; j < n; ++j) acc += std::complex<double>(g(i, j), w * c(i, j)) * x[j];
    worst = std::max(worst, std::abs(acc));
  }
  EXPECT_LT(worst, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MnaKclProperty, ::testing::Range(1, 13));

// ------------------------------------------------------------ Pade property

class PadeProperty : public ::testing::TestWithParam<int> {};

TEST_P(PadeProperty, RecoversRandomStableTwoPoleSystems) {
  // Draw two distinct stable real poles and positive residues; moments of
  // H(s) = r1/(1 - s/p1)... computed analytically: for H = sum r_i/(1 + s t_i),
  // m_k = sum r_i (-t_i)^k.
  num::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 3);
  const double t1 = std::pow(10.0, -7.0 + rng.uniform() * 2.0);  // 0.1-10 us... spread
  const double t2 = t1 * (3.0 + rng.uniform() * 30.0);
  const double r1 = 0.2 + rng.uniform();
  const double r2 = 0.2 + rng.uniform();

  std::vector<double> m;
  for (int k = 0; k < 6; ++k)
    m.push_back(r1 * std::pow(-t1, k) + r2 * std::pow(-t2, k));

  const auto pr = num::toPoleResidue(num::padeAuto(m));
  // All reconstructed poles stable.
  for (const auto& p : pr.poles) EXPECT_LE(p.real(), 1e-9);
  // Transfer magnitude matches at several frequencies spanning the poles.
  for (double f : {0.01 / t2, 0.3 / t2, 0.3 / t1, 3.0 / t1}) {
    const std::complex<double> s{0.0, f};
    const std::complex<double> exact =
        r1 / (1.0 + s * t1) + r2 / (1.0 + s * t2);
    const double got = std::abs(pr.evaluate(s));
    EXPECT_NEAR(got, std::abs(exact), std::abs(exact) * 0.02)
        << "seed " << GetParam() << " f " << f;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PadeProperty, ::testing::Range(1, 17));

// -------------------------------------------------------- interval property

struct IntervalCase {
  double xlo, xhi, ylo, yhi;
};

class IntervalProperty : public ::testing::TestWithParam<int> {};

TEST_P(IntervalProperty, ContainmentUnderArithmetic) {
  // Fundamental soundness of interval arithmetic: for x in X, y in Y,
  // x op y must lie in X op Y.
  num::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 1);
  const double xlo = rng.uniform(-10, 10);
  const double xhi = xlo + rng.uniform(0.1, 10);
  const double ylo = rng.uniform(-10, 10);
  const double yhi = ylo + rng.uniform(0.1, 10);
  const num::Interval X{xlo, xhi}, Y{ylo, yhi};

  for (int trial = 0; trial < 40; ++trial) {
    const double x = rng.uniform(xlo, xhi);
    const double y = rng.uniform(ylo, yhi);
    EXPECT_TRUE((X + Y).contains(x + y));
    EXPECT_TRUE((X - Y).contains(x - y));
    EXPECT_TRUE((X * Y).contains(x * y));
    EXPECT_TRUE(num::pow(X, 2).contains(x * x));
    EXPECT_TRUE(num::pow(X, 3).contains(x * x * x));
    if (!Y.contains(0.0)) {
      EXPECT_TRUE((X / Y).contains(x / y));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntervalProperty, ::testing::Range(1, 13));

// --------------------------------------------------------- stacking property

class StackingProperty : public ::testing::TestWithParam<int> {};

TEST_P(StackingProperty, GreedyIsAlwaysValidAndEulerOptimal) {
  num::Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 5);
  circuit::Netlist net;
  const int nNets = 3 + static_cast<int>(rng.index(5));
  const int nDevs = 3 + static_cast<int>(rng.index(10));
  for (int i = 0; i < nDevs; ++i) {
    const std::string a = "n" + std::to_string(rng.index(nNets));
    std::string b = "n" + std::to_string(rng.index(nNets));
    if (a == b) b = "n" + std::to_string((rng.index(nNets - 1) + 1 +
                                          std::stoul(a.substr(1))) % nNets);
    net.addMos("M" + std::to_string(i), a, "g" + std::to_string(i), b, "0",
               circuit::MosType::Nmos, 10e-6, 2e-6);
  }
  for (const auto& g : layout::buildDiffusionGraphs(net)) {
    const auto s = layout::greedyStacking(g);
    EXPECT_TRUE(layout::stackingValid(g, s)) << "seed " << GetParam();
    EXPECT_EQ(s.stacks.size(), g.minimumStacks()) << "seed " << GetParam();
  }
}

TEST_P(StackingProperty, ExactSolutionsAllValidAndOptimal) {
  num::Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 11);
  circuit::Netlist net;
  const int nDevs = 3 + static_cast<int>(rng.index(5));  // small: exact is exponential
  for (int i = 0; i < nDevs; ++i) {
    const std::string a = "n" + std::to_string(rng.index(4));
    std::string b = "n" + std::to_string(rng.index(4));
    if (a == b) continue;
    net.addMos("M" + std::to_string(i), a, "g" + std::to_string(i), b, "0",
               circuit::MosType::Nmos, 10e-6, 2e-6);
  }
  for (const auto& g : layout::buildDiffusionGraphs(net)) {
    if (g.edges.empty()) continue;
    const auto all = layout::enumerateOptimalStackings(g, 32);
    ASSERT_FALSE(all.empty()) << "seed " << GetParam();
    for (const auto& s : all) {
      EXPECT_TRUE(layout::stackingValid(g, s));
      EXPECT_EQ(s.stacks.size(), g.minimumStacks());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StackingProperty, ::testing::Range(1, 17));

// ----------------------------------------------------------- placer property

class PlacerProperty : public ::testing::TestWithParam<int> {};

TEST_P(PlacerProperty, AnnealedPlacementsAreAlwaysLegal) {
  std::vector<layout::PlacementComponent> comps;
  num::Rng rng(static_cast<std::uint64_t>(GetParam()) * 41 + 7);
  const int n = 3 + static_cast<int>(rng.index(4));
  for (int i = 0; i < n; ++i) {
    layout::PlacementComponent c;
    c.name = "M" + std::to_string(i);
    circuit::MosParams mp{circuit::MosType::Nmos, (5.0 + rng.uniform() * 30.0) * 1e-6,
                          2e-6, 1, 0.0, 1.0};
    c.variants = {layout::generateMos(c.name, mp, "d" + std::to_string(i), "g",
                                      "s" + std::to_string(i), "0", proc())};
    comps.push_back(std::move(c));
  }
  layout::PlacerOptions opts;
  opts.seed = static_cast<std::uint64_t>(GetParam());
  const auto p = layout::placeCells(comps, opts);
  EXPECT_TRUE(p.overlapFree) << "seed " << GetParam();
  EXPECT_EQ(p.instances.size(), comps.size());
  EXPECT_GT(p.boundingBox.area(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlacerProperty, ::testing::Range(1, 9));

// ---------------------------------------------------------- channel property

class ChannelProperty : public ::testing::TestWithParam<int> {};

TEST_P(ChannelProperty, AssignmentsNeverOverlapAndRespectVcg) {
  num::Rng rng(static_cast<std::uint64_t>(GetParam()) * 53 + 3);
  std::vector<layout::ChannelPin> pins;
  const int nNets = 3 + static_cast<int>(rng.index(5));
  for (int i = 0; i < nNets; ++i) {
    const std::string net = "n" + std::to_string(i);
    const int c0 = static_cast<int>(rng.index(20));
    const int c1 = c0 + 1 + static_cast<int>(rng.index(10));
    pins.push_back({net, c0, rng.chance(0.5)});
    pins.push_back({net, c1, rng.chance(0.5)});
  }
  const auto r = layout::routeChannel(pins);
  if (!r.routable) return;  // cyclic VCG: correctly refused

  // No two assignments may overlap in (track-range x column-span).
  for (std::size_t i = 0; i < r.assignments.size(); ++i) {
    for (std::size_t j = i + 1; j < r.assignments.size(); ++j) {
      const auto& a = r.assignments[i];
      const auto& b = r.assignments[j];
      const bool trackOverlap = a.track < b.track + b.widthTracks &&
                                b.track < a.track + a.widthTracks;
      const bool colOverlap = a.colMin <= b.colMax && b.colMin <= a.colMax;
      EXPECT_FALSE(trackOverlap && colOverlap)
          << a.net << " and " << b.net << " collide, seed " << GetParam();
    }
  }
  EXPECT_GE(r.height, r.densityLowerBound);

  // VCG: at a column with a top pin of X and bottom pin of Y, X above Y.
  std::map<int, std::string> topAt, botAt;
  for (const auto& p : pins) (p.top ? topAt : botAt)[p.column] = p.net;
  std::map<std::string, int> trackOf;
  for (const auto& a : r.assignments)
    if (a.net != "(shield)") trackOf[a.net] = a.track;
  for (const auto& [col, tnet] : topAt) {
    auto bit = botAt.find(col);
    if (bit == botAt.end() || bit->second == tnet) continue;
    if (trackOf.count(tnet) && trackOf.count(bit->second)) {
      EXPECT_GT(trackOf[tnet], trackOf[bit->second]) << "col " << col;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelProperty, ::testing::Range(1, 21));

// ------------------------------------------------------- segregation property

class SegregateProperty : public ::testing::TestWithParam<int> {};

TEST_P(SegregateProperty, NoisyAndSensitiveNeverShareAChannel) {
  num::Rng rng(static_cast<std::uint64_t>(GetParam()) * 61 + 9);
  std::vector<layout::SegregatedNet> nets;
  const int n = 4 + static_cast<int>(rng.index(16));
  for (int i = 0; i < n; ++i) {
    layout::SegregatedNet sn;
    sn.name = "n" + std::to_string(i);
    const int k = static_cast<int>(rng.index(3));
    sn.wireClass = k == 0 ? layout::WireClass::Noisy
                          : (k == 1 ? layout::WireClass::Sensitive
                                    : layout::WireClass::Quiet);
    sn.preferredChannel = static_cast<int>(rng.index(8));
    nets.push_back(std::move(sn));
  }
  const auto a = layout::segregateChannels(nets);
  EXPECT_TRUE(layout::segregationHolds(a, nets)) << "seed " << GetParam();
  if (a.valid) {
    EXPECT_EQ(a.channelOf.size(), nets.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SegregateProperty, ::testing::Range(1, 17));

// --------------------------------------------------------- annealer property

class AnnealProperty : public ::testing::TestWithParam<int> {};

TEST_P(AnnealProperty, ConvergesOnSeparableQuadratic) {
  num::Rng seedRng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> target(4);
  for (double& t : target) t = seedRng.uniform(-3, 3);

  std::vector<double> x(4, 0.0), prev = x, best = x;
  num::AnnealProblem prob;
  prob.cost = [&] {
    double s = 0;
    for (std::size_t i = 0; i < 4; ++i) s += (x[i] - target[i]) * (x[i] - target[i]);
    return s;
  };
  prob.propose = [&](num::Rng& rng) {
    prev = x;
    x[rng.index(4)] += rng.uniform(-0.5, 0.5);
  };
  prob.undo = [&] { x = prev; };
  prob.snapshot = [&] { best = x; };
  num::AnnealOptions opts;
  opts.seed = static_cast<std::uint64_t>(GetParam()) + 77;
  num::anneal(prob, opts);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_NEAR(best[i], target[i], 0.25);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnnealProperty, ::testing::Range(1, 9));

// -------------------------------------------------- corner-model consistency

class CornerConsistency : public ::testing::TestWithParam<int> {};

TEST_P(CornerConsistency, NominalCornerEqualsDirectEvaluation) {
  // The corner model evaluated AT the nominal process must reproduce the
  // plain equation model exactly (same geometry path).
  num::Rng rng(static_cast<std::uint64_t>(GetParam()) * 97 + 13);
  const sizing::ComposedOpampModel direct(sizing::OpampStructure::legacyTwoStage(), proc(), 5e-12);
  const auto corner = sizing::makeTwoStageCornerModel(proc(), proc(), 5e-12);

  std::vector<double> x;
  for (const auto& v : direct.variables()) {
    const double t = rng.uniform();
    x.push_back(v.logScale && v.lo > 0 ? v.lo * std::pow(v.hi / v.lo, t)
                                       : v.lo + t * (v.hi - v.lo));
  }
  const auto a = direct.evaluate(x);
  const auto b = corner->evaluate(x);
  for (const auto& [k, va] : a) {
    ASSERT_TRUE(b.count(k)) << k;
    EXPECT_NEAR(b.at(k), va, std::abs(va) * 1e-12 + 1e-15) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CornerConsistency, ::testing::Range(1, 13));

// ------------------------------------------------------ router DRC property

class RouterDrcProperty : public ::testing::TestWithParam<int> {};

TEST_P(RouterDrcProperty, RoutedWiresKeepMinimumSpacing) {
  // Route the diff-pair cell with several seeds; the wires the router emits
  // must keep design-rule spacing among themselves (different nets).
  std::vector<layout::PlacementComponent> comps;
  circuit::MosParams mp{circuit::MosType::Nmos, 20e-6, 2e-6, 1, 0.0, 1.0};
  for (int i = 0; i < 3; ++i) {
    layout::PlacementComponent c;
    c.name = "M" + std::to_string(i);
    c.variants = {layout::generateMos(c.name, mp, "d" + std::to_string(i), "gate",
                                      "tail", "0", proc())};
    comps.push_back(std::move(c));
  }
  layout::PlacerOptions popts;
  popts.seed = static_cast<std::uint64_t>(GetParam());
  const auto p = layout::placeCells(comps, popts);
  ASSERT_TRUE(p.overlapFree);

  std::vector<layout::RouteNet> nets = {
      {"tail", layout::WireClass::Quiet, 0.0, std::nullopt},
      {"gate", layout::WireClass::Quiet, 0.0, std::nullopt},
  };
  const auto r = layout::routeCells(p.instances, nets, proc());
  ASSERT_TRUE(r.allRouted) << "seed " << GetParam();

  // DRC over the generated wires only (device-internal geometry is the
  // module generator's own template and checked elsewhere).
  geom::Layout wiresOnly;
  wiresOnly.wires = r.layout.wires;
  layout::DrcOptions dopts;
  dopts.checkWidth = false;  // pads overlap same-net segments by design
  const auto violations = layout::checkDesignRules(wiresOnly, proc(), dopts);
  for (const auto& v : violations) ADD_FAILURE() << v.describe();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterDrcProperty, ::testing::Range(1, 7));

// ------------------------------------------ evaluation-cache key properties
//
// The cache keys of core/evalcache.hpp are only sound if (a) semantically
// identical candidates always collide (declaration order, device names, and
// thread/schedule must not matter) and (b) electrically distinct candidates
// never collide by construction (any sizing change, down to one ulp, must
// move the digest).  Sweep both directions over random
// netlists and design vectors.

#include "circuit/canonical.hpp"
#include "core/evalcache.hpp"
#include "core/parallel.hpp"

namespace {

/// One declarative device record, so the same netlist can be instantiated
/// in any declaration order.
struct DeviceRec {
  enum Kind { R, C, V, Mos, Diode } kind;
  std::string name, a, b;
  double value;
};

std::vector<DeviceRec> randomDeviceRecs(num::Rng& rng) {
  std::vector<DeviceRec> recs;
  recs.push_back({DeviceRec::V, "VDD", "vdd", "0", 5.0});
  const int n = 6 + static_cast<int>(rng.index(6));
  for (int i = 0; i < n; ++i) {
    const std::string a = "n" + std::to_string(rng.index(4));
    std::string b = "n" + std::to_string(rng.index(4));
    if (b == a) b = "0";
    const std::string nm = "D" + std::to_string(i);
    switch (rng.index(4)) {
      case 0: recs.push_back({DeviceRec::R, nm, a, b, 1e3 * (1 + rng.uniform() * 9)}); break;
      case 1: recs.push_back({DeviceRec::C, nm, a, b, 1e-12 * (1 + rng.uniform() * 9)}); break;
      case 2: recs.push_back({DeviceRec::Mos, nm, a, b, (2 + rng.uniform() * 20) * 1e-6}); break;
      default: recs.push_back({DeviceRec::Diode, nm, a, b, 1e-14}); break;
    }
  }
  return recs;
}

circuit::Netlist instantiate(const std::vector<DeviceRec>& recs,
                             const std::vector<std::size_t>& order,
                             const std::string& nameSuffix = "") {
  circuit::Netlist net;
  for (std::size_t k : order) {
    const DeviceRec& r = recs[k];
    const std::string nm = r.name + nameSuffix;
    switch (r.kind) {
      case DeviceRec::R: net.addResistor(nm, r.a, r.b, r.value); break;
      case DeviceRec::C: net.addCapacitor(nm, r.a, r.b, r.value); break;
      case DeviceRec::V: net.addVSource(nm, r.a, r.b, r.value); break;
      case DeviceRec::Mos:
        net.addMos(nm, r.a, "g", r.b, "0", circuit::MosType::Nmos, r.value, 2e-6);
        break;
      case DeviceRec::Diode: net.addDiode(nm, r.a, r.b, r.value); break;
    }
  }
  return net;
}

std::vector<std::size_t> identityOrder(std::size_t n) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  return order;
}

}  // namespace

class CacheKeyProperty : public ::testing::TestWithParam<int> {};

TEST_P(CacheKeyProperty, NetlistDigestIgnoresDeclarationOrderAndDeviceNames) {
  num::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
  const auto recs = randomDeviceRecs(rng);

  auto order = identityOrder(recs.size());
  const auto reference = circuit::canonicalNetlistDigest(instantiate(recs, order));

  // Any declaration order — which also permutes NodeId assignment, since
  // nodes are created on first use — must hash identically.
  for (int shuffle = 0; shuffle < 4; ++shuffle) {
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.index(i)]);
    EXPECT_EQ(circuit::canonicalNetlistDigest(instantiate(recs, order)), reference)
        << "seed " << GetParam() << " shuffle " << shuffle;
  }

  // Device *names* are labels, not electrical facts.
  EXPECT_EQ(circuit::canonicalNetlistDigest(instantiate(recs, identityOrder(recs.size()),
                                                        "_renamed")),
            reference);
}

TEST_P(CacheKeyProperty, AnyElectricalPerturbationMovesTheNetlistDigest) {
  num::Rng rng(static_cast<std::uint64_t>(GetParam()) * 257 + 29);
  auto recs = randomDeviceRecs(rng);
  const auto order = identityOrder(recs.size());
  const auto reference = circuit::canonicalNetlistDigest(instantiate(recs, order));

  // One device value nudged by one ulp-scale relative step: a different
  // circuit, therefore a different digest (exact-bit canonical form).
  auto perturbed = recs;
  const std::size_t victim = rng.index(recs.size());
  perturbed[victim].value = std::nextafter(perturbed[victim].value, 1e30);
  EXPECT_NE(circuit::canonicalNetlistDigest(instantiate(perturbed, order)), reference)
      << "seed " << GetParam();

  // Node renaming is deliberately digest-visible: connectivity labels are
  // part of a candidate's identity (the testbench measures named nodes).
  auto renamed = recs;
  bool touched = false;
  for (auto& r : renamed) {
    if (r.a == "n0") r.a = "n9", touched = true;
    if (r.b == "n0") r.b = "n9", touched = true;
  }
  if (touched)
    EXPECT_NE(circuit::canonicalNetlistDigest(instantiate(renamed, order)), reference);
}

TEST_P(CacheKeyProperty, ModelKeyIsIdenticalAcrossThreadsAndRepeats) {
  num::Rng rng(static_cast<std::uint64_t>(GetParam()) * 389 + 3);
  const sizing::ComposedOpampModel model(sizing::OpampStructure::legacyTwoStage(), proc(), 5e-12);
  std::vector<double> x;
  for (const auto& v : model.variables()) {
    const double t = rng.uniform();
    x.push_back(v.logScale && v.lo > 0 ? v.lo * std::pow(v.hi / v.lo, t)
                                       : v.lo + t * (v.hi - v.lo));
  }
  const auto reference = model.cacheKey(x);
  ASSERT_TRUE(reference.has_value());

  // Same candidate, computed concurrently on pool workers: every digest
  // must equal the serial one (the cache would otherwise split entries —
  // or worse, alias different candidates — depending on scheduling).
  core::ScopedThreadPool scoped(8);
  const auto keys = core::parallelMap(64, [&](std::size_t) { return model.cacheKey(x); });
  for (const auto& k : keys) {
    ASSERT_TRUE(k.has_value());
    EXPECT_EQ(*k, *reference);
  }
  EXPECT_EQ(*model.cacheKey(x), *reference);  // and across repeats
}

TEST_P(CacheKeyProperty, SizingPerturbationAboveQuantumMovesTheModelKey) {
  // Keys hash the exact sizing bits, so the quantum is one ulp: a single
  // one-ulp change of any coordinate is a different key.
  num::Rng rng(static_cast<std::uint64_t>(GetParam()) * 577 + 11);
  const sizing::ComposedOpampModel model(sizing::OpampStructure::legacyTwoStage(), proc(), 5e-12);
  std::vector<double> x;
  for (const auto& v : model.variables()) {
    const double t = 0.2 + 0.6 * rng.uniform();
    x.push_back(v.logScale && v.lo > 0 ? v.lo * std::pow(v.hi / v.lo, t)
                                       : v.lo + t * (v.hi - v.lo));
  }

  const auto exactRef = *model.cacheKey(x);
  auto x1 = x;
  const std::size_t victim = rng.index(x.size());
  x1[victim] = std::nextafter(x1[victim], x1[victim] * 2);
  EXPECT_NE(*model.cacheKey(x1), exactRef) << "seed " << GetParam();
  EXPECT_EQ(*model.cacheKey(x), exactRef);  // unperturbed stays put
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheKeyProperty, ::testing::Range(1, 13));
