// Property + differential suite for the composed topology space
// (sizing/blocks.hpp, sizing/eqmodel.hpp, topology/library.hpp):
//   * the composed space is large enough, valid, uniquely named, and fully
//     backed by registered netlist builders and derived bounds;
//   * cold library builds keep raw-bit-pinned bounds at any pool width;
//   * the two legacy cells are reproduced as composition instances with
//     *bit-identical* models, corner model, bounds and netlists
//     (differential against the test-only hand-written reference in
//     tests/reference/: OtaEquationModel / TwoStageEquationModel,
//     evaluateTwoStageGeometry, buildOta / buildTwoStageOpamp);
//   * every two-stage structure's unity-gain solve matches the plain
//     80-step bisection bit for bit (tests/reference/composed_ugf.*);
//   * every generated topology builds a sane netlist, and rebuilding it at
//     the same point reproduces it exactly;
//   * selection over the space — boundary, rule-based, and genetic — is
//     bit-identical across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bit_digest.hpp"
#include "circuit/netlist.hpp"
#include "circuit/process.hpp"
#include "core/context.hpp"
#include "core/parallel.hpp"
#include "manufacture/corners.hpp"
#include "numeric/rng.hpp"
#include "sizing/builders.hpp"
#include "sizing/eqmodel.hpp"
#include "reference/composed_ugf.hpp"
#include "reference/handwritten_opamp.hpp"
#include "sizing/blocks.hpp"
#include "sizing/opamp.hpp"
#include "topology/genetic.hpp"
#include "topology/library.hpp"
#include "topology/select.hpp"

namespace tp = amsyn::topology;
namespace sz = amsyn::sizing;
namespace ckt = amsyn::circuit;
namespace core = amsyn::core;
namespace mf = amsyn::manufacture;
namespace num = amsyn::num;
namespace ref = amsyn::reference;

using amsyn::testutil::BitDigest;

namespace {

constexpr double kLoadCap = 5e-12;

const ckt::Process& proc() { return ckt::defaultProcess(); }

const tp::TopologyLibrary& genLib() {
  static const tp::TopologyLibrary l =
      tp::amplifierLibrary(proc(), kLoadCap, tp::TopologySpace::Generated);
  return l;
}

/// Bitwise double equality (the differential tests' currency).
::testing::AssertionResult bitEq(double a, double b) {
  if (std::memcmp(&a, &b, sizeof a) == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " != " << b << " (bitwise; delta " << a - b << ")";
}

/// One seeded point in a model's box (log-aware).
std::vector<double> uniformInBox(const std::vector<sz::DesignVariable>& vars, num::Rng& rng) {
  std::vector<double> x(vars.size());
  for (std::size_t i = 0; i < vars.size(); ++i) {
    const double u = rng.uniform();
    const auto& v = vars[i];
    x[i] = (v.logScale && v.lo > 0) ? v.lo * std::pow(v.hi / v.lo, u)
                                    : v.lo + u * (v.hi - v.lo);
  }
  return x;
}

/// Deterministic sample points over a model's box: the initial point, then
/// seeded uniformInBox points.
std::vector<std::vector<double>> samplePoints(const sz::PerformanceModel& m,
                                              std::size_t count, std::uint64_t seed) {
  num::Rng rng(seed);
  std::vector<std::vector<double>> pts;
  pts.push_back(m.initialPoint());
  for (std::size_t p = 0; p + 1 < count; ++p) pts.push_back(uniformInBox(m.variables(), rng));
  return pts;
}

void expectSameDevices(const ckt::Netlist& a, const ckt::Netlist& b,
                       const std::string& label) {
  ASSERT_EQ(a.devices().size(), b.devices().size()) << label;
  for (std::size_t i = 0; i < a.devices().size(); ++i) {
    const auto& da = a.devices()[i];
    const auto& db = b.devices()[i];
    EXPECT_EQ(da.name, db.name) << label << " device " << i;
    EXPECT_EQ(da.type, db.type) << label << " " << da.name;
    ASSERT_EQ(da.nodes.size(), db.nodes.size()) << label << " " << da.name;
    for (std::size_t n = 0; n < da.nodes.size(); ++n)
      EXPECT_EQ(a.nodeName(da.nodes[n]), b.nodeName(db.nodes[n]))
          << label << " " << da.name << " terminal " << n;
    EXPECT_TRUE(bitEq(da.value, db.value)) << label << " " << da.name;
    EXPECT_TRUE(bitEq(da.acMag, db.acMag)) << label << " " << da.name;
    if (da.type == ckt::DeviceType::Mos) {
      EXPECT_EQ(da.mos.type, db.mos.type) << label << " " << da.name;
      EXPECT_TRUE(bitEq(da.mos.w, db.mos.w)) << label << " " << da.name;
      EXPECT_TRUE(bitEq(da.mos.l, db.mos.l)) << label << " " << da.name;
      EXPECT_EQ(da.mos.m, db.mos.m) << label << " " << da.name;
      EXPECT_TRUE(bitEq(da.mos.vtShift, db.mos.vtShift)) << label << " " << da.name;
      EXPECT_TRUE(bitEq(da.mos.betaScale, db.mos.betaScale)) << label << " " << da.name;
    }
    if (da.type == ckt::DeviceType::Diode) {
      EXPECT_TRUE(bitEq(da.diodeIs, db.diodeIs)) << label << " " << da.name;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Space shape

TEST(ComposedSpace, EnumerationIsLargeValidAndUniquelyNamed) {
  const auto structs = sz::enumerateOpampStructures();
  EXPECT_GE(structs.size(), 50u);
  std::set<std::string> names;
  std::size_t legacy = 0;
  for (const auto& s : structs) {
    std::string why;
    EXPECT_TRUE(s.valid(&why)) << s.name() << ": " << why;
    EXPECT_TRUE(names.insert(s.name()).second) << "duplicate name " << s.name();
    if (s.isLegacyOta() || s.isLegacyTwoStage()) ++legacy;
  }
  EXPECT_EQ(legacy, 2u);
  EXPECT_TRUE(names.count("five-transistor-ota"));
  EXPECT_TRUE(names.count("two-stage-miller"));
}

TEST(ComposedSpace, EnumerationOrderIsStableAcrossCalls) {
  const auto a = sz::enumerateOpampStructures();
  const auto b = sz::enumerateOpampStructures();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].name(), b[i].name()) << i;
}

TEST(ComposedSpace, ValidityRulesActuallyPrune) {
  sz::OpampStructure s;  // legacy OTA shape
  s.comp = sz::Compensation::Miller;
  EXPECT_FALSE(s.valid());  // compensation without a second stage
  s.comp = sz::Compensation::None;
  s.secondStage = true;
  EXPECT_FALSE(s.valid());  // second stage without compensation
  s.comp = sz::Compensation::Miller;
  EXPECT_TRUE(s.valid());
  s.secondStage = false;
  s.comp = sz::Compensation::None;
  s.inputCascode = s.loadCascode = s.tailCascode = true;
  EXPECT_FALSE(s.valid());  // headroom rule
}

TEST(ComposedSpace, LegacyComplexityFiguresMatchHandWrittenEntries) {
  for (const auto& s : sz::enumerateOpampStructures()) {
    if (s.isLegacyOta()) {
      EXPECT_EQ(s.deviceCount(), 6);
    }
    if (s.isLegacyTwoStage()) {
      EXPECT_EQ(s.deviceCount(), 9);
    }
  }
}

// ---------------------------------------------------------------------------
// Generated library

TEST(GeneratedLibrary, EveryEntryHasBuilderBoundsAndRules) {
  const auto& lib = genLib();
  EXPECT_GE(lib.size(), 50u);
  const auto& reg = sz::NetlistBuilderRegistry::instance();
  for (const auto& e : lib.entries()) {
    EXPECT_NE(reg.find(e.name), nullptr) << e.name;
    EXPECT_FALSE(e.bounds.empty()) << e.name;
    EXPECT_FALSE(e.rules.empty()) << e.name;
    EXPECT_GT(e.complexity, 0) << e.name;
    // The widening fix's contract across the whole space: strictly positive
    // performances keep strictly positive lower bounds.
    for (const char* perf : {"power", "ugf", "area", "noise_nv"}) {
      ASSERT_TRUE(e.bounds.count(perf)) << e.name << " " << perf;
      EXPECT_GT(e.bounds.at(perf).lo(), 0.0) << e.name << " " << perf;
    }
    EXPECT_GE(e.bounds.at("swing").lo(), 0.0) << e.name;
  }
}

TEST(GeneratedLibrary, ByNameWorksAndMissListsTheSpace) {
  EXPECT_NO_THROW(genLib().byName("five-transistor-ota"));
  EXPECT_NO_THROW(genLib().byName("gen/dpp.mirs.tails"));
  try {
    genLib().byName("no-such-topology");
    FAIL() << "expected out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_NE(std::string(e.what()).find("gen/"), std::string::npos) << e.what();
  }
}

TEST(LibraryGoldens, ColdGeneratedBoundsAreRawBitPinned) {
  // Raw-bit digests of three cold generated-space builds: every entry's
  // name, complexity, and the lo/hi bits of every bound.  The load
  // capacitances appear in no other test, so each build misses the memo and
  // samples its bounds afresh; each runs at its own pool width, so a
  // schedule-dependent bound fails here.  A change that means to move a
  // bound re-records these digests and says why.
  struct Case {
    double loadCap;
    std::size_t threads;
    const char* digest;
  };
  for (const Case& c : {Case{3.7e-12, 1, "0xc605723cddbcc5fb"},
                        Case{4.3e-12, 2, "0x4dcdcf74b7e45fc8"},
                        Case{6.1e-12, 8, "0xc7208a4d5cdc85c0"}}) {
    core::ScopedThreadPool pool(c.threads);
    const auto lib = tp::amplifierLibrary(proc(), c.loadCap, tp::TopologySpace::Generated);
    BitDigest d;
    d.u64(lib.size());
    for (const auto& e : lib.entries()) {
      d.str(e.name).i64(e.complexity).u64(e.bounds.size());
      for (const auto& [k, v] : e.bounds) d.str(k).real(v.lo()).real(v.hi());
    }
    EXPECT_EQ(d.hex(), c.digest) << "loadCap " << c.loadCap << ", " << c.threads << " threads";
  }
}

TEST(ComposedModel, UnreadCoordinateHasNoEffect) {
  // The library samples a structure's declared unread coordinate at one
  // point; that is sound only while the equations ignore it.  An equation
  // that starts reading vov6 fails here instead of silently narrowing the
  // bounds.
  std::uint64_t seed = 101;
  std::size_t twoStage = 0;
  for (const sz::OpampStructure& s : sz::enumerateOpampStructures()) {
    const auto unread = s.unreadVariable();
    if (!s.secondStage) {
      EXPECT_FALSE(unread.has_value()) << s.name();
      continue;
    }
    ++twoStage;
    const sz::ComposedOpampModel model(s, proc(), kLoadCap);
    ASSERT_TRUE(unread.has_value()) << s.name();
    const auto& v = model.variables().at(*unread);
    ASSERT_EQ(v.name, "vov6") << s.name();
    for (auto x : samplePoints(model, 20, seed++)) {
      std::vector<sz::Performance> perfs;
      for (const double u : {v.lo, v.lo + 0.5 * (v.hi - v.lo), v.hi}) {
        x[*unread] = u;
        perfs.push_back(model.evaluate(x));
      }
      for (std::size_t j = 1; j < perfs.size(); ++j) {
        ASSERT_EQ(perfs[0].size(), perfs[j].size()) << s.name();
        auto a = perfs[0].begin();
        for (auto b = perfs[j].begin(); b != perfs[j].end(); ++a, ++b) {
          EXPECT_EQ(a->first, b->first) << s.name();
          EXPECT_TRUE(bitEq(a->second, b->second)) << s.name() << " " << a->first;
        }
      }
    }
  }
  EXPECT_GT(twoStage, 0u);
}

// ---------------------------------------------------------------------------
// Legacy cells as composition instances: bit-identical models

TEST(LegacyReproduction, OtaModelMatchesBitForBit) {
  const ref::OtaEquationModel hand(proc(), kLoadCap);
  const auto& composed = *genLib().byName("five-transistor-ota").model;

  const auto& hv = hand.variables();
  const auto& cv = composed.variables();
  ASSERT_EQ(hv.size(), cv.size());
  for (std::size_t i = 0; i < hv.size(); ++i) {
    EXPECT_EQ(hv[i].name, cv[i].name);
    EXPECT_TRUE(bitEq(hv[i].lo, cv[i].lo)) << hv[i].name;
    EXPECT_TRUE(bitEq(hv[i].hi, cv[i].hi)) << hv[i].name;
    EXPECT_EQ(hv[i].logScale, cv[i].logScale) << hv[i].name;
  }

  for (const auto& x : samplePoints(hand, 60, 101)) {
    const auto ph = hand.evaluate(x);
    const auto pc = composed.evaluate(x);
    ASSERT_EQ(ph.size(), pc.size());
    for (const auto& [k, v] : ph) {
      ASSERT_TRUE(pc.count(k)) << k;
      EXPECT_TRUE(bitEq(v, pc.at(k))) << k << " at x0=" << x[0];
    }
  }
}

TEST(LegacyReproduction, TwoStageModelMatchesBitForBit) {
  const ref::TwoStageEquationModel hand(proc(), kLoadCap);
  const auto& composed = *genLib().byName("two-stage-miller").model;

  const auto& hv = hand.variables();
  const auto& cv = composed.variables();
  ASSERT_EQ(hv.size(), cv.size());
  for (std::size_t i = 0; i < hv.size(); ++i) {
    EXPECT_EQ(hv[i].name, cv[i].name);
    EXPECT_TRUE(bitEq(hv[i].lo, cv[i].lo)) << hv[i].name;
    EXPECT_TRUE(bitEq(hv[i].hi, cv[i].hi)) << hv[i].name;
    EXPECT_EQ(hv[i].logScale, cv[i].logScale) << hv[i].name;
  }

  for (const auto& x : samplePoints(hand, 60, 103)) {
    const auto ph = hand.evaluate(x);
    const auto pc = composed.evaluate(x);
    ASSERT_EQ(ph.size(), pc.size());
    for (const auto& [k, v] : ph) {
      ASSERT_TRUE(pc.count(k)) << k;
      EXPECT_TRUE(bitEq(v, pc.at(k))) << k << " at x0=" << x[0];
    }
  }
}

TEST(LegacyReproduction, BoundsMatchTheLegacyLibraryBitForBit) {
  // Same models, same grids => same sampled hulls, same widened bounds: the
  // hand-written models sampled on their historical 5/4 grids, the legacy
  // menu, and the generated space's legacy entries all agree.
  const auto legacy = tp::amplifierLibrary(proc(), kLoadCap, tp::TopologySpace::Legacy);
  ASSERT_EQ(legacy.size(), 2u);
  const auto refOta = tp::boundsBySampling(ref::OtaEquationModel(proc(), kLoadCap), 5);
  const auto refTwoStage =
      tp::boundsBySampling(ref::TwoStageEquationModel(proc(), kLoadCap), 4);
  for (const char* name : {"five-transistor-ota", "two-stage-miller"}) {
    const auto& br = std::string(name) == "two-stage-miller" ? refTwoStage : refOta;
    for (const auto* lib : {&legacy, &genLib()}) {
      const auto& b = lib->byName(name).bounds;
      ASSERT_EQ(br.size(), b.size()) << name;
      for (const auto& [k, v] : br) {
        ASSERT_TRUE(b.count(k)) << name << " " << k;
        EXPECT_TRUE(bitEq(v.lo(), b.at(k).lo())) << name << " " << k;
        EXPECT_TRUE(bitEq(v.hi(), b.at(k).hi())) << name << " " << k;
      }
    }
  }
}

TEST(LegacyReproduction, CornerModelMatchesBitForBit) {
  // The corner model maps geometry at the nominal process and evaluates
  // the electricals at the corner — the hand-written
  // evaluateTwoStageGeometry(toParams(x), corner) split.
  const ref::TwoStageEquationModel hand(proc(), kLoadCap);
  num::Rng rng(211);
  for (int c = 0; c < 6; ++c) {
    ckt::Process corner = proc();
    corner.kpN *= 1.0 + 0.2 * (rng.uniform() - 0.5);
    corner.kpP *= 1.0 + 0.2 * (rng.uniform() - 0.5);
    corner.vt0N += 0.1 * (rng.uniform() - 0.5);
    corner.vt0P += 0.1 * (rng.uniform() - 0.5);
    corner.vdd *= 1.0 + 0.1 * (rng.uniform() - 0.5);
    const auto model = sz::makeTwoStageCornerModel(corner, proc(), kLoadCap);
    for (const auto& x : samplePoints(hand, 10, 300 + c)) {
      const auto ph = ref::evaluateTwoStageGeometry(hand.toParams(x), corner, kLoadCap);
      const auto pc = model->evaluate(x);
      ASSERT_EQ(ph.size(), pc.size());
      for (const auto& [k, v] : ph) {
        ASSERT_TRUE(pc.count(k)) << k;
        EXPECT_TRUE(bitEq(v, pc.at(k))) << k << " corner " << c;
      }
    }
  }
}

TEST(LegacyReproduction, LegacyMenuCarriesTheFamilyRulesOnly) {
  // The provenance bonus exists to beat generated siblings; the two-entry
  // menu has none, so its rule sets stay the historical three per cell.
  const auto legacy = tp::amplifierLibrary(proc(), kLoadCap, tp::TopologySpace::Legacy);
  ASSERT_EQ(legacy.entries()[0].name, "five-transistor-ota");
  ASSERT_EQ(legacy.entries()[1].name, "two-stage-miller");
  for (const auto& e : legacy.entries()) {
    EXPECT_EQ(e.rules.size(), 3u) << e.name;
    EXPECT_EQ(e.rules.size() + 1, genLib().byName(e.name).rules.size()) << e.name;
    for (const auto& r : e.rules)
      EXPECT_EQ(r.description.find("reference cell"), std::string::npos) << e.name;
  }
}

// ---------------------------------------------------------------------------
// Legacy cells as composition instances: bit-identical netlists

TEST(LegacyReproduction, OtaNetlistMatchesDeviceForDevice) {
  const ref::OtaEquationModel hand(proc(), kLoadCap);
  const auto s = sz::OpampStructure::legacyOta();
  ASSERT_TRUE(s.isLegacyOta());
  const sz::OpampTestbench tb;
  for (const auto& x : samplePoints(hand, 8, 107)) {
    const auto p = hand.toParams(x);
    const auto handNet = ref::buildOta(p, proc(), tb);
    const auto compNet = sz::buildComposedOpamp(s, x, proc(), tb);
    expectSameDevices(handNet, compNet, "ota");
  }
}

TEST(LegacyReproduction, TwoStageNetlistMatchesDeviceForDevice) {
  const ref::TwoStageEquationModel hand(proc(), kLoadCap);
  const auto s = sz::OpampStructure::legacyTwoStage();
  ASSERT_TRUE(s.isLegacyTwoStage());
  const sz::OpampTestbench tb;
  for (const auto& x : samplePoints(hand, 8, 109)) {
    const auto handNet = sz::buildTwoStageOpamp(hand.toParams(x), proc(), tb);
    const auto compNet = sz::buildComposedOpamp(s, x, proc(), tb);
    expectSameDevices(handNet, compNet, "two-stage");
  }
}

// ---------------------------------------------------------------------------
// Every generated topology: netlist sanity + digest stability

TEST(GeneratedNetlists, EveryTopologyBuildsASaneNetlist) {
  const sz::OpampTestbench tb;
  const auto& reg = sz::NetlistBuilderRegistry::instance();
  for (const auto& e : genLib().entries()) {
    const auto* builder = reg.find(e.name);
    ASSERT_NE(builder, nullptr) << e.name;
    const auto x = e.model->initialPoint();
    const auto net = (*builder)(x, proc(), tb);

    // Core I/O nodes exist.
    for (const char* node : {"vdd", "inp", "inn", "out", "nbias", "tail"})
      EXPECT_TRUE(net.findNode(node).has_value()) << e.name << " missing " << node;

    const auto* model = dynamic_cast<const sz::ComposedOpampModel*>(e.model.get());
    ASSERT_NE(model, nullptr) << e.name;
    const auto& s = model->structure();

    std::size_t mosCount = 0, railCount = 0;
    for (const auto& d : net.devices()) {
      if (d.type == ckt::DeviceType::Mos) {
        ++mosCount;
        ASSERT_EQ(d.nodes.size(), 4u) << e.name << " " << d.name;
        EXPECT_GE(d.mos.w, proc().minW) << e.name << " " << d.name;
        EXPECT_GT(d.mos.l, 0.0) << e.name << " " << d.name;
        // Bulk hygiene: NMOS bulks tie to ground, PMOS bulks to vdd.
        const std::string bulk = net.nodeName(d.nodes[3]);
        if (d.mos.type == ckt::MosType::Nmos)
          EXPECT_EQ(bulk, "0") << e.name << " " << d.name;
        else
          EXPECT_EQ(bulk, "vdd") << e.name << " " << d.name;
      }
      if (d.name == "VCASN" || d.name == "VCASP") ++railCount;
    }
    // MOS count follows the structure (deviceCount minus compensation
    // passives); every cascode rail the structure needs is present.
    int passives = 0;
    if (s.secondStage) passives += 1;                              // CC
    if (s.comp == sz::Compensation::MillerNulled) passives += 1;   // RZ
    EXPECT_EQ(static_cast<int>(mosCount), s.deviceCount() - passives) << e.name;
    const bool anyCascode =
        s.inputCascode || s.loadCascode || s.tailCascode || s.sinkCascode;
    EXPECT_EQ(railCount > 0, anyCascode) << e.name;

    // Every model-predicted performance is a finite number at mid-box.
    for (const auto& [k, v] : e.model->evaluate(x))
      EXPECT_TRUE(std::isfinite(v)) << e.name << " " << k << "=" << v;
  }
}

// The name dates from the deleted canonical netlist digest; the rebuild half
// of that check, device for device, is what is left.
TEST(GeneratedNetlists, CanonicalDigestSurvivesDeclarationShuffle) {
  const sz::OpampTestbench tb;
  const auto& reg = sz::NetlistBuilderRegistry::instance();
  for (const auto& e : genLib().entries()) {
    const auto* builder = reg.find(e.name);
    const auto x = e.model->initialPoint();
    expectSameDevices((*builder)(x, proc(), tb), (*builder)(x, proc(), tb), e.name);
  }
}

// ---------------------------------------------------------------------------
// Selection over the generated space: deterministic and thread invariant

TEST(GeneratedSelection, BoundaryAndRuleSelectionAreDeterministic) {
  sz::SpecSet specs;
  specs.atLeast("gain_db", 60.0).atLeast("ugf", 2e6).atLeast("pm", 55.0).minimize("power",
                                                                                  0.5, 1e-3);
  const auto i1 = tp::intervalSelect(genLib(), specs);
  const auto i2 = tp::intervalSelect(
      tp::amplifierLibrary(proc(), kLoadCap, tp::TopologySpace::Generated), specs);
  ASSERT_EQ(i1.size(), i2.size());
  for (std::size_t k = 0; k < i1.size(); ++k) {
    EXPECT_EQ(i1[k].name, i2[k].name) << k;
    EXPECT_EQ(i1[k].feasible, i2[k].feasible) << i1[k].name;
    EXPECT_TRUE(bitEq(i1[k].score, i2[k].score)) << i1[k].name;
  }
  const auto r1 = tp::ruleBasedSelect(genLib(), specs);
  const auto r2 = tp::ruleBasedSelect(genLib(), specs);
  ASSERT_EQ(r1.size(), r2.size());
  for (std::size_t k = 0; k < r1.size(); ++k) {
    EXPECT_EQ(r1[k].name, r2[k].name) << k;
    EXPECT_TRUE(bitEq(r1[k].score, r2[k].score)) << r1[k].name;
  }
}

TEST(GeneratedSelection, LegacyCellsStillWinTheirHomeTurf) {
  // The generated space must not displace the validated cells on the specs
  // they were written for: rules + provenance keep them ranked first.
  sz::SpecSet high;
  high.atLeast("gain_db", 70.0).atLeast("ugf", 3e6).atLeast("pm", 55.0);
  EXPECT_EQ(tp::ruleBasedSelect(genLib(), high)[0].name, "two-stage-miller");
  sz::SpecSet low;
  low.atLeast("gain_db", 35.0).atLeast("ugf", 3e7).minimize("power", 1.0, 1e-3);
  EXPECT_EQ(tp::ruleBasedSelect(genLib(), low)[0].name, "five-transistor-ota");
}

// The name dates from when this also toggled the evaluation cache.
TEST(GeneratedSelection, GeneticIsBitIdenticalAcrossThreadsAndCache) {
  sz::SpecSet specs;
  specs.atLeast("gain_db", 65.0).atLeast("ugf", 2e6).atLeast("pm", 50.0).minimize("power",
                                                                                  0.5, 1e-3);
  auto run = [&](std::size_t threads) {
    core::ScopedThreadPool pool(threads);
    tp::GeneticOptions opts;
    opts.seed = 41;
    opts.populationSize = 24;
    opts.generations = 12;
    return tp::geneticSelectAndSize(genLib(), specs, opts);
  };
  const auto base = run(1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const auto r = run(threads);
    EXPECT_EQ(r.topology, base.topology) << threads;
    EXPECT_TRUE(bitEq(r.cost, base.cost)) << threads;
    ASSERT_EQ(r.x.size(), base.x.size());
    for (std::size_t i = 0; i < r.x.size(); ++i)
      EXPECT_TRUE(bitEq(r.x[i], base.x[i])) << threads << " x" << i;
    EXPECT_EQ(r.evaluations, base.evaluations);
  }
}

// ---------------------------------------------------------------------------
// UGF solve differential: the two-stage family's unity-gain crossing and
// phase margin against the test-only plain 80-step bisection
// (tests/reference/composed_ugf.*), bit for bit, on seeded points of every
// two-stage structure, at the corner-hunt vertices, and on inputs built to
// break a shortcut: a vanishing second-stage transconductance (z = 0), the
// compensation capacitor at and past its bounds, dc gain at or below one,
// and NaN-producing design points.

namespace {

constexpr std::size_t kUgfPointsPerStructure = 100'000;

std::vector<sz::OpampStructure> twoStageStructures() {
  std::vector<sz::OpampStructure> out;
  for (const auto& s : sz::enumerateOpampStructures())
    if (s.secondStage) out.push_back(s);
  return out;
}

/// Bitwise equality that also accepts two NaNs of any payload (a NaN is a
/// failed measurement whichever bits carry it).
bool sameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0 || (std::isnan(a) && std::isnan(b));
}

/// Empty when the model's ugf/pm at x equal the reference's; otherwise a
/// description of the first difference.
std::string ugfMismatch(const sz::OpampStructure& s, const sz::Performance& perf,
                        const ref::UgfSolve& r, const std::vector<double>& x) {
  if (sameBits(perf.at("ugf"), r.ugf) && sameBits(perf.at("pm"), r.pm)) return {};
  std::ostringstream os;
  os.precision(17);
  os << s.name() << ": ugf " << perf.at("ugf") << " vs " << r.ugf << ", pm " << perf.at("pm")
     << " vs " << r.pm << " at x =";
  for (const double v : x) os << ' ' << v;
  return os.str();
}

}  // namespace

TEST(UgfDifferential, SeededPointsMatchThePlainBisectionBitForBit) {
  const auto structs = twoStageStructures();
  ASSERT_EQ(structs.size(), 56u);
  const auto mismatches = core::parallelMap(structs.size(), [&](std::size_t i) {
    const auto& s = structs[i];
    const sz::ComposedOpampModel model(s, proc(), kLoadCap);
    num::Rng rng(0x9f1a0000u + i);
    for (std::size_t p = 0; p < kUgfPointsPerStructure; ++p) {
      const auto x = uniformInBox(model.variables(), rng);
      auto why = ugfMismatch(s, model.evaluate(x),
                             ref::composedTwoStageUgf(s, proc(), kLoadCap, x, proc()), x);
      if (!why.empty()) return why;
    }
    return std::string{};
  });
  for (const auto& why : mismatches) EXPECT_EQ(why, "");
}

TEST(UgfDifferential, CornerHuntVerticesMatchThePlainBisectionBitForBit) {
  // The robust flow's evaluator: geometry frozen at nominal, electricals at
  // each of the 2^6 variation-box vertices.
  const auto s = sz::OpampStructure::legacyTwoStage();
  const mf::VariationSpace space;
  constexpr std::size_t kVertices = std::size_t{1} << mf::VariationSpace::kDims;
  const auto mismatches = core::parallelMap(kVertices, [&](std::size_t mask) {
    std::vector<double> c(mf::VariationSpace::kDims);
    for (std::size_t d = 0; d < c.size(); ++d) c[d] = (mask >> d) & 1 ? 1.0 : 0.0;
    const ckt::Process corner = space.apply(proc(), c);
    const auto model = sz::makeTwoStageCornerModel(corner, proc(), kLoadCap);
    num::Rng rng(0x7c0000u + mask);
    for (std::size_t p = 0; p < 4000; ++p) {
      const auto x = uniformInBox(model->variables(), rng);
      auto why = ugfMismatch(s, model->evaluate(x),
                             ref::composedTwoStageUgf(s, corner, kLoadCap, x, proc()), x);
      if (!why.empty()) return why;
    }
    return std::string{};
  });
  for (const auto& why : mismatches) EXPECT_EQ(why, "");
}

TEST(UgfDifferential, AdversarialInputsMatchThePlainBisectionBitForBit) {
  // Processes that push the loop into degenerate regimes: a dead load
  // device (gm6 = 0, so z = 0 and av0 = 0), a vanishing one, and
  // channel-length modulation so strong that the dc gain falls below one.
  std::vector<ckt::Process> procs(5, proc());
  procs[1].kpP = 0.0;
  procs[2].kpN = 0.0;
  procs[3].kpP = procs[3].kpN = 1e-300;
  procs[4].lambdaN = procs[4].lambdaP = 1e4;
  // Single-coordinate substitutions that overflow, underflow or poison.
  const double kSubst[] = {std::nan(""), -1.0, 0.0, 1e-300, 1e300,
                           std::numeric_limits<double>::infinity()};

  bool sawZeroZ = false, sawNonPositiveGain = false, sawSubUnityGain = false, sawNan = false;
  std::size_t cases = 0;
  for (const auto& s : twoStageStructures()) {
    const auto vars = s.variables();
    std::size_t ccIndex = 0;
    while (vars[ccIndex].name != "cc") ++ccIndex;
    num::Rng rng(0xad0000u + cases);
    for (const auto& pr : procs) {
      const sz::ComposedOpampModel model(s, pr, kLoadCap);
      std::vector<std::vector<double>> xs;
      for (int k = 0; k < 8; ++k) {
        auto x = uniformInBox(vars, rng);
        xs.push_back(x);
        x[ccIndex] = vars[ccIndex].lo;  // compensation capacitor at its bounds
        xs.push_back(x);
        x[ccIndex] = vars[ccIndex].hi;
        xs.push_back(x);
      }
      const auto mid = model.initialPoint();
      for (std::size_t i = 0; i < vars.size(); ++i)
        for (const double v : kSubst) {
          auto x = mid;
          x[i] = v;
          xs.push_back(x);
        }
      for (const auto& x : xs) {
        const auto r = ref::composedTwoStageUgf(s, pr, kLoadCap, x, pr);
        const auto why = ugfMismatch(s, model.evaluate(x), r, x);
        ASSERT_EQ(why, "");
        sawZeroZ |= s.comp == sz::Compensation::Miller && r.z == 0.0;
        sawNonPositiveGain |= r.av0 <= 0.0;
        sawSubUnityGain |= r.av0 > 0.0 && r.av0 <= 1.0;
        sawNan |= std::isnan(r.ugf);
        ++cases;
      }
    }
  }
  // The adversarial set really reached every regime it is meant to cover.
  EXPECT_TRUE(sawZeroZ);
  EXPECT_TRUE(sawNonPositiveGain);
  EXPECT_TRUE(sawSubUnityGain);
  EXPECT_TRUE(sawNan);
  EXPECT_GT(cases, 10'000u);
}
