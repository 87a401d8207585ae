// Property + differential suite for the composed topology space
// (sizing/blocks.hpp, sizing/eqmodel.hpp, topology/library.hpp):
//   * the composed space is large enough, valid, uniquely named, and every
//     library entry carries its structure and derived bounds;
//   * cold library builds keep raw-bit-pinned bounds at any pool width;
//   * the two legacy cells are reproduced as composition instances with
//     *bit-identical* models, corner model, bounds and netlists
//     (differential against the test-only hand-written reference in
//     tests/reference/: OtaEquationModel / TwoStageEquationModel,
//     evaluateTwoStageGeometry, buildOta / buildTwoStageOpamp);
//   * every two-stage structure's unity-gain solve matches the plain
//     80-step bisection bit for bit (tests/reference/composed_ugf.*), and
//     so does every lane of the lock-step corner batch;
//   * every generated topology builds a sane netlist, and rebuilding it at
//     the same point reproduces it exactly;
//   * selection over the space — boundary, rule-based, and genetic — is
//     bit-identical across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
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
#include "sizing/eqmodel.hpp"
#include "reference/composed_ugf.hpp"
#include "reference/handwritten_opamp.hpp"
#include "sizing/blocks.hpp"
#include "sizing/opamp.hpp"
#include "sizing/ugf_detail.hpp"
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
  for (const auto& e : lib.entries()) {
    // The entry's structure is its identity and builds its netlist.
    EXPECT_EQ(e.structure.name(), e.name);
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
  for (const auto& e : genLib().entries()) {
    const auto x = e.model->initialPoint();
    const auto net = sz::buildComposedOpamp(e.structure, x, proc(), tb);

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
  for (const auto& e : genLib().entries()) {
    const auto x = e.model->initialPoint();
    expectSameDevices(sz::buildComposedOpamp(e.structure, x, proc(), tb),
                      sz::buildComposedOpamp(e.structure, x, proc(), tb), e.name);
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

TEST(GeneratedSelection, GeneticIsBitIdenticalAcrossPoolWidths) {
  sz::SpecSet specs;
  specs.atLeast("gain_db", 65.0).atLeast("ugf", 2e6).atLeast("pm", 50.0).minimize("power",
                                                                                  0.5, 1e-3);
  auto run = [&](std::size_t workers) {
    core::ScopedThreadPool pool(workers);
    tp::GeneticOptions opts;
    opts.seed = 41;
    opts.populationSize = 24;
    opts.generations = 12;
    return tp::geneticSelectAndSize(genLib(), specs, opts);
  };
  const auto base = run(0);  // the caller alone
  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    const auto r = run(workers);
    EXPECT_EQ(r.topology, base.topology) << workers;
    EXPECT_TRUE(bitEq(r.cost, base.cost)) << workers;
    ASSERT_EQ(r.x.size(), base.x.size());
    for (std::size_t i = 0; i < r.x.size(); ++i)
      EXPECT_TRUE(bitEq(r.x[i], base.x[i])) << workers << " x" << i;
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
  // Two regimes are where the solve's band certificate must refuse and
  // fall back to the exact test on every step, so a wrong certificate
  // would break bit-identity there: a zero at or below the dominant pole
  // (|H| need not fall monotonically; with a dc gain below one it can
  // rise through unity and fall back), and a magnitude that overflows at
  // the bisection's 1e13 Hz end.
  std::vector<ckt::Process> procs(5, proc());
  procs[1].kpP = 0.0;
  procs[2].kpN = 0.0;
  procs[3].kpP = procs[3].kpN = 1e-300;
  procs[4].lambdaN = procs[4].lambdaP = 1e4;
  // Single-coordinate substitutions that overflow, underflow or poison.
  const double kSubst[] = {std::nan(""), -1.0, 0.0, 1e-300, 1e300,
                           std::numeric_limits<double>::infinity()};

  bool sawZeroZ = false, sawNonPositiveGain = false, sawSubUnityGain = false, sawNan = false;
  bool sawZeroBelowPole = false, sawCeilingOverflow = false, sawRiseThroughUnity = false;
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
      // A nulled zero swept far below the dominant pole, with the
      // compensation capacitor raised to spread the poles: under a dc gain
      // below one, |H| then rises through unity past the zero and falls
      // back through it, so it has two crossings.
      if (s.comp == sz::Compensation::MillerNulled) {
        std::size_t rzkIndex = 0;
        while (vars[rzkIndex].name != "rzk") ++rzkIndex;
        for (const double ccScale : {10.0, 1e3})
          for (int e = 0; e <= 80; ++e) {
            auto x = mid;
            x[ccIndex] *= ccScale;
            x[rzkIndex] = 1.0 + std::pow(10.0, e / 8.0);
            xs.push_back(x);
          }
      }
      for (const auto& x : xs) {
        const auto r = ref::composedTwoStageUgf(s, pr, kLoadCap, x, pr);
        const auto why = ugfMismatch(s, model.evaluate(x), r, x);
        ASSERT_EQ(why, "");
        sawZeroZ |= s.comp == sz::Compensation::Miller && r.z == 0.0;
        sawNonPositiveGain |= r.av0 <= 0.0;
        sawSubUnityGain |= r.av0 > 0.0 && r.av0 <= 1.0;
        sawNan |= std::isnan(r.ugf);
        // Both refusal regimes, on points whose loop otherwise has a
        // crossing to find (a dc gain above one and a finite result).
        const bool ordinary = r.av0 > 1.0 && std::isfinite(r.ugf);
        sawZeroBelowPole |= ordinary && r.zeroHz <= std::abs(r.p1);
        sawCeilingOverflow |= ordinary && !std::isfinite(r.ceilingMagnitude);
        // Below unity at dc, yet the bisection found a crossing well above
        // p1: |H| rose through unity past a zero below the pole.
        sawRiseThroughUnity |= r.av0 < 1.0 && r.zeroHz <= std::abs(r.p1) && r.ugf > 2.0 * r.p1;
        ++cases;
      }
    }
  }
  // The adversarial set really reached every regime it is meant to cover.
  EXPECT_TRUE(sawZeroZ);
  EXPECT_TRUE(sawNonPositiveGain);
  EXPECT_TRUE(sawSubUnityGain);
  EXPECT_TRUE(sawNan);
  EXPECT_TRUE(sawZeroBelowPole);
  EXPECT_TRUE(sawCeilingOverflow);
  EXPECT_TRUE(sawRiseThroughUnity);
  EXPECT_GT(cases, 10'000u);
}

TEST(UgfDifferential, WrongCrossingEstimatesMatchThePlainBisectionBitForBit) {
  // The band certified around a crossing estimate decides the bisection's
  // steps outside it, so however wrong the estimate, each such decision
  // must be the exact test's.  Each solve gets estimates far above and far
  // below the crossing, off by more than the band's first widths, at the
  // bracket ends (p1 and 1e13), non-finite, and swept one ulp at a time
  // across the crossing, so each band edge lands on either side of it at
  // every distance the certificate's margin has to cover.  A compensation
  // capacitor raised far past its bound pushes the crossing down to where
  // f^2 is subnormal, so a band edge's square no longer round-trips through
  // the sqrt.
  namespace ud = sz::ugf_detail;
  std::vector<ckt::Process> procs(5, proc());
  procs[1].kpP = 0.0;
  procs[2].lambdaN = procs[2].lambdaP = 1e4;
  procs[3] = mf::VariationSpace{}.apply(proc(), {1, 0, 1, 0, 1, 0});
  procs[4] = mf::VariationSpace{}.apply(proc(), {0, 1, 0, 1, 0, 1});
  constexpr int kSweepUlps = 96;
  struct Tally {
    std::string mismatch;
    std::size_t solves = 0, certifiedWrong = 0, openLow = 0;
  };
  const auto structs = twoStageStructures();
  const auto tallies = core::parallelMap(structs.size(), [&](std::size_t i) {
    const auto& s = structs[i];
    Tally tally;
    num::Rng rng(0xe57000u + i);
    for (const auto& pr : procs) {
      const sz::ComposedOpampModel model(s, pr, kLoadCap);
      std::vector<std::vector<double>> xs{model.initialPoint()};
      for (int p = 0; p < 10; ++p) xs.push_back(uniformInBox(model.variables(), rng));
      const auto seeded = xs.back();
      xs.push_back(seeded);
      xs.back().front() = std::nan("");
      std::size_t ccIndex = 0;
      while (model.variables()[ccIndex].name != "cc") ++ccIndex;
      for (const double cc : {1e150, 1e155}) {
        xs.push_back(seeded);
        xs.back()[ccIndex] = cc;
      }
      for (const auto& x : xs) {
        const auto r = ref::composedTwoStageUgf(s, pr, kLoadCap, x, pr);
        const auto t = ud::twoStageTerms(s, pr, kLoadCap, sz::composedGeometryFor(s, x, pr));
        const double u = r.ugf;
        std::vector<double> estimates{u * 1e3,         u * 1e-3,    u * (1 + 1e-7),
                                      u * (1 - 1e-7),  u * (1 + 1e-11), u * (1 - 1e-11),
                                      t.p1,            1e13,        0.0,
                                      std::nan(""),    HUGE_VAL};
        if (std::isfinite(u) && u > 0.0) {
          double below = u, above = u;
          for (int k = 0; k < kSweepUlps; ++k) {
            below = std::nextafter(below, 0.0);
            above = std::nextafter(above, HUGE_VAL);
            estimates.push_back(below);
            estimates.push_back(above);
          }
        }
        const double own = ud::crossingEstimate(t);
        for (const double e : estimates) {
          const auto band = ud::certifiedBand(t, e);
          const double got = ud::solveUgf(t, band);
          ++tally.solves;
          if (!sameBits(got, u) && tally.mismatch.empty()) {
            std::ostringstream os;
            os.precision(17);
            os << s.name() << ": ugf " << got << " vs " << u << " at estimate " << e;
            tally.mismatch = os.str();
          }
          const bool certified = band.loSq != -HUGE_VAL || band.hiSq != HUGE_VAL;
          tally.certifiedWrong += certified && e != own;
          tally.openLow += certified && band.loSq == -HUGE_VAL;
        }
      }
    }
    return tally;
  });
  Tally total;
  for (const auto& t : tallies) {
    EXPECT_EQ(t.mismatch, "");
    total.solves += t.solves;
    total.certifiedWrong += t.certifiedWrong;
    total.openLow += t.openLow;
  }
  // Wrong estimates did certify bands, some open at the bracket's low end.
  EXPECT_GT(total.certifiedWrong, total.solves / 4);
  EXPECT_GT(total.openLow, 0u);
}

// ---------------------------------------------------------------------------
// Lock-step lanes: sz::TwoStageCornerBatch solves several corner models'
// crossings together.  Every lane must equal its own model's evaluate() in
// every performance and the plain 80-step bisection's ugf and pm, bit for
// bit: at the corner-hunt vertices in sets of two and three, with
// degenerate lanes beside normal ones, with lanes that stop at different
// steps, and in sets larger than three.

namespace {

/// Two-stage corner models at `corners`, geometry at the nominal process.
struct LaneSet {
  std::vector<ckt::Process> corners;
  std::vector<std::unique_ptr<sz::PerformanceModel>> models;
  std::vector<const sz::PerformanceModel*> lanes;

  explicit LaneSet(std::vector<ckt::Process> cs) : corners(std::move(cs)) {
    for (const auto& c : corners) {
      models.push_back(sz::makeTwoStageCornerModel(c, proc(), kLoadCap));
      lanes.push_back(models.back().get());
    }
  }
};

ckt::Process vertexProcess(std::size_t mask) {
  std::vector<double> c(mf::VariationSpace::kDims);
  for (std::size_t d = 0; d < c.size(); ++d) c[d] = (mask >> d) & 1 ? 1.0 : 0.0;
  return mf::VariationSpace{}.apply(proc(), c);
}

/// Empty when every lane of the set's batch at x matches its own model and
/// the plain bisection bit for bit; otherwise the first difference.  The
/// plain solves land in `solves`, lane by lane, when it is given.
std::string laneMismatch(const LaneSet& set, const std::vector<double>& x,
                         std::vector<ref::UgfSolve>* solves = nullptr) {
  const auto batch = sz::TwoStageCornerBatch::of(set.lanes);
  if (!batch) return "the corner models formed no batch";
  std::vector<sz::AmplifierValues> values(set.lanes.size());
  batch->evaluate(x, values);
  const auto s = sz::OpampStructure::legacyTwoStage();
  for (std::size_t k = 0; k < values.size(); ++k) {
    const std::string lane =
        "lane " + std::to_string(k) + " of " + std::to_string(values.size()) + ": ";
    const auto own = set.models[k]->evaluate(x);
    const auto perf = sz::amplifierPerformance(values[k]);
    if (own.size() != perf.size()) return lane + "payload size differs";
    for (auto a = own.begin(), b = perf.begin(); a != own.end(); ++a, ++b)
      if (a->first != b->first || !sameBits(a->second, b->second))
        return lane + a->first + " differs from the model's own evaluation";
    const auto r = ref::composedTwoStageUgf(s, set.corners[k], kLoadCap, x, proc());
    if (auto why = ugfMismatch(s, perf, r, x); !why.empty()) return lane + why;
    if (solves) solves->push_back(r);
  }
  return {};
}

}  // namespace

TEST(UgfLanes, CornerVertexSetsOfTwoAndThreeMatchThePlainBisection) {
  const LaneSet nominalOnly({proc()});
  const auto& vars = nominalOnly.models.front()->variables();
  num::Rng rng(0x1a4e0000u);
  std::size_t sets = 0;
  for (const std::size_t k : {2u, 3u}) {
    for (std::size_t mask = 0; mask < 64; ++mask) {
      std::vector<ckt::Process> corners;
      for (std::size_t lane = 0; lane < k; ++lane)
        corners.push_back(vertexProcess((mask + 21 * lane) % 64));
      const LaneSet set(corners);
      for (int p = 0; p < 300; ++p) {
        const auto x = uniformInBox(vars, rng);
        ASSERT_EQ(laneMismatch(set, x), "") << "vertex " << mask;
        ++sets;
      }
    }
  }
  EXPECT_EQ(sets, 2u * 64u * 300u);
}

TEST(UgfLanes, DegenerateLanesBesideNormalLanesMatchThePlainBisection) {
  // Electrical processes that push one lane into a degenerate regime while
  // its neighbours solve normally: a dead load device (gm6 = 0, so z = 0
  // and av0 = 0, which the filter cannot take), a dead input device, a
  // vanishing pair, channel-length modulation so strong that the dc gain
  // falls to one or below, and a NaN process parameter.
  std::vector<ckt::Process> degenerate(5, proc());
  degenerate[0].kpP = 0.0;
  degenerate[1].kpN = 0.0;
  degenerate[2].kpP = degenerate[2].kpN = 1e-300;
  degenerate[3].lambdaN = degenerate[3].lambdaP = 1e4;
  degenerate[4].kpN = std::nan("");
  const std::vector<ckt::Process> normal{proc(), vertexProcess(0), vertexProcess(63)};
  const auto vars = sz::OpampStructure::legacyTwoStage().variables();
  std::size_t ccIndex = 0;
  while (vars[ccIndex].name != "cc") ++ccIndex;

  // Seeded points, the compensation capacitor at its bounds, and
  // single-coordinate substitutions that poison every lane at once.
  num::Rng rng(0xde9e0000u);
  std::vector<std::vector<double>> xs;
  for (int p = 0; p < 20; ++p) {
    auto x = uniformInBox(vars, rng);
    xs.push_back(x);
    x[ccIndex] = vars[ccIndex].lo;
    xs.push_back(x);
    x[ccIndex] = vars[ccIndex].hi;
    xs.push_back(x);
  }
  const auto mid = LaneSet({proc()}).models.front()->initialPoint();
  for (std::size_t i = 0; i < vars.size(); ++i)
    for (const double v : {std::nan(""), 0.0, 1e-300, 1e300}) {
      auto x = mid;
      x[i] = v;
      xs.push_back(x);
    }

  bool sawZeroZ = false, sawNonPositiveGain = false, sawSubUnityGain = false, sawNan = false;
  std::size_t cases = 0;
  for (const auto& bad : degenerate) {
    for (const auto& good : normal) {
      // The degenerate lane in every position, alone and doubled.
      const std::vector<std::vector<ckt::Process>> sets{
          {bad, good},       {good, bad},       {bad, good, good}, {good, bad, good},
          {good, good, bad}, {bad, bad, good},  {good, bad, bad}};
      for (const auto& corners : sets) {
        const LaneSet set(corners);
        for (const auto& x : xs) {
          std::vector<ref::UgfSolve> solves;
          ASSERT_EQ(laneMismatch(set, x, &solves), "");
          for (const auto& r : solves) {
            sawZeroZ |= r.z == 0.0;
            sawNonPositiveGain |= r.av0 <= 0.0;
            sawSubUnityGain |= r.av0 > 0.0 && r.av0 <= 1.0;
            sawNan |= std::isnan(r.ugf);
          }
          ++cases;
        }
      }
    }
  }
  // The degenerate lanes really reached every regime they are meant to.
  EXPECT_TRUE(sawZeroZ);
  EXPECT_TRUE(sawNonPositiveGain);
  EXPECT_TRUE(sawSubUnityGain);
  EXPECT_TRUE(sawNan);
  EXPECT_EQ(cases, degenerate.size() * normal.size() * 7 * xs.size());
}

TEST(UgfLanes, LanesThatStopAtDifferentStepsMatchThePlainBisection) {
  // For each seeded design, the vertex whose plain bisection reaches its
  // fixed point first and the one that reaches it last share a set (with
  // the nominal process, and with a NaN lane that stops almost at once):
  // a lane that has stopped must hold its (lo, hi) while its neighbours
  // keep bisecting.
  const auto vars = sz::OpampStructure::legacyTwoStage().variables();
  const auto s = sz::OpampStructure::legacyTwoStage();
  ckt::Process poisoned = proc();
  poisoned.kpP = std::nan("");
  num::Rng rng(0x5e790000u);
  std::size_t spread = 0, sets = 0;
  int widest = 0;
  for (int p = 0; p < 400; ++p) {
    const auto x = uniformInBox(vars, rng);
    std::size_t first = 0, last = 0;
    int firstStep = 81, lastStep = -1;
    for (std::size_t mask = 0; mask < 64; ++mask) {
      const int step =
          ref::composedTwoStageUgf(s, vertexProcess(mask), kLoadCap, x, proc()).fixedPointStep;
      if (step < firstStep) firstStep = step, first = mask;
      if (step > lastStep) lastStep = step, last = mask;
    }
    for (const auto& corners : std::vector<std::vector<ckt::Process>>{
             {vertexProcess(first), vertexProcess(last)},
             {vertexProcess(last), vertexProcess(first)},
             {vertexProcess(first), proc(), vertexProcess(last)},
             {poisoned, vertexProcess(last), vertexProcess(first)}}) {
      std::vector<ref::UgfSolve> solves;
      ASSERT_EQ(laneMismatch(LaneSet(corners), x, &solves), "");
      const auto [lo, hi] = std::minmax_element(
          solves.begin(), solves.end(), [](const ref::UgfSolve& a, const ref::UgfSolve& b) {
            return a.fixedPointStep < b.fixedPointStep;
          });
      const int gap = hi->fixedPointStep - lo->fixedPointStep;
      spread += gap > 0;
      widest = std::max(widest, gap);
      ++sets;
    }
  }
  // Nearly every set mixed lanes that stop at different steps.
  EXPECT_GT(spread, sets * 9 / 10);
  EXPECT_GE(widest, 10);
}

TEST(UgfLanes, SetsLargerThanThreeGoInGroupsThatMatchThePlainBisection) {
  // Four to seven lanes (a group of three plus a pair or a lone lane on
  // the serial solve) and all 64 vertices at once.
  const auto vars = sz::OpampStructure::legacyTwoStage().variables();
  num::Rng rng(0x1a7e0000u);
  std::vector<ckt::Process> all;
  for (std::size_t mask = 0; mask < 64; ++mask) all.push_back(vertexProcess(mask));
  for (const std::size_t n : {4u, 5u, 6u, 7u, 64u}) {
    SCOPED_TRACE(n);
    for (std::size_t start = 0; start < 64; start += 8) {
      std::vector<ckt::Process> corners;
      for (std::size_t k = 0; k < n; ++k) corners.push_back(all[(start + 5 * k) % 64]);
      const LaneSet set(corners);
      for (int p = 0; p < 20; ++p) ASSERT_EQ(laneMismatch(set, uniformInBox(vars, rng)), "");
    }
  }
}

TEST(UgfLanes, BatchFormsOnlyOverTwoStageCornerModelsOfOneNominal) {
  // The batch shares one geometry, so it must refuse a model it cannot
  // evaluate that way: a plain composed model, or a corner model whose
  // nominal (geometry) process differs.
  const LaneSet same({proc(), vertexProcess(5)});
  EXPECT_TRUE(sz::TwoStageCornerBatch::of(same.lanes).has_value());
  EXPECT_FALSE(sz::TwoStageCornerBatch::of({}).has_value());

  const sz::ComposedOpampModel plain(sz::OpampStructure::legacyTwoStage(), proc(), kLoadCap);
  std::vector<const sz::PerformanceModel*> mixed = same.lanes;
  mixed.push_back(&plain);
  EXPECT_FALSE(sz::TwoStageCornerBatch::of(mixed).has_value());

  ckt::Process otherNominal = proc();
  otherNominal.kpN *= 1.01;
  const auto shifted = sz::makeTwoStageCornerModel(proc(), otherNominal, kLoadCap);
  std::vector<const sz::PerformanceModel*> twoNominals = same.lanes;
  twoNominals.push_back(shifted.get());
  EXPECT_FALSE(sz::TwoStageCornerBatch::of(twoNominals).has_value());

  // A wrong-dimension point throws, as evaluate() does, before any write.
  const auto batch = sz::TwoStageCornerBatch::of(same.lanes);
  std::vector<sz::AmplifierValues> values(2);
  values[0].fill(7.0);
  EXPECT_THROW(batch->evaluate({1.0, 2.0}, values), std::invalid_argument);
  EXPECT_EQ(values[0][0], 7.0);
}
