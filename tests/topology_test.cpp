#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "topology/genetic.hpp"
#include "topology/joint.hpp"
#include "topology/library.hpp"
#include "topology/select.hpp"

namespace tp = amsyn::topology;
namespace sz = amsyn::sizing;
namespace ckt = amsyn::circuit;

namespace {
const ckt::Process& proc() { return ckt::defaultProcess(); }

// Pinned to the Legacy space: this suite asserts hand-written-library facts
// (entry count, winners, bounds).  The generated composition space has its
// own suite in composed_topology_test.cpp.
const tp::TopologyLibrary& lib() {
  static const tp::TopologyLibrary l =
      tp::amplifierLibrary(proc(), 5e-12, tp::TopologySpace::Legacy);
  return l;
}

sz::SpecSet highGainSpecs() {
  sz::SpecSet s;
  s.atLeast("gain_db", 70.0).atLeast("ugf", 3e6).atLeast("pm", 55.0).minimize("power", 0.5,
                                                                              1e-3);
  return s;
}

sz::SpecSet lowGainFastSpecs() {
  sz::SpecSet s;
  s.atLeast("gain_db", 35.0).atLeast("ugf", 3e7).minimize("power", 1.0, 1e-3);
  return s;
}
}  // namespace

TEST(Library, HasBothAmplifiers) {
  EXPECT_EQ(lib().size(), 2u);
  EXPECT_NO_THROW(lib().byName("five-transistor-ota"));
  EXPECT_NO_THROW(lib().byName("two-stage-miller"));
  EXPECT_THROW(lib().byName("folded-cascode"), std::out_of_range);
}

TEST(Library, BoundsContainKnownAchievablePoints) {
  const auto& ts = lib().byName("two-stage-miller");
  // A mid-box design point's performance must fall inside the bounds.
  const auto perf = ts.model->evaluate(ts.model->initialPoint());
  for (const auto& [k, v] : perf) {
    ASSERT_TRUE(ts.bounds.count(k)) << k;
    EXPECT_TRUE(ts.bounds.at(k).contains(v))
        << k << "=" << v << " not in [" << ts.bounds.at(k).lo() << ", "
        << ts.bounds.at(k).hi() << "]";
  }
}

TEST(RuleBased, PrefersTwoStageForHighGain) {
  const auto ranked = tp::ruleBasedSelect(lib(), highGainSpecs());
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].name, "two-stage-miller");
  EXPECT_FALSE(ranked[0].reasons.empty());
}

TEST(RuleBased, PrefersOtaForLowGainFast) {
  const auto ranked = tp::ruleBasedSelect(lib(), lowGainFastSpecs());
  EXPECT_EQ(ranked[0].name, "five-transistor-ota");
}

TEST(IntervalCheck, RejectsOtaForHighGain) {
  // 70 dB is provably outside the single-stage OTA's achievable gain range.
  const auto verdicts = tp::intervalSelect(lib(), highGainSpecs());
  bool otaRejected = false;
  for (const auto& c : verdicts)
    if (c.name == "five-transistor-ota") otaRejected = !c.feasible;
  EXPECT_TRUE(otaRejected);
}

TEST(IntervalCheck, KeepsBothForModestSpecs) {
  sz::SpecSet s;
  s.atLeast("gain_db", 35.0).atLeast("ugf", 1e6);
  const auto verdicts = tp::intervalSelect(lib(), s);
  for (const auto& c : verdicts) EXPECT_TRUE(c.feasible) << c.name;
}

TEST(IntervalCheck, RejectsImpossibleSpecEverywhere) {
  sz::SpecSet s;
  s.atLeast("gain_db", 300.0);  // beyond any amplifier here
  const auto verdicts = tp::intervalSelect(lib(), s);
  for (const auto& c : verdicts) EXPECT_FALSE(c.feasible) << c.name;
}

TEST(SelectAndSize, PicksAndSizesTwoStageForHighGain) {
  sz::SynthesisOptions opts;
  opts.seed = 7;
  const auto res = tp::selectAndSize(lib(), highGainSpecs(), opts);
  ASSERT_TRUE(res.success);
  EXPECT_EQ(res.topology, "two-stage-miller");
  EXPECT_TRUE(res.sizing.feasible);
  EXPECT_GE(res.sizing.performance.at("gain_db"), 70.0 - 0.1);
  // The OTA must not even have been attempted (interval-rejected).
  for (const auto& c : res.consideredOrder) EXPECT_NE(c.name, "five-transistor-ota");
}

TEST(Genetic, ConvergesToFeasibleDesign) {
  tp::GeneticOptions opts;
  opts.seed = 13;
  const auto res = tp::geneticSelectAndSize(lib(), highGainSpecs(), opts);
  EXPECT_TRUE(res.feasible) << "best cost " << res.cost;
  EXPECT_EQ(res.topology, "two-stage-miller");
  EXPECT_GT(res.evaluations, 100u);
}

TEST(Genetic, PopulationMigratesToWinningTopology) {
  tp::GeneticOptions opts;
  opts.seed = 17;
  const auto res = tp::geneticSelectAndSize(lib(), highGainSpecs(), opts);
  // Selection pressure: most of the final population sits on the topology
  // that can actually meet the specs.
  ASSERT_TRUE(res.populationShare.count("two-stage-miller"));
  EXPECT_GT(res.populationShare.at("two-stage-miller"), 0.5);
}

TEST(Joint, AnnealerFindsFeasibleTopologyAndSizing) {
  tp::JointOptions opts;
  opts.seed = 23;
  const auto res = tp::jointSelectAndSize(lib(), highGainSpecs(), opts);
  EXPECT_TRUE(res.feasible) << "cost " << res.cost;
  EXPECT_EQ(res.topology, "two-stage-miller");
}

TEST(Library, ByNameMissReportsAvailableNames) {
  try {
    lib().byName("folded-cascode");
    FAIL() << "byName should have thrown";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("folded-cascode"), std::string::npos) << msg;
    EXPECT_NE(msg.find("five-transistor-ota"), std::string::npos) << msg;
    EXPECT_NE(msg.find("two-stage-miller"), std::string::npos) << msg;
  }
}

TEST(Library, AddRejectsDuplicateNames) {
  tp::TopologyLibrary l;
  tp::TopologyEntry e;
  e.name = "dup";
  l.add(e);
  EXPECT_THROW(l.add(e), std::invalid_argument);
  EXPECT_EQ(l.size(), 1u);
}

namespace {
// One linear variable sweeping three performance shapes: strictly positive
// (power-like, 5 decades), sign-crossing (pm-like), and floored at zero
// (swing-like).  Exercises every branch of the widening fix.
class SpanModel : public sz::PerformanceModel {
 public:
  const std::vector<sz::DesignVariable>& variables() const override {
    static const std::vector<sz::DesignVariable> vars = {{"t", 0.0, 1.0, false}};
    return vars;
  }
  sz::Performance evaluate(const std::vector<double>& x) const override {
    const double t = x.at(0);
    return {{"power", 1e-5 + t * (1e-3 - 1e-5)},
            {"pm", -10.0 + 60.0 * t},
            {"swing", 2.0 * t}};
  }
};
}  // namespace

TEST(Bounds, WideningNeverDrivesPositiveQuantitiesNegative) {
  // Regression: midpoint widening used to push the lower bound of a
  // strictly-positive hull ([1e-5, 1e-3] here: mid - 1.15*half < 0)
  // negative, poisoning feasibility margins.
  const auto b = tp::boundsBySampling(SpanModel{}, 3, 1.15);
  EXPECT_GT(b.at("power").lo(), 0.0);
  EXPECT_LT(b.at("power").lo(), 1e-5);   // still widened downward
  EXPECT_GT(b.at("power").hi(), 1e-3);   // and upward
  // Sign-crossing hulls keep the linear widening in both directions.
  EXPECT_LT(b.at("pm").lo(), -10.0);
  EXPECT_GT(b.at("pm").hi(), 50.0);
  // A hull floored at zero clamps there instead of going negative.
  EXPECT_DOUBLE_EQ(b.at("swing").lo(), 0.0);
  EXPECT_GT(b.at("swing").hi(), 2.0);
}

TEST(Bounds, ZeroGridThrowsInsteadOfLooping) {
  // A zero count never wraps the grid counter: the walk would never end.
  EXPECT_THROW(tp::boundsBySampling(SpanModel{}, 0), std::invalid_argument);
}

TEST(Bounds, WidenBelowOneOrNotFiniteThrows) {
  // Such a widen would shrink the hull below the points it must contain.
  for (const double widen : {0.5, -1.0, std::nan(""), std::numeric_limits<double>::infinity()})
    EXPECT_THROW(tp::boundsBySampling(SpanModel{}, 3, widen), std::invalid_argument) << widen;
  EXPECT_NO_THROW(tp::boundsBySampling(SpanModel{}, 3, 1.0));
}

TEST(Bounds, LegacyLibraryBoundsAreSane) {
  for (const auto& e : lib().entries()) {
    for (const char* perf : {"power", "ugf", "area", "noise_nv"}) {
      ASSERT_TRUE(e.bounds.count(perf)) << e.name << " " << perf;
      EXPECT_GT(e.bounds.at(perf).lo(), 0.0) << e.name << " " << perf;
    }
    EXPECT_GE(e.bounds.at("swing").lo(), 0.0) << e.name;
  }
}

TEST(RuleBased, AggregatesAllSpecsOnOnePerformance) {
  // Regression: the rule lambdas used to return on the *first* matching
  // spec, so a second bound on the same performance scored nothing.
  sz::SpecSet one;
  one.atLeast("gain_db", 70.0);
  sz::SpecSet two;
  two.atLeast("gain_db", 70.0).atLeast("gain_db", 80.0);
  auto scoreOf = [](const std::vector<tp::Candidate>& ranked, const std::string& name) {
    for (const auto& c : ranked)
      if (c.name == name) return c.score;
    ADD_FAILURE() << name << " missing from ranking";
    return 0.0;
  };
  const auto r1 = tp::ruleBasedSelect(lib(), one);
  const auto r2 = tp::ruleBasedSelect(lib(), two);
  // The second high-gain bound contributes its own +3 (two-stage) / -3 (OTA).
  EXPECT_DOUBLE_EQ(scoreOf(r2, "two-stage-miller") - scoreOf(r1, "two-stage-miller"), 3.0);
  EXPECT_DOUBLE_EQ(scoreOf(r2, "five-transistor-ota") - scoreOf(r1, "five-transistor-ota"),
                   -3.0);
}

TEST(Joint, LowGainSpecsCanKeepTheOta) {
  tp::JointOptions opts;
  opts.seed = 29;
  const auto res = tp::jointSelectAndSize(lib(), lowGainFastSpecs(), opts);
  EXPECT_TRUE(res.feasible);
  // Either topology can meet these specs; the result must at least be valid.
  EXPECT_GE(res.performance.at("gain_db"), 35.0 * 0.999);
}
