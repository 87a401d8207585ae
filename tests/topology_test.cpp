#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "bit_digest.hpp"
#include "sizing/eqmodel.hpp"
#include "topology/genetic.hpp"
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

namespace {
/// Forwards to a model but hides its slot path, so boundsBySampling folds
/// every sample by name; with `every` > 0 it keeps the slot path on every
/// `every`-th evaluation, so one walk mixes both folds.  Serial use only.
class SlotHidingModel : public sz::PerformanceModel {
 public:
  SlotHidingModel(const sz::PerformanceModel& inner, std::size_t every)
      : inner_(inner), every_(every) {}
  const std::vector<sz::DesignVariable>& variables() const override {
    return inner_.variables();
  }
  sz::Performance evaluate(const std::vector<double>& x) const override {
    return inner_.evaluate(x);
  }
  bool evaluateAmplifier(const std::vector<double>& x, sz::AmplifierValues& out) const override {
    if (every_ == 0 || calls_++ % every_ != 0) return false;
    return inner_.evaluateAmplifier(x, out);
  }

 private:
  const sz::PerformanceModel& inner_;
  std::size_t every_;
  mutable std::size_t calls_ = 0;
};

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Empty when both carry the same names and bit-identical intervals.
std::string boundsMismatch(const tp::FeasibilityBounds& got, const tp::FeasibilityBounds& want) {
  if (got.size() != want.size())
    return std::to_string(got.size()) + " bounds vs " + std::to_string(want.size());
  for (auto a = got.begin(), b = want.begin(); a != got.end(); ++a, ++b)
    if (a->first != b->first || !sameBits(a->second.lo(), b->second.lo()) ||
        !sameBits(a->second.hi(), b->second.hi()))
      return a->first + " vs " + b->first;
  return {};
}

/// One-variable slot model whose ugf slot is NaN at the first grid point
/// (t = 0) and whose gain slot is NaN at the last one (t = 1).
class LateNanSlotModel : public sz::PerformanceModel {
 public:
  const std::vector<sz::DesignVariable>& variables() const override { return vars_; }
  sz::Performance evaluate(const std::vector<double>& x) const override {
    sz::AmplifierValues v{};
    evaluateAmplifier(x, v);
    return sz::amplifierPerformance(v);
  }
  bool evaluateAmplifier(const std::vector<double>& x, sz::AmplifierValues& out) const override {
    const double t = x.at(0), nan = std::numeric_limits<double>::quiet_NaN();
    out = {1e-9 + t * 1e-9, t == 1.0 ? nan : 40.0 + 20.0 * t, 20.0, 60.0, 1e-3, 1e6, 2.0,
           t == 0.0 ? nan : 1e6 + t * 1e6};
    return true;
  }

 private:
  std::vector<sz::DesignVariable> vars_{{"t", 0.0, 1.0, false}};
};
}  // namespace

TEST(Bounds, SlotAndByNameFoldsAgree) {
  // boundsBySampling folds a slot model's samples through one pointer per
  // slot and any other model's by name.  Both, and a walk mixing them, must
  // give the same bounds bit for bit: for every composed structure at the
  // nominal process and at processes whose samples go NaN or infinite.
  std::vector<ckt::Process> procs(3, proc());
  procs[1].kpP = 0.0;  // dead load device
  procs[2].lambdaN = procs[2].lambdaP = 1e4;
  std::size_t nanBounds = 0;
  for (const auto& s : sz::enumerateOpampStructures()) {
    for (const auto& pr : procs) {
      const sz::ComposedOpampModel model(s, pr, 5e-12);
      const std::size_t grid = model.dimension() <= 7 ? 3 : 2;
      const auto direct = tp::boundsBySampling(model, grid);
      for (const std::size_t every : {0u, 3u}) {
        const SlotHidingModel hidden(model, every);
        EXPECT_EQ(boundsMismatch(tp::boundsBySampling(hidden, grid), direct), "")
            << s.name() << ", slot path on every " << every << "th sample";
      }
      for (const auto& [name, b] : direct) nanBounds += std::isnan(b.lo()) || std::isnan(b.hi());
    }
  }
  EXPECT_GT(nanBounds, 0u);  // the poisoned processes reached the NaN folds

  // The hull's NaN rule, on either fold: a NaN first sample sticks, a NaN
  // after a number is dropped.
  const LateNanSlotModel late;
  const auto direct = tp::boundsBySampling(late, 3, 1.0);
  EXPECT_TRUE(std::isnan(direct.at("ugf").lo()));
  EXPECT_DOUBLE_EQ(direct.at("gain_db").lo(), 40.0);
  EXPECT_DOUBLE_EQ(direct.at("gain_db").hi(), 50.0);
  EXPECT_EQ(boundsMismatch(tp::boundsBySampling(SlotHidingModel(late, 0), 3, 1.0), direct), "");
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

// Raw bits of a DARWIN run at the default rates: winner, design point,
// performances, cost, evaluation count and the final population shares.
TEST(EvalGoldens, GeneticSelectAndSizeAtSeed13) {
  tp::GeneticOptions opts;
  opts.seed = 13;
  const auto res = tp::geneticSelectAndSize(lib(), highGainSpecs(), opts);
  amsyn::testutil::BitDigest d;
  d.u64(res.feasible).str(res.topology).reals(res.x).real(res.cost).u64(res.evaluations);
  for (const auto& [name, value] : res.performance) d.str(name).real(value);
  for (const auto& [name, share] : res.populationShare) d.str(name).real(share);
  EXPECT_EQ(d.hex(), "0x129034c0848f95e2");
}
