#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "manufacture/corners.hpp"
#include "manufacture/yield.hpp"
#include "sizing/eqmodel.hpp"
#include "sizing/opamp.hpp"

namespace mf = amsyn::manufacture;
namespace sz = amsyn::sizing;
namespace ckt = amsyn::circuit;

namespace {
const ckt::Process& nominal() { return ckt::defaultProcess(); }

/// The bench_claim_corners (and robust_corners benchmark) spec set.
sz::SpecSet cornerSpecs() {
  sz::SpecSet specs;
  specs.atLeast("gain_db", 66.0)
      .atLeast("ugf", 3e6)
      .atLeast("pm", 50.0)
      .atMost("power", 8e-3)
      .minimize("power", 0.3, 1e-3);
  return specs;
}

std::vector<sz::Spec> constraintsOf(const sz::SpecSet& specs) {
  std::vector<sz::Spec> out;
  for (const auto& spec : specs.specs())
    if (!spec.isObjective()) out.push_back(spec);
  return out;
}

bool bitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

mf::ModelFactory twoStageFactory(double cl = 5e-12) {
  // Corner semantics: the design's geometry is frozen at the nominal
  // process; each corner re-derives currents/overdrives from that geometry.
  return [cl](const ckt::Process& p) {
    return sz::makeTwoStageCornerModel(p, nominal(), cl);
  };
}
}  // namespace

TEST(VariationSpace, MapsUnitCubeToPhysicalRanges) {
  mf::VariationSpace space;
  const auto lo = space.apply(nominal(), {0, 0.5, 0.5, 0.5, 0.5, 0.5});
  const auto hi = space.apply(nominal(), {1, 0.5, 0.5, 0.5, 0.5, 0.5});
  EXPECT_NEAR(lo.vdd, nominal().vdd * 0.9, 1e-9);
  EXPECT_NEAR(hi.vdd, nominal().vdd * 1.1, 1e-9);
  const auto cold = space.apply(nominal(), {0.5, 0.0, 0.5, 0.5, 0.5, 0.5});
  const auto hot = space.apply(nominal(), {0.5, 1.0, 0.5, 0.5, 0.5, 0.5});
  EXPECT_LT(cold.temperature, hot.temperature);
  // Hot silicon is slower: kp drops with temperature.
  EXPECT_GT(cold.kpN, hot.kpN);
}

TEST(WorstCase, GainWorstCornerIsWorseThanNominal) {
  const auto factory = twoStageFactory();
  const sz::ComposedOpampModel model(sz::OpampStructure::legacyTwoStage(), nominal(), 5e-12);
  const auto x = model.initialPoint();
  const double nominalGain = model.evaluate(x).at("gain_db");

  mf::VariationSpace space;
  const sz::Spec spec{"gain_db", sz::SpecKind::GreaterEqual, nominalGain, 1.0, 0.0};
  const auto wc = mf::worstCaseCorner(factory, nominal(), space, x, spec);
  EXPECT_LE(wc.value, nominalGain + 1e-9);
  EXPECT_LE(wc.margin, 1e-9);  // at best equal to nominal
}

TEST(WorstCase, FindsVddCornerForPower) {
  // Power = vdd * I: worst (largest) power is at max vdd and the kp/vt
  // corner maximizing mirror current; the corner must report vdd high.
  const auto factory = twoStageFactory();
  const sz::ComposedOpampModel model(sz::OpampStructure::legacyTwoStage(), nominal(), 5e-12);
  const auto x = model.initialPoint();
  const double nomPower = model.evaluate(x).at("power");
  mf::VariationSpace space;
  const sz::Spec spec{"power", sz::SpecKind::LessEqual, nomPower, 1.0, 0.0};
  const auto wc = mf::worstCaseCorner(factory, nominal(), space, x, spec);
  EXPECT_GT(wc.corner[0], 0.9);  // vdd coordinate pushed high
  EXPECT_GT(wc.value, nomPower);
}

namespace {
/// Forwards to a wrapped model and counts every evaluate() call.
class CountingModel : public sz::PerformanceModel {
 public:
  CountingModel(std::unique_ptr<sz::PerformanceModel> inner, std::atomic<std::size_t>& calls)
      : inner_(std::move(inner)), calls_(calls) {}
  const std::vector<sz::DesignVariable>& variables() const override {
    return inner_->variables();
  }
  sz::Performance evaluate(const std::vector<double>& x) const override {
    calls_.fetch_add(1);
    return inner_->evaluate(x);
  }

 private:
  std::unique_ptr<sz::PerformanceModel> inner_;
  std::atomic<std::size_t>& calls_;
};
}  // namespace

TEST(WorstCase, EvaluationsCountEveryModelCallTheHuntMakes) {
  // Every requested evaluation reaches a model, so the hunt's reported
  // count must equal what the models actually saw: the vertices, however
  // many coordinate-search probes ran, and the final read.
  std::atomic<std::size_t> calls{0};
  const auto inner = twoStageFactory();
  const mf::ModelFactory factory = [&](const ckt::Process& p) {
    return std::make_unique<CountingModel>(inner(p), calls);
  };
  const sz::ComposedOpampModel model(sz::OpampStructure::legacyTwoStage(), nominal(), 5e-12);
  const auto x = model.initialPoint();
  const double nominalGain = model.evaluate(x).at("gain_db");
  for (const sz::Spec& spec :
       {sz::Spec{"gain_db", sz::SpecKind::GreaterEqual, nominalGain, 1.0, 0.0},
        sz::Spec{"pm", sz::SpecKind::GreaterEqual, 60.0, 1.0, 0.0}}) {
    calls = 0;
    const auto wc = mf::worstCaseCorner(factory, nominal(), mf::VariationSpace{}, x, spec);
    EXPECT_EQ(wc.evaluations, calls.load()) << spec.performance;
    EXPECT_GT(wc.evaluations, 64u) << spec.performance;  // vertices + refinement
  }
}

TEST(RobustSynthesis, BilledEvaluationsEqualTheModelCallsMade) {
  // robustEvaluations is the paper's 4x-10x premium as a count, so every
  // evaluation it bills must be one a model made: the nominal run, every
  // round's hunts and re-synthesis, and any audit hunt.
  std::atomic<std::size_t> calls{0};
  const auto inner = twoStageFactory();
  const mf::ModelFactory factory = [&](const ckt::Process& p) {
    return std::make_unique<CountingModel>(inner(p), calls);
  };
  mf::RobustOptions opts;
  opts.synthesis.seed = 28520;
  // The default stops at its fixed point; maxRounds = 1 exits through an
  // audit hunt.
  for (const std::size_t maxRounds : {4u, 1u}) {
    calls = 0;
    opts.maxRounds = maxRounds;
    const auto res =
        mf::robustSynthesize(factory, nominal(), mf::VariationSpace{}, cornerSpecs(), opts);
    EXPECT_EQ(res.robustEvaluations, static_cast<double>(calls.load())) << maxRounds;
  }
}

TEST(WorstCase, ObjectiveSpecIsRejectedBeforeAnyVertexEvaluation) {
  // An objective has no margin: the hunt must refuse it up front, naming
  // the performance, instead of evaluating 64 vertices for nothing.
  std::atomic<std::size_t> calls{0};
  const auto inner = twoStageFactory();
  const mf::ModelFactory factory = [&](const ckt::Process& p) {
    return std::make_unique<CountingModel>(inner(p), calls);
  };
  const sz::ComposedOpampModel model(sz::OpampStructure::legacyTwoStage(), nominal(), 5e-12);
  sz::SpecSet specs;
  specs.minimize("power", 0.3, 1e-3);
  auto& reg = amsyn::core::metrics::registry();
  const auto vertexBefore = reg.total("corners.vertex_evals");
  try {
    (void)mf::worstCaseCorner(factory, nominal(), mf::VariationSpace{},
                              model.initialPoint(), specs.specs().front());
    FAIL() << "an objective spec was hunted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("power"), std::string::npos) << e.what();
  }
  EXPECT_EQ(reg.total("corners.vertex_evals"), vertexBefore);
  EXPECT_EQ(calls.load(), 0u);
}

TEST(WorstCase, OneVertexPassMatchesPerSpecHuntsAtAnyWidth) {
  // Scoring every spec from one vertex pass must find, bit for bit, what a
  // separate hunt per spec finds, at any pool width; the pass evaluates the
  // 64 vertices once, and the results together bill every evaluation made.
  const auto factory = twoStageFactory();
  const auto specs = constraintsOf(cornerSpecs());
  const sz::ComposedOpampModel model(sz::OpampStructure::legacyTwoStage(), nominal(), 5e-12);
  auto x = model.initialPoint();
  for (double& v : x) v *= 1.3;  // a second design point, off the initial one
  auto& reg = amsyn::core::metrics::registry();
  for (const auto& point : {model.initialPoint(), x}) {
    std::vector<mf::WorstCorner> perSpec;
    std::size_t perSpecEvaluations = 0;
    for (const auto& spec : specs) {
      perSpec.push_back(mf::worstCaseCorner(factory, nominal(), mf::VariationSpace{}, point, spec));
      perSpecEvaluations += perSpec.back().evaluations;
    }
    for (const std::size_t threads : {1u, 2u, 8u}) {
      SCOPED_TRACE(threads);
      amsyn::core::ScopedThreadPool pool(threads);
      std::atomic<std::size_t> calls{0};
      const mf::ModelFactory counted = [&](const ckt::Process& p) {
        return std::make_unique<CountingModel>(factory(p), calls);
      };
      const auto vertexBefore = reg.total("corners.vertex_evals");
      const auto all = mf::worstCaseCorners(counted, nominal(), mf::VariationSpace{}, point, specs);
      EXPECT_EQ(reg.total("corners.vertex_evals") - vertexBefore, 64u);
      ASSERT_EQ(all.size(), specs.size());
      std::size_t evaluations = 0;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE(specs[i].performance);
        ASSERT_EQ(all[i].corner.size(), perSpec[i].corner.size());
        for (std::size_t d = 0; d < all[i].corner.size(); ++d)
          EXPECT_TRUE(bitEqual(all[i].corner[d], perSpec[i].corner[d])) << "coordinate " << d;
        EXPECT_TRUE(bitEqual(all[i].margin, perSpec[i].margin));
        EXPECT_TRUE(bitEqual(all[i].value, perSpec[i].value));
        evaluations += all[i].evaluations;
      }
      // Each per-spec hunt paid for its own 64 vertices; the joint one once.
      EXPECT_EQ(evaluations, perSpecEvaluations - 64 * (specs.size() - 1));
      EXPECT_EQ(evaluations, calls.load());
    }
  }
}

TEST(WorstCase, NonFiniteBoundIsRejectedBeforeAnyVertexEvaluation) {
  // A NaN or infinite bound makes every margin NaN, so no vertex is ever
  // picked as the worst.  The hunt must refuse such a spec up front, naming
  // its performance, even behind a valid spec in the same call.
  std::atomic<std::size_t> calls{0};
  const auto inner = twoStageFactory();
  const mf::ModelFactory factory = [&](const ckt::Process& p) {
    return std::make_unique<CountingModel>(inner(p), calls);
  };
  const sz::ComposedOpampModel model(sz::OpampStructure::legacyTwoStage(), nominal(), 5e-12);
  const sz::Spec valid{"gain_db", sz::SpecKind::GreaterEqual, 60.0, 1.0, 0.0};
  auto& reg = amsyn::core::metrics::registry();
  const auto vertexBefore = reg.total("corners.vertex_evals");
  for (const double bound : {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bound);
    const sz::Spec bad{"ugf", sz::SpecKind::GreaterEqual, bound, 1.0, 0.0};
    try {
      (void)mf::worstCaseCorner(factory, nominal(), mf::VariationSpace{}, model.initialPoint(),
                                bad);
      FAIL() << "a non-finite bound was hunted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("ugf"), std::string::npos) << e.what();
    }
    EXPECT_THROW((void)mf::worstCaseCorners(factory, nominal(), mf::VariationSpace{},
                                            model.initialPoint(), {valid, bad}),
                 std::invalid_argument);
  }
  EXPECT_EQ(reg.total("corners.vertex_evals"), vertexBefore);
  EXPECT_EQ(calls.load(), 0u);
}

TEST(WorstCase, EmptySpecListEvaluatesNothing) {
  std::atomic<std::size_t> calls{0};
  const auto inner = twoStageFactory();
  const mf::ModelFactory factory = [&](const ckt::Process& p) {
    return std::make_unique<CountingModel>(inner(p), calls);
  };
  const sz::ComposedOpampModel model(sz::OpampStructure::legacyTwoStage(), nominal(), 5e-12);
  auto& reg = amsyn::core::metrics::registry();
  const auto vertexBefore = reg.total("corners.vertex_evals");
  EXPECT_TRUE(
      mf::worstCaseCorners(factory, nominal(), mf::VariationSpace{}, model.initialPoint(), {})
          .empty());
  EXPECT_EQ(reg.total("corners.vertex_evals"), vertexBefore);
  EXPECT_EQ(calls.load(), 0u);
}

TEST(RobustSynthesis, CornerAwareDesignSurvivesCorners) {
  const auto factory = twoStageFactory();
  sz::SpecSet specs;
  specs.atLeast("gain_db", 65.0)
      .atLeast("ugf", 3e6)
      .atLeast("pm", 50.0)
      .atMost("power", 8e-3)
      .minimize("power", 0.3, 1e-3);
  mf::RobustOptions opts;
  opts.synthesis.seed = 19;
  const auto res = mf::robustSynthesize(factory, nominal(), mf::VariationSpace{}, specs, opts);
  ASSERT_TRUE(res.nominal.feasible);
  EXPECT_TRUE(res.robustFeasibleAtCorners);
  // The paper: manufacturability costs roughly 4x-10x CPU.
  EXPECT_GT(res.robustEvaluations, 2.0 * res.nominalEvaluations);
}

TEST(RobustSynthesis, StopsWhenARoundAddsNoNewCorner) {
  // Seed 28520: round 0 adds the gain and pm corners.  At the re-synthesized
  // design round 1 finds pm violated only at the corner the set holds (a
  // margin of -1.4e-4, inside the cost's feasibility tolerance).  A corner
  // already in the set cuts nothing, so the loop stops there instead of
  // re-annealing the same problem from the same seed until maxRounds.
  const auto factory = twoStageFactory();
  sz::SpecSet specs;
  specs.atLeast("gain_db", 66.0)
      .atLeast("ugf", 3e6)
      .atLeast("pm", 50.0)
      .atMost("power", 8e-3)
      .minimize("power", 0.3, 1e-3);
  mf::RobustOptions opts;
  opts.synthesis.seed = 28520;
  const auto res = mf::robustSynthesize(factory, nominal(), mf::VariationSpace{}, specs, opts);
  EXPECT_EQ(res.rounds, 2u);
  EXPECT_EQ(res.activeCorners, 2u);
  EXPECT_LT(res.robustEvaluations, 6.0 * res.nominalEvaluations);
}

TEST(RobustSynthesis, FixedPointStopBillsNoAuditHunt) {
  // Seed 28520 stops at its fixed point after two rounds: the stopping
  // round hunted at the final design, so its hunts are the audit and no
  // third vertex pass runs.  With maxRounds = 1 the loop exits after
  // re-synthesizing, so the audit must hunt the moved design once more.
  const auto factory = twoStageFactory();
  auto& reg = amsyn::core::metrics::registry();
  mf::RobustOptions opts;
  opts.synthesis.seed = 28520;

  auto vertexBefore = reg.total("corners.vertex_evals");
  const auto fixedPoint =
      mf::robustSynthesize(factory, nominal(), mf::VariationSpace{}, cornerSpecs(), opts);
  ASSERT_EQ(fixedPoint.rounds, 2u);
  EXPECT_EQ(reg.total("corners.vertex_evals") - vertexBefore, 64u * fixedPoint.rounds);
  EXPECT_TRUE(fixedPoint.robustFeasibleAtCorners);

  opts.maxRounds = 1;
  vertexBefore = reg.total("corners.vertex_evals");
  const auto capped =
      mf::robustSynthesize(factory, nominal(), mf::VariationSpace{}, cornerSpecs(), opts);
  ASSERT_EQ(capped.rounds, 1u);
  ASSERT_GT(capped.activeCorners, 0u);  // the round added corners: not a fixed point
  EXPECT_EQ(reg.total("corners.vertex_evals") - vertexBefore, 64u * (capped.rounds + 1));
}

TEST(RobustSynthesis, RobustDesignSpendsMorePowerThanNominal) {
  // Margin against corners is not free: the robust design should not be
  // cheaper than the nominal one.
  const auto factory = twoStageFactory();
  sz::SpecSet specs;
  specs.atLeast("gain_db", 68.0).atLeast("ugf", 5e6).atLeast("pm", 55.0).minimize("power",
                                                                                  1.0, 1e-3);
  mf::RobustOptions opts;
  opts.synthesis.seed = 31;
  const auto res = mf::robustSynthesize(factory, nominal(), mf::VariationSpace{}, specs, opts);
  ASSERT_TRUE(res.nominal.feasible);
  // Robustness costs margin: the corner-aware result should not be wildly
  // cheaper than the nominal optimum (both searches are stochastic, so we
  // assert a band rather than strict ordering).
  EXPECT_GE(res.robust.performance.at("power"),
            res.nominal.performance.at("power") * 0.5);
  EXPECT_GT(res.robust.performance.at("power"), 0.0);
}

TEST(Yield, NominalFeasibleDesignHasDecentYield) {
  const auto factory = twoStageFactory();
  const sz::ComposedOpampModel model(sz::OpampStructure::legacyTwoStage(), nominal(), 5e-12);
  const auto x = model.initialPoint();
  const auto perf = model.evaluate(x);
  // Specs set comfortably below nominal performance.
  sz::SpecSet specs;
  specs.atLeast("gain_db", perf.at("gain_db") - 15.0)
      .atMost("power", perf.at("power") * 2.0);
  mf::YieldOptions opts;
  opts.samples = 120;
  const auto res = mf::yieldMonteCarlo(factory, nominal(), x, specs, opts);
  EXPECT_GT(res.yield.estimate, 0.9);
  EXPECT_EQ(res.samples, 120u);
}

TEST(Yield, TightSpecsCutYield) {
  const auto factory = twoStageFactory();
  const sz::ComposedOpampModel model(sz::OpampStructure::legacyTwoStage(), nominal(), 5e-12);
  const auto x = model.initialPoint();
  const auto perf = model.evaluate(x);
  // Spec exactly at nominal: roughly half the global-variation samples fail.
  sz::SpecSet atNominal;
  atNominal.atLeast("gain_db", perf.at("gain_db"));
  mf::YieldOptions opts;
  opts.samples = 150;
  const auto res = mf::yieldMonteCarlo(factory, nominal(), x, atNominal, opts);
  EXPECT_LT(res.yield.estimate, 0.95);
  ASSERT_TRUE(res.worstSeen.count("gain_db"));
  EXPECT_LT(res.worstSeen.at("gain_db"), perf.at("gain_db"));
}

namespace {
/// Forwards to a wrapped model: not a two-stage corner model, so a corner
/// set over it takes the per-model path.
class ForwardingModel : public sz::PerformanceModel {
 public:
  explicit ForwardingModel(std::unique_ptr<sz::PerformanceModel> inner)
      : inner_(std::move(inner)) {}
  const std::vector<sz::DesignVariable>& variables() const override {
    return inner_->variables();
  }
  sz::Performance evaluate(const std::vector<double>& x) const override {
    return inner_->evaluate(x);
  }

 private:
  std::unique_ptr<sz::PerformanceModel> inner_;
};

/// The corner-set contract spelled out: safeEvaluate at the nominal process
/// and at each corner, then a by-name worst-case fold of every constraint,
/// with the first failing corner's tag and reason.
sz::Performance cornerSetByName(const mf::ModelFactory& factory, const sz::SpecSet& specs,
                                const std::vector<std::vector<double>>& corners,
                                const std::vector<double>& x) {
  sz::Performance agg = sz::safeEvaluate(*factory(nominal()), x);
  for (const auto& c : corners) {
    const auto perf = sz::safeEvaluate(*factory(mf::VariationSpace{}.apply(nominal(), c)), x);
    for (const auto& spec : specs.specs()) {
      if (spec.isObjective()) continue;
      const auto it = perf.find(spec.performance);
      if (it == perf.end()) continue;
      double& cur = agg[spec.performance];
      cur = spec.kind == sz::SpecKind::GreaterEqual ? std::min(cur, it->second)
                                                    : std::max(cur, it->second);
    }
    if (perf.count("_infeasible")) {
      agg["_infeasible"] = 1.0;
      if (const auto st = perf.find(sz::kEvalStatusKey); st != perf.end())
        agg.emplace(sz::kEvalStatusKey, st->second);
    }
  }
  return agg;
}

/// Empty when the payloads carry the same names and bit-identical values
/// (any two NaNs match); otherwise the first difference.
std::string payloadMismatch(const sz::Performance& got, const sz::Performance& want) {
  if (got.size() != want.size())
    return std::to_string(got.size()) + " entries vs " + std::to_string(want.size());
  for (auto a = got.begin(), b = want.begin(); a != got.end(); ++a, ++b)
    if (a->first != b->first ||
        !(bitEqual(a->second, b->second) || (std::isnan(a->second) && std::isnan(b->second))))
      return a->first + " vs " + b->first;
  return {};
}
}  // namespace

TEST(CornerSet, BatchedAndPerModelPathsMatchTheByNameFoldBitForBit) {
  // The lock-step path (two-stage corner models, positional fold) and the
  // per-model path (a forwarding factory) must both give what safeEvaluate
  // plus the by-name fold gives, at every set size, with a NaN corner in
  // every position, for a wrong-dimension point, and with the spec list in
  // an order unlike the payload's.  Failure tallies match too.
  const auto batched = twoStageFactory();
  const mf::ModelFactory forwarded = [&](const ckt::Process& p) {
    return std::make_unique<ForwardingModel>(batched(p));
  };
  sz::SpecSet reordered;
  reordered.atMost("power", 8e-3).atLeast("pm", 50.0).atLeast("ugf", 3e6)
      .atLeast("pm", 55.0).atLeast("gain_db", 66.0).atMost("noise_nv", 40.0)
      .atLeast("missing_perf", 1.0).minimize("power", 0.3, 1e-3);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> a{1, 0, 1, 0, 1, 0}, b{0, 1, 0, 1, 0, 1}, mid(6, 0.5),
      poisoned{nan, 0.5, 0.5, 0.5, 0.5, 0.5};
  const std::vector<std::vector<std::vector<double>>> cornerSets{
      {},           {a},          {a, b},          {a, b, mid},  {a, b, mid, a, b},
      {poisoned},   {poisoned, a}, {a, poisoned},   {a, poisoned, b}};
  const auto model = batched(nominal());
  std::vector<std::vector<double>> xs{model->initialPoint()};
  for (const double scale : {0.6, 1.4}) {
    xs.push_back(model->initialPoint());
    for (double& v : xs.back()) v *= scale;
  }
  auto nanX = model->initialPoint();
  nanX[0] = nan;  // every corner NaN, the nominal one included
  xs.push_back(nanX);
  xs.push_back({1.0, 2.0});  // wrong dimension: every corner throws

  auto& reg = amsyn::core::metrics::registry();
  const auto failures = [&] {
    return reg.total("sim.fail.nan_detected") + reg.total("sim.fail.internal_error");
  };
  for (const auto& specs : {cornerSpecs(), reordered}) {
    for (const auto& corners : cornerSets) {
      const mf::CornerSetModel lockStep(batched, nominal(), mf::VariationSpace{}, specs, corners);
      const mf::CornerSetModel perModel(forwarded, nominal(), mf::VariationSpace{}, specs,
                                        corners);
      for (const auto& x : xs) {
        SCOPED_TRACE(::testing::Message() << corners.size() << " corners, x of " << x.size());
        auto before = failures();
        const auto want = cornerSetByName(batched, specs, corners, x);
        const auto wantFailures = failures() - before;
        before = failures();
        EXPECT_EQ(payloadMismatch(lockStep.evaluate(x), want), "");
        EXPECT_EQ(failures() - before, wantFailures);
        before = failures();
        EXPECT_EQ(payloadMismatch(perModel.evaluate(x), want), "");
        EXPECT_EQ(failures() - before, wantFailures);
      }
    }
  }
  // The poisoned corner really was tagged nan_detected, and the
  // wrong-dimension point really failed.
  const mf::CornerSetModel withNan(batched, nominal(), mf::VariationSpace{}, cornerSpecs(),
                                   {a, poisoned});
  EXPECT_EQ(sz::performanceStatus(withNan.evaluate(xs.front())),
            amsyn::core::EvalStatus::NanDetected);
  EXPECT_TRUE(withNan.evaluate({1.0, 2.0}).count("_infeasible"));
}
