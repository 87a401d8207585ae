#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "core/metrics.hpp"
#include "manufacture/corners.hpp"
#include "manufacture/yield.hpp"
#include "sim/dc.hpp"
#include "sizing/eqmodel.hpp"
#include "sizing/opamp.hpp"

namespace mf = amsyn::manufacture;
namespace sz = amsyn::sizing;
namespace ckt = amsyn::circuit;
namespace num = amsyn::num;

namespace {
const ckt::Process& nominal() { return ckt::defaultProcess(); }

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

TEST(Pelgrom, SigmaShrinksWithArea) {
  const double sigmaSmall = mf::pelgromSigmaVt(nominal(), 2e-6, 1e-6);
  const double sigmaBig = mf::pelgromSigmaVt(nominal(), 32e-6, 4e-6);
  EXPECT_GT(sigmaSmall, sigmaBig);
  EXPECT_NEAR(sigmaSmall / sigmaBig, 8.0, 1e-9);  // 64x area -> 8x less sigma
}

TEST(Pelgrom, MismatchShiftsMirrorCurrent) {
  // A 1:1 current mirror with mismatch shows output-current spread that
  // shrinks for larger devices.
  auto spread = [&](double w, double l) {
    num::Rng rng(99);
    std::vector<double> ratios;
    for (int s = 0; s < 40; ++s) {
      ckt::Netlist net;
      net.addVSource("VDD", "vdd", "0", 5.0);
      net.addISource("IREF", "vdd", "ref", 50e-6);
      net.addMos("M1", "ref", "ref", "0", "0", ckt::MosType::Nmos, w, l);
      net.addMos("M2", "out", "ref", "0", "0", ckt::MosType::Nmos, w, l);
      net.addResistor("RL", "vdd", "out", 10e3);
      mf::applyMismatch(net, nominal(), rng);
      amsyn::sim::Mna mna(net, nominal());
      const auto op = amsyn::sim::dcOperatingPoint(mna);
      if (!op.converged) continue;
      const double iOut =
          (5.0 - mna.nodeVoltage(op.x, *net.findNode("out"))) / 10e3;
      ratios.push_back(iOut / 50e-6);
    }
    return num::stddev(ratios);
  };
  const double spreadSmall = spread(4e-6, 1e-6);
  const double spreadBig = spread(40e-6, 4e-6);
  EXPECT_GT(spreadSmall, spreadBig);
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
