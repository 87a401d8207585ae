#include <gtest/gtest.h>

#include "knowledge/opamp_plans.hpp"
#include "knowledge/plan.hpp"
#include "sizing/eqmodel.hpp"

namespace kn = amsyn::knowledge;
namespace sz = amsyn::sizing;
namespace ckt = amsyn::circuit;

namespace {
const ckt::Process& proc() { return ckt::defaultProcess(); }
}

TEST(PlanEngine, RunsStepsInOrder) {
  kn::DesignPlan plan("trivial");
  plan.step("a", [](kn::PlanContext& ctx) {
    ctx.set("x", 2.0);
    return kn::StepResult::success();
  });
  plan.step("b", [](kn::PlanContext& ctx) {
    ctx.set("y", ctx.get("x") * 3.0);
    return kn::StepResult::success();
  });
  const auto res = plan.execute(proc(), {});
  ASSERT_TRUE(res.success);
  EXPECT_DOUBLE_EQ(res.context.get("y"), 6.0);
  EXPECT_EQ(res.trace.size(), 2u);
}

TEST(PlanEngine, FailsFastOnMissingInput) {
  kn::DesignPlan plan("needs-input");
  plan.input("spec.gain");
  plan.step("never", [](kn::PlanContext&) { return kn::StepResult::success(); });
  const auto res = plan.execute(proc(), {});
  EXPECT_FALSE(res.success);
  EXPECT_EQ(res.failedStep, "(inputs)");
}

TEST(PlanEngine, BacktracksViaKnob) {
  // Step fails until the knob drops below 0.3; each retry scales it by 0.5.
  kn::DesignPlan plan("backtracking");
  plan.knob("k", 1.0, 0.01, 2.0);
  plan.step("check", [](kn::PlanContext& ctx) {
    if (ctx.get("k") > 0.3) return kn::StepResult::retry("too big", "k", 0.5);
    return kn::StepResult::success();
  });
  const auto res = plan.execute(proc(), {});
  ASSERT_TRUE(res.success);
  EXPECT_EQ(res.retries, 2u);  // 1.0 -> 0.5 -> 0.25
  EXPECT_DOUBLE_EQ(res.context.get("k"), 0.25);
}

TEST(PlanEngine, KnobRangeExhaustionFails) {
  kn::DesignPlan plan("stuck");
  plan.knob("k", 1.0, 0.5, 2.0);
  plan.step("check", [](kn::PlanContext& ctx) {
    (void)ctx;
    return kn::StepResult::retry("never satisfied", "k", 0.5);
  });
  const auto res = plan.execute(proc(), {});
  EXPECT_FALSE(res.success);
  EXPECT_GE(res.retries, 1u);  // clamped at 0.5, then detected as pinned
}

TEST(PlanEngine, SubplanSharesContext) {
  kn::DesignPlan inner("inner");
  inner.step("double", [](kn::PlanContext& ctx) {
    ctx.set("v", ctx.get("v") * 2.0);
    return kn::StepResult::success();
  });
  kn::DesignPlan outer("outer");
  outer.step("init", [](kn::PlanContext& ctx) {
    ctx.set("v", 5.0);
    return kn::StepResult::success();
  });
  outer.subplan(inner);
  outer.step("final", [](kn::PlanContext& ctx) {
    ctx.set("w", ctx.get("v") + 1.0);
    return kn::StepResult::success();
  });
  const auto res = outer.execute(proc(), {});
  ASSERT_TRUE(res.success);
  EXPECT_DOUBLE_EQ(res.context.get("w"), 11.0);
}

TEST(TwoStagePlan, MeetsModerateSpecs) {
  const auto plan = kn::twoStageOpampPlan();
  const auto res = plan.execute(proc(), {{"spec.gain_db", 70.0},
                                         {"spec.ugf", 5e6},
                                         {"spec.pm", 60.0},
                                         {"spec.slew", 5e6},
                                         {"spec.cload", 5e-12}});
  ASSERT_TRUE(res.success) << (res.trace.empty() ? "" : res.trace.back());

  // Verify the emitted design against the equation model: the plan's own
  // gain/ugf claims must hold.
  const sz::ComposedOpampModel model(sz::OpampStructure::legacyTwoStage(), proc(), 5e-12);
  const auto x = kn::extractTwoStageDesign(res.context);
  const auto perf = model.evaluate(x);
  EXPECT_GE(perf.at("gain_db"), 70.0 - 0.5);
  EXPECT_GE(perf.at("ugf"), 5e6 * 0.99);
  EXPECT_GE(perf.at("pm"), 55.0);
  EXPECT_GE(perf.at("slew"), 5e6 * 0.99);
}

TEST(TwoStagePlan, BacktracksForHighGain) {
  const auto plan = kn::twoStageOpampPlan();
  const auto res = plan.execute(proc(), {{"spec.gain_db", 88.0},
                                         {"spec.ugf", 2e6},
                                         {"spec.pm", 60.0},
                                         {"spec.slew", 2e6},
                                         {"spec.cload", 5e-12}});
  ASSERT_TRUE(res.success);
  EXPECT_GT(res.retries, 0u);  // default overdrives can't reach 88 dB
  EXPECT_GE(res.context.get("gain_db.achieved"), 88.0);
}

TEST(TwoStagePlan, FailsOnImpossiblePhaseMargin) {
  const auto plan = kn::twoStageOpampPlan();
  const auto res = plan.execute(proc(), {{"spec.gain_db", 60.0},
                                         {"spec.ugf", 5e6},
                                         {"spec.pm", 89.0},
                                         {"spec.slew", 1e6},
                                         {"spec.cload", 5e-12}});
  EXPECT_FALSE(res.success);
  EXPECT_EQ(res.failedStep, "compensation capacitor");
}

TEST(TwoStagePlan, RespectsPowerBudgetByShavingMargin) {
  const auto plan = kn::twoStageOpampPlan();
  std::map<std::string, double> specs = {{"spec.gain_db", 65.0}, {"spec.ugf", 1e7},
                                         {"spec.pm", 60.0},      {"spec.slew", 1e7},
                                         {"spec.cload", 10e-12}};
  const auto loose = plan.execute(proc(), specs);
  ASSERT_TRUE(loose.success);
  const double loosePower =
      proc().vdd * (loose.context.get("i5") + loose.context.get("i7") + 10e-6);
  specs["spec.power_max"] = loosePower * 0.9;  // force one backtrack
  const auto tight = plan.execute(proc(), specs);
  ASSERT_TRUE(tight.success);
  EXPECT_LE(tight.context.get("power.achieved"), loosePower * 0.9 + 1e-9);
}

TEST(PlanVsOptimization, PlanIsDramaticallyCheaper) {
  // The Fig. 1 contrast in miniature: the plan does a handful of formula
  // evaluations; the optimizer needs hundreds of model calls.
  const auto plan = kn::twoStageOpampPlan();
  const auto res = plan.execute(proc(), {{"spec.gain_db", 70.0},
                                         {"spec.ugf", 5e6},
                                         {"spec.pm", 60.0},
                                         {"spec.slew", 5e6},
                                         {"spec.cload", 5e-12}});
  ASSERT_TRUE(res.success);
  EXPECT_LT(res.trace.size(), 40u);  // bounded plan work
}
