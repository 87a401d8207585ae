#include "knowledge/opamp_plans.hpp"

#include <cmath>

#include "core/performances.hpp"

namespace amsyn::knowledge {

std::optional<std::map<std::string, double>> opampPlanInputs(
    const sizing::SpecSet& specs, double loadCap) {
  std::map<std::string, double> in{{"spec.cload", loadCap}};
  for (const auto& s : specs.specs()) {
    if (s.isObjective()) continue;
    for (const auto& p : core::electricalPerformanceTable()) {
      if (s.performance != p.name) continue;
      if (p.upperBoundOnly && s.kind != sizing::SpecKind::LessEqual) continue;
      in[p.planInput] = s.bound;
    }
    // Slew is plan input material even though the verification testbench
    // does not measure it (the plans size the tail current from it).
    if (s.performance == "slew") in["spec.slew"] = s.bound;
  }
  if (!in.count("spec.gain_db") || !in.count("spec.ugf")) return std::nullopt;
  if (!in.count("spec.pm")) in["spec.pm"] = 60.0;
  if (!in.count("spec.slew")) in["spec.slew"] = 2.0 * in["spec.ugf"];
  return in;
}

namespace {
constexpr double kTwoPi = 2.0 * M_PI;
constexpr double kIbiasRef = 10e-6;
constexpr double kGm6OverGm1 = 10.0;  ///< classic zero-placement ratio

double deg2rad(double d) { return d * M_PI / 180.0; }
}  // namespace

DesignPlan twoStageOpampPlan() {
  DesignPlan plan("two-stage-opamp");
  plan.input("spec.gain_db")
      .input("spec.ugf")
      .input("spec.pm")
      .input("spec.slew")
      .input("spec.cload")
      .knob("vov1", 0.20, 0.08, 0.50)
      .knob("vov3", 0.30, 0.10, 0.80)
      .knob("vov5", 0.25, 0.10, 0.80)
      .knob("vov6", 0.30, 0.10, 0.80)
      .knob("margin", 1.3, 1.02, 2.0);

  plan.step("compensation capacitor", [](PlanContext& ctx) {
    // Phase budget at the UGF: 90 (dominant) + atan(ugf/p2) + atan(ugf/z)
    // = 180 - PM.  With gm6 = 10 gm1 the RHP zero sits at 10 ugf
    // (atan(0.1) ~ 5.7 deg); the rest of the budget goes to p2 and fixes
    // Cc = CL / (10 tan(budget)).
    const double pm = ctx.get("spec.pm");
    const double budgetDeg = 90.0 - pm - 5.71;
    if (budgetDeg <= 2.0)
      return StepResult::failure("phase-margin spec too aggressive for this topology");
    const double t = std::tan(deg2rad(budgetDeg));
    const double cc = std::max(ctx.get("spec.cload") / (kGm6OverGm1 * t), 0.3e-12);
    ctx.set("cc", cc);
    return StepResult::success("cc = " + std::to_string(cc * 1e12) + " pF");
  });

  plan.step("input transconductance from UGF", [](PlanContext& ctx) {
    const double gm1 = kTwoPi * ctx.get("spec.ugf") * ctx.get("cc") * ctx.get("margin");
    ctx.set("gm1", gm1);
    return StepResult::success();
  });

  plan.step("tail current from slew rate", [](PlanContext& ctx) {
    // I5 must satisfy both the slew spec (I5 = SR * Cc) and the chosen
    // input overdrive (I5 = gm1 * vov1).
    const double iSlew = ctx.get("spec.slew") * ctx.get("cc") * ctx.get("margin");
    const double iGm = ctx.get("gm1") * ctx.get("vov1");
    const double i5 = std::max(iSlew, iGm);
    ctx.set("i5", i5);
    // Effective overdrive when slew dominates.
    ctx.set("vov1.eff", i5 / ctx.get("gm1"));
    return StepResult::success();
  });

  plan.step("second stage", [](PlanContext& ctx) {
    const double gm6 = kGm6OverGm1 * ctx.get("gm1");
    const double iVov = gm6 * ctx.get("vov6") / 2.0;
    const double iSlew = ctx.get("spec.slew") * ctx.get("spec.cload") * ctx.get("margin");
    ctx.set("gm6", gm6);
    ctx.set("i7", std::max(iVov, iSlew));
    return StepResult::success();
  });

  plan.step("gain check", [](PlanContext& ctx) {
    const auto& proc = ctx.process();
    const double l = 2e-6;
    const double lamN = proc.lambdaN * 1e-6 / l;
    const double lamP = proc.lambdaP * 1e-6 / l;
    const double i5 = ctx.get("i5"), i7 = ctx.get("i7");
    const double av1 = ctx.get("gm1") / ((lamN + lamP) * i5 / 2.0);
    const double av2 = ctx.get("gm6") / ((lamN + lamP) * i7);
    const double gainDb = 20.0 * std::log10(av1 * av2);
    ctx.set("gain_db.achieved", gainDb);
    if (gainDb < ctx.get("spec.gain_db")) {
      // Heuristic backtrack: lower the input overdrive first (raises first-
      // stage gain without power cost), then the output overdrive.
      if (ctx.get("vov1") > 0.085)
        return StepResult::retry("gain short: " + std::to_string(gainDb) + " dB", "vov1",
                                 0.8);
      return StepResult::retry("gain short at min vov1", "vov6", 0.8);
    }
    return StepResult::success(std::to_string(gainDb) + " dB");
  });

  plan.step("power budget", [](PlanContext& ctx) {
    if (!ctx.has("spec.power_max")) return StepResult::success("no budget given");
    const double p =
        ctx.process().vdd * (ctx.get("i5") + ctx.get("i7") + kIbiasRef);
    ctx.set("power.achieved", p);
    if (p > ctx.get("spec.power_max"))
      return StepResult::retry("over power budget", "margin", 0.85);
    return StepResult::success();
  });

  plan.step("emit design", [](PlanContext& ctx) {
    ctx.set("out.i5", ctx.get("i5"));
    ctx.set("out.i7", ctx.get("i7"));
    ctx.set("out.vov1", ctx.get("vov1.eff"));
    ctx.set("out.vov3", ctx.get("vov3"));
    ctx.set("out.vov5", ctx.get("vov5"));
    ctx.set("out.vov6", ctx.get("vov6"));
    ctx.set("out.cc", ctx.get("cc"));
    return StepResult::success();
  });

  return plan;
}

std::vector<double> extractTwoStageDesign(const PlanContext& ctx) {
  return {ctx.get("out.i5"),   ctx.get("out.i7"),   ctx.get("out.vov1"),
          ctx.get("out.vov3"), ctx.get("out.vov5"), ctx.get("out.vov6"),
          ctx.get("out.cc")};
}

}  // namespace amsyn::knowledge
