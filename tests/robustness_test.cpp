// Fault-tolerance tests: every fallback path of the evaluation layer must
// demonstrably fire.  Deterministic fault injection (sim/fault.hpp) breaks
// the solvers at precise points — forcing continuation rungs, NaN bail-outs,
// budget exhaustion — and the tests assert both the structured outcome
// (core::EvalStatus) and the observability counters (sim/stats.hpp).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "circuit/parser.hpp"
#include "core/context.hpp"
#include "core/evalstatus.hpp"
#include "core/flow.hpp"
#include "core/parallel.hpp"
#include "manufacture/corners.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/fault.hpp"
#include "sim/measure.hpp"
#include "sim/mna.hpp"
#include "sim/stats.hpp"
#include "sizing/cost.hpp"
#include "sizing/simmodel.hpp"
#include "topology/genetic.hpp"
#include "topology/select.hpp"

namespace ckt = amsyn::circuit;
namespace core = amsyn::core;
namespace sim = amsyn::sim;
namespace sizing = amsyn::sizing;
namespace topology = amsyn::topology;
namespace manufacture = amsyn::manufacture;

using core::EvalStatus;

namespace {

const ckt::Process& proc() { return ckt::defaultProcess(); }

/// A fresh explicit context installed for the rest of the enclosing scope.
/// Its metrics slice counts exactly the failures and strategies recorded
/// from here on, on this thread and on any pool worker the work fans out to.
class SliceProbe {
 public:
  SliceProbe() : ctx_(core::ContextConfig::fromEnv()), scope_(ctx_) {}
  std::uint64_t operator[](const std::string& name) const {
    const auto counters = ctx_.sliceCounters();
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  std::uint64_t failures(EvalStatus s) const {
    return (*this)[std::string("sim.fail.") + core::evalStatusName(s)];
  }

 private:
  core::ExecutionContext ctx_;
  core::ContextScope scope_;
};

/// A nonlinear circuit whose operating point needs several Newton
/// iterations: NMOS inverter with a resistive load.
ckt::Netlist inverterDeck() {
  return ckt::parseDeck(R"(
V1 vdd 0 DC 5
VG g 0 DC 2.5
R1 vdd out 10k
M1 out g 0 0 NMOS W=20u L=1u
.end)");
}

ckt::Netlist rcDeck() {
  return ckt::parseDeck(R"(
V1 in 0 DC 1 AC 1
R1 in out 1k
C1 out 0 1n
.end)");
}

/// Minimal equation model: one variable, smooth performance surface.
class QuadraticModel : public sizing::PerformanceModel {
 public:
  const std::vector<sizing::DesignVariable>& variables() const override { return vars_; }
  sizing::Performance evaluate(const std::vector<double>& x) const override {
    sizing::Performance p;
    p["gain_db"] = 100.0 - (x[0] - 3.0) * (x[0] - 3.0);
    p["power"] = x[0];
    return p;
  }

 private:
  std::vector<sizing::DesignVariable> vars_{{"a", 1.0, 10.0, false, 1.0}};
};

/// Model that always throws: the poisoned candidate the containment
/// boundaries must absorb.
class ThrowingModel : public sizing::PerformanceModel {
 public:
  const std::vector<sizing::DesignVariable>& variables() const override { return vars_; }
  sizing::Performance evaluate(const std::vector<double>&) const override {
    throw std::runtime_error("poisoned candidate");
  }

 private:
  std::vector<sizing::DesignVariable> vars_{{"a", 1.0, 10.0, false, 1.0}};
};

/// Model that reports a NaN score (a failed measurement leaking through).
class NanModel : public sizing::PerformanceModel {
 public:
  const std::vector<sizing::DesignVariable>& variables() const override { return vars_; }
  sizing::Performance evaluate(const std::vector<double>&) const override {
    sizing::Performance p;
    p["gain_db"] = std::numeric_limits<double>::quiet_NaN();
    return p;
  }

 private:
  std::vector<sizing::DesignVariable> vars_{{"a", 1.0, 10.0, false, 1.0}};
};

}  // namespace

// --- taxonomy basics ------------------------------------------------------

TEST(EvalStatus, NamesAreStableSnakeCase) {
  EXPECT_STREQ(core::evalStatusName(EvalStatus::Ok), "ok");
  EXPECT_STREQ(core::evalStatusName(EvalStatus::DcNoConvergence), "dc_no_convergence");
  EXPECT_STREQ(core::evalStatusName(EvalStatus::SingularJacobian), "singular_jacobian");
  EXPECT_STREQ(core::evalStatusName(EvalStatus::NanDetected), "nan_detected");
  EXPECT_STREQ(core::evalStatusName(EvalStatus::BudgetExhausted), "budget_exhausted");
  EXPECT_STREQ(core::evalStatusName(EvalStatus::BadTopology), "bad_topology");
  EXPECT_STREQ(core::evalStatusName(EvalStatus::NoAcCrossing), "no_ac_crossing");
  EXPECT_STREQ(core::evalStatusName(EvalStatus::InternalError), "internal_error");
}

TEST(EvalBudget, CountsWorkUnitsAndCancels) {
  core::EvalBudget b(3);
  EXPECT_TRUE(b.consume());
  EXPECT_TRUE(b.consume(2));
  EXPECT_FALSE(b.consume());  // 4th unit crosses the limit
  EXPECT_TRUE(b.exhausted());
  EXPECT_EQ(b.used(), 4u);

  core::EvalBudget unlimited;
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(unlimited.consume());
  unlimited.cancel();
  EXPECT_FALSE(unlimited.consume());
  EXPECT_TRUE(unlimited.exhausted());

  std::atomic<bool> stop{false};
  core::EvalBudget external(0, &stop);
  EXPECT_TRUE(external.consume());
  stop.store(true);
  EXPECT_FALSE(external.consume());
}

TEST(EvalBudget, PerformanceStatusRoundTrips) {
  sizing::Performance perf;
  EXPECT_EQ(sizing::performanceStatus(perf), EvalStatus::Ok);
  sizing::markInfeasible(perf, EvalStatus::SingularJacobian);
  EXPECT_EQ(perf.at("_infeasible"), 1.0);
  EXPECT_EQ(sizing::performanceStatus(perf), EvalStatus::SingularJacobian);
  // First reason sticks.
  sizing::markInfeasible(perf, EvalStatus::InternalError);
  EXPECT_EQ(sizing::performanceStatus(perf), EvalStatus::SingularJacobian);
}

// --- continuation ladder under injected faults ----------------------------

TEST(FaultInjection, CleanSolveUsesNewtonStrategy) {
  SliceProbe slice;
  auto net = inverterDeck();
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  EXPECT_EQ(op.status, EvalStatus::Ok);
  EXPECT_EQ(op.strategy, "newton");
  EXPECT_EQ(slice["sim.strategy.newton"], 1u);
  EXPECT_EQ(slice["sim.strategy.gmin"], 0u);
}

TEST(FaultInjection, SingleNewtonFailureFallsBackToGminRung) {
  SliceProbe slice;
  auto net = inverterDeck();
  sim::Mna mna(net, proc());

  // Reference solve, then the faulted one: the ladder must land on the same
  // operating point.
  const auto clean = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(clean.converged);

  sim::FaultPlan plan;
  plan.failDcNewtonSolves = 1;  // kill rung 1 (plain Newton)
  sim::ScopedFaultInjection inject(plan);
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  EXPECT_EQ(op.status, EvalStatus::Ok);
  EXPECT_EQ(op.strategy, "gmin");
  EXPECT_EQ(slice["sim.strategy.gmin"], 1u);
  for (std::size_t i = 0; i < clean.x.size(); ++i)
    EXPECT_NEAR(op.x[i], clean.x[i], 1e-6);
}

TEST(FaultInjection, DoubleNewtonFailureFallsBackToSourceRung) {
  SliceProbe slice;
  auto net = inverterDeck();
  sim::Mna mna(net, proc());

  sim::FaultPlan plan;
  plan.failDcNewtonSolves = 2;  // kill plain Newton AND the first gmin step
  sim::ScopedFaultInjection inject(plan);
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  EXPECT_EQ(op.strategy, "source");
  EXPECT_EQ(slice["sim.strategy.source"], 1u);
}

TEST(FaultInjection, AllRungsKilledRecordsReasonCode) {
  SliceProbe slice;
  auto net = inverterDeck();
  sim::Mna mna(net, proc());

  sim::FaultPlan plan;
  plan.failDcNewtonSolves = 3;  // one per rung: newton, gmin, source
  sim::ScopedFaultInjection inject(plan);
  const auto op = sim::dcOperatingPoint(mna);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.status, EvalStatus::SingularJacobian);
  EXPECT_EQ(slice.failures(EvalStatus::SingularJacobian), 1u);
}

TEST(FaultInjection, NanResidualBailsImmediatelyAndLadderRecovers) {
  auto net = inverterDeck();
  sim::Mna mna(net, proc());

  sim::FaultPlan plan;
  plan.poisonDcResiduals = 1;  // NaN in rung 1's first residual assembly
  sim::ScopedFaultInjection inject(plan);
  sim::DcOptions opts;
  const auto op = sim::dcOperatingPoint(mna, opts);
  ASSERT_TRUE(op.converged);
  EXPECT_EQ(op.strategy, "gmin");
  // The NaN bail-out must not burn the iteration limit on poisoned
  // iterates: rung 1 aborts before its first update, so the total iteration
  // count stays far below one full maxIterations pass.
  EXPECT_LT(op.iterations, opts.maxIterations);
}

TEST(FaultInjection, InjectedExhaustionFiresWithoutRealBudget) {
  SliceProbe slice;
  auto net = inverterDeck();
  sim::Mna mna(net, proc());

  sim::FaultPlan plan;
  plan.useExhaustBudget = true;
  plan.exhaustBudgetAfter = 2;  // exhaust mid-solve, no EvalBudget needed
  sim::ScopedFaultInjection inject(plan);
  const auto op = sim::dcOperatingPoint(mna);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.status, EvalStatus::BudgetExhausted);
  EXPECT_EQ(slice.failures(EvalStatus::BudgetExhausted), 1u);
}

// --- work budgets ---------------------------------------------------------

TEST(WorkBudget, DcLadderStopsAtBudgetDeterministically) {
  SliceProbe slice;
  auto net = inverterDeck();
  sim::Mna mna(net, proc());

  core::EvalBudget budget(2);  // far less than the solve needs
  sim::DcOptions opts;
  opts.budget = &budget;
  const auto op = sim::dcOperatingPoint(mna, opts);
  EXPECT_FALSE(op.converged);
  EXPECT_EQ(op.status, EvalStatus::BudgetExhausted);
  EXPECT_TRUE(budget.exhausted());
  EXPECT_EQ(slice.failures(EvalStatus::BudgetExhausted), 1u);

  // Identical budget, identical stop: the cutoff is counted, not timed.
  core::EvalBudget again(2);
  sim::DcOptions opts2;
  opts2.budget = &again;
  const auto op2 = sim::dcOperatingPoint(mna, opts2);
  EXPECT_EQ(op2.iterations, op.iterations);
  EXPECT_EQ(again.used(), budget.used());
}

TEST(WorkBudget, SimulationModelReportsBudgetExhausted) {
  SliceProbe slice;
  sizing::OpampTestbench tb;
  auto tmpl = sizing::twoStageTemplate(proc(), tb);
  sizing::SimModelOptions mopts;
  mopts.measureNoise = false;
  mopts.workBudget = 3;  // a two-stage bias point needs far more iterations
  const sizing::SimulationModel model(std::move(tmpl), proc(), mopts);

  const auto perf = model.evaluate(model.initialPoint());
  EXPECT_EQ(perf.count("_infeasible"), 1u);
  EXPECT_EQ(sizing::performanceStatus(perf), EvalStatus::BudgetExhausted);
  EXPECT_GE(slice.failures(EvalStatus::BudgetExhausted), 1u);
}

TEST(WorkBudget, CooperativeCancelDegradesToBudgetExhausted) {
  sizing::OpampTestbench tb;
  auto tmpl = sizing::twoStageTemplate(proc(), tb);
  std::atomic<bool> cancel{true};
  sizing::SimModelOptions mopts;
  mopts.measureNoise = false;
  mopts.cancel = &cancel;
  const sizing::SimulationModel model(std::move(tmpl), proc(), mopts);

  const auto perf = model.evaluate(model.initialPoint());
  EXPECT_EQ(perf.count("_infeasible"), 1u);
  EXPECT_EQ(sizing::performanceStatus(perf), EvalStatus::BudgetExhausted);
}

// --- AC under injected faults ---------------------------------------------

TEST(FaultInjection, AcSingularFactorizationEndsSweepWithStatus) {
  SliceProbe slice;
  auto net = rcDeck();
  sim::Mna mna(net, proc());
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);

  sim::FaultPlan plan;
  plan.failLuFactorizations = 1;
  sim::ScopedFaultInjection inject(plan);
  const auto sweep = sim::acAnalysis(mna, op, "out", sim::logspace(1.0, 1e6, 3));
  EXPECT_EQ(sweep.status, EvalStatus::SingularJacobian);
  EXPECT_EQ(slice.failures(EvalStatus::SingularJacobian), 1u);
  // Measurement helpers treat the truncated sweep as data, not a crash.
  EXPECT_FALSE(sim::unityGainFrequency(sweep).has_value());
}

// --- containment boundaries -----------------------------------------------

TEST(Containment, SafeEvaluateAbsorbsThrowingModel) {
  SliceProbe slice;
  const ThrowingModel model;
  const auto perf = sizing::safeEvaluate(model, {2.0});
  EXPECT_EQ(perf.count("_infeasible"), 1u);
  EXPECT_EQ(sizing::performanceStatus(perf), EvalStatus::InternalError);
  EXPECT_EQ(slice.failures(EvalStatus::InternalError), 1u);
}

TEST(Containment, SafeEvaluateTagsNanScores) {
  SliceProbe slice;
  const NanModel model;
  const auto perf = sizing::safeEvaluate(model, {2.0});
  EXPECT_EQ(perf.count("_infeasible"), 1u);
  EXPECT_EQ(sizing::performanceStatus(perf), EvalStatus::NanDetected);
  EXPECT_EQ(slice.failures(EvalStatus::NanDetected), 1u);
}

TEST(Containment, CostFunctionIsTotalOverPoisonedModels) {
  const ThrowingModel throwing;
  sizing::SpecSet specs;
  specs.atLeast("gain_db", 60.0);
  const sizing::CostFunction cost(throwing, specs);
  const auto d = cost.detailed({2.0});
  EXPECT_TRUE(std::isfinite(d.cost));
  EXPECT_FALSE(d.feasible);
  EXPECT_EQ(d.status, EvalStatus::InternalError);

  const NanModel nan;
  const sizing::CostFunction nanCost(nan, specs);
  const auto dn = nanCost.detailed({2.0});
  EXPECT_TRUE(std::isfinite(dn.cost));
  EXPECT_EQ(dn.status, EvalStatus::NanDetected);
  // A clean evaluation of the same specs must beat the poisoned ones.
  const QuadraticModel good;
  const sizing::CostFunction goodCost(good, specs);
  EXPECT_LT(goodCost.detailed({3.0}).cost, d.cost);
  EXPECT_LT(goodCost.detailed({3.0}).cost, dn.cost);
}

TEST(Containment, ParallelForCapturedIsolatesFailingIndex) {
  const std::size_t n = 16;
  std::vector<double> clean(n, 0.0), faulted(n, 0.0);
  amsyn::core::parallelFor(n, [&](std::size_t i) { clean[i] = std::sqrt(1.0 + i); });

  const auto errs = amsyn::core::parallelForCaptured(n, [&](std::size_t i) {
    if (i == 5) throw std::runtime_error("poisoned index");
    faulted[i] = std::sqrt(1.0 + i);
  });
  ASSERT_EQ(errs.size(), n);
  EXPECT_NE(errs[5], nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 5) continue;
    EXPECT_EQ(errs[i], nullptr);
    EXPECT_EQ(faulted[i], clean[i]);  // siblings bit-identical to a clean run
  }
}

TEST(Containment, MeasureAmplifierSurvivesMalformedNetlist) {
  // No "out" node at all: verification reports infeasible data rather than
  // crashing the flow.
  auto net = ckt::parseDeck(R"(
V1 in 0 DC 5
R1 in x 1k
R2 x 0 1k
.end)");
  const auto perf = amsyn::core::measureAmplifier(net, proc());
  EXPECT_EQ(perf.count("_infeasible"), 1u);
  EXPECT_NE(sizing::performanceStatus(perf), EvalStatus::Ok);
}

// --- selection layers -----------------------------------------------------

TEST(Selection, IntervalSelectMarksNanScoresInfeasible) {
  SliceProbe slice;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  topology::TopologyLibrary lib;
  topology::TopologyEntry good;
  good.name = "good";
  good.bounds["gain_db"] = amsyn::num::Interval(40.0, 90.0);
  lib.add(std::move(good));
  topology::TopologyEntry poisoned;
  poisoned.name = "poisoned";
  poisoned.bounds["gain_db"] = amsyn::num::Interval(nan, nan);
  lib.add(std::move(poisoned));

  sizing::SpecSet specs;
  specs.atLeast("gain_db", 60.0);
  const auto ranked = topology::intervalSelect(lib, specs);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].name, "good");  // NaN must never outrank a real margin
  EXPECT_TRUE(ranked[0].feasible);
  EXPECT_FALSE(ranked[1].feasible);
  EXPECT_EQ(ranked[1].score, -std::numeric_limits<double>::infinity());
  ASSERT_FALSE(ranked[1].reasons.empty());
  EXPECT_NE(ranked[1].reasons.back().find("nan_detected"), std::string::npos);
  EXPECT_EQ(slice.failures(EvalStatus::NanDetected), 1u);
}

TEST(Selection, GeneticRunWithPoisonedTopologyIsThreadCountInvariant) {
  topology::TopologyLibrary lib;
  lib.add({"good", std::make_shared<QuadraticModel>(), {}, {}, 1});
  lib.add({"poisoned", std::make_shared<ThrowingModel>(), {}, {}, 1});

  sizing::SpecSet specs;
  specs.atLeast("gain_db", 60.0);
  topology::GeneticOptions opts;
  opts.populationSize = 12;
  opts.generations = 4;
  opts.seed = 7;

  topology::GeneticResult serial, parallel;
  {
    amsyn::core::ScopedThreadPool pool(1);
    serial = topology::geneticSelectAndSize(lib, specs, opts);
  }
  {
    amsyn::core::ScopedThreadPool pool(8);
    parallel = topology::geneticSelectAndSize(lib, specs, opts);
  }
  // The poisoned topology's individuals get contained, deterministic costs,
  // so the whole run is bit-identical at any thread count.
  EXPECT_EQ(serial.topology, "good");
  EXPECT_EQ(serial.topology, parallel.topology);
  ASSERT_EQ(serial.x.size(), parallel.x.size());
  for (std::size_t i = 0; i < serial.x.size(); ++i) EXPECT_EQ(serial.x[i], parallel.x[i]);
  EXPECT_EQ(serial.cost, parallel.cost);
  EXPECT_EQ(serial.populationShare, parallel.populationShare);
}

TEST(Selection, WorstCaseCornerSurvivesThrowingCorners) {
  SliceProbe slice;
  const ckt::Process nominal = proc();
  // Corners that lower VDD make the model throw: the hunt must treat them
  // as violated (-1 margin) instead of crashing the vertex enumeration.
  class VddSensitiveModel : public sizing::PerformanceModel {
   public:
    explicit VddSensitiveModel(double minVdd) : minVdd_(minVdd) {}
    const std::vector<sizing::DesignVariable>& variables() const override {
      return vars_;
    }
    sizing::Performance evaluate(const std::vector<double>&) const override {
      if (vdd < minVdd_) throw std::runtime_error("brown-out");
      sizing::Performance p;
      p["gain_db"] = 20.0;
      return p;
    }
    double vdd = 0.0;

   private:
    double minVdd_;
    std::vector<sizing::DesignVariable> vars_{{"a", 1.0, 10.0, false, 1.0}};
  };

  manufacture::ModelFactory factory =
      [&](const ckt::Process& p) -> std::unique_ptr<sizing::PerformanceModel> {
    auto m = std::make_unique<VddSensitiveModel>(nominal.vdd);
    m->vdd = p.vdd;
    return m;
  };
  manufacture::VariationSpace space;
  sizing::SpecSet specs;
  specs.atLeast("gain_db", 10.0);
  const auto wc = manufacture::worstCaseCorner(factory, nominal, space, {2.0},
                                               specs.specs().front());
  EXPECT_EQ(wc.margin, -1.0);  // the throwing corners are the worst case
  EXPECT_GE(slice.failures(EvalStatus::InternalError), 1u);
}

// --- counters -------------------------------------------------------------

TEST(FailureCounters, ResetClearsEveryReasonAndStrategy) {
  // Traffic recorded before a context exists never shows in its slice: a
  // fresh context is the reset, and the registry itself stays monotonic.
  sim::recordEvalFailure(EvalStatus::NanDetected);
  sim::recordEvalFailure(EvalStatus::BadTopology);
  sim::recordDcStrategy(sim::DcStrategy::Gmin);
  SliceProbe slice;
  for (std::size_t i = 1; i < core::kEvalStatusCount; ++i)
    EXPECT_EQ(slice.failures(static_cast<EvalStatus>(i)), 0u);
  EXPECT_EQ(slice["sim.strategy.newton"], 0u);
  EXPECT_EQ(slice["sim.strategy.gmin"], 0u);
  EXPECT_EQ(slice["sim.strategy.source"], 0u);
}

TEST(FailureCounters, OkIsNeverTallied) {
  SliceProbe slice;
  sim::recordEvalFailure(EvalStatus::Ok);
  for (std::size_t i = 0; i < core::kEvalStatusCount; ++i)
    EXPECT_EQ(slice.failures(static_cast<EvalStatus>(i)), 0u);
}
