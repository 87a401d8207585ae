// Tests for the staged flow engine (core/flowgraph.hpp): engine policy in
// isolation (retargeting math, calibration feedback across redesign
// attempts, stage-record trails) driven by fabricated stages with no
// simulator underneath, and the batch entry point's determinism contract —
// synthesizeBatch over N spec sets must be bit-identical, per design, to N
// sequential synthesizeAmplifier calls at any thread count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/process.hpp"
#include "core/context.hpp"
#include "core/flow.hpp"
#include "core/flowgraph.hpp"
#include "core/parallel.hpp"
#include "sizing/spec.hpp"

#include "counter_delta.hpp"
#include "fast_synthesis.hpp"

namespace core = amsyn::core;
namespace sz = amsyn::sizing;
namespace ckt = amsyn::circuit;
using amsyn::testutil::CounterDelta;
using amsyn::testutil::fastSynthesisOptions;

namespace {

const ckt::Process& nominal() { return ckt::defaultProcess(); }

std::uint64_t rawBits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

::testing::AssertionResult perfBitIdentical(const sz::Performance& a,
                                            const sz::Performance& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "sizes differ: " << a.size() << " vs " << b.size();
  auto ia = a.begin();
  auto ib = b.begin();
  for (; ia != a.end(); ++ia, ++ib) {
    if (ia->first != ib->first)
      return ::testing::AssertionFailure()
             << "keys differ: " << ia->first << " vs " << ib->first;
    if (rawBits(ia->second) != rawBits(ib->second))
      return ::testing::AssertionFailure()
             << ia->first << " differs in bits: " << ia->second << " vs " << ib->second;
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult vecBitIdentical(const std::vector<double>& a,
                                           const std::vector<double>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "sizes differ: " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (rawBits(a[i]) != rawBits(b[i]))
      return ::testing::AssertionFailure()
             << "x[" << i << "] differs in bits: " << a[i] << " vs " << b[i];
  return ::testing::AssertionSuccess();
}

double boundOf(const sz::SpecSet& specs, const std::string& perf) {
  for (const auto& s : specs.specs())
    if (!s.isObjective() && s.performance == perf) return s.bound;
  ADD_FAILURE() << "no constraint spec for " << perf;
  return 0.0;
}

}  // namespace

// ---------------------------------------------------------------------------
// Retargeting math (engine policy, no stages involved)

TEST(FlowRetarget, DefaultRulesReproduceTheClosedLoopCorrections) {
  sz::SpecSet specs;
  specs.atLeast("ugf", 1e7).atLeast("pm", 60.0).minimize("power", 0.3, 1e-3);

  core::Calibration cal;
  cal.ugfModelRatio = 0.5;
  cal.ugfLayoutRatio = 0.8;
  cal.pmModelDelta = 5.0;
  cal.pmLayoutDelta = 3.0;

  const auto target = core::FlowEngine::retarget(specs, cal, /*attempt=*/2);

  const double safety = 1.0 + 0.05 * 2.0;
  EXPECT_EQ(rawBits(boundOf(target, "ugf")),
            rawBits(1e7 / std::max(0.5 * 0.8, 0.2) * safety));
  EXPECT_EQ(rawBits(boundOf(target, "pm")),
            rawBits(std::min(60.0 + (5.0 + 3.0) * safety + 2.0 * 2, 80.0)));
  // Objectives pass through untouched.
  bool sawObjective = false;
  for (const auto& s : target.specs())
    if (s.isObjective()) {
      sawObjective = true;
      EXPECT_EQ(s.performance, "power");
    }
  EXPECT_TRUE(sawObjective);
}

TEST(FlowRetarget, RatioFloorAndBoundCapClampExtremeCorrections) {
  sz::SpecSet specs;
  specs.atLeast("ugf", 1e7).atLeast("pm", 60.0);
  core::Calibration cal;
  cal.ugfModelRatio = 0.01;  // would be a 100x inflation
  cal.pmModelDelta = 50.0;   // would retarget past 80 deg
  const auto target = core::FlowEngine::retarget(specs, cal, /*attempt=*/1);
  EXPECT_EQ(rawBits(boundOf(target, "ugf")), rawBits(1e7 / 0.2 * 1.05));
  EXPECT_EQ(boundOf(target, "pm"), 80.0);
}

TEST(FlowRetarget, AttemptZeroWithEmptyCalibrationIsIdentity) {
  sz::SpecSet specs;
  specs.atLeast("ugf", 1e7).atLeast("pm", 60.0).atLeast("gain_db", 40.0);
  const core::Calibration cal;
  EXPECT_EQ(rawBits(cal.ugfModelRatio), rawBits(1.0));
  EXPECT_EQ(rawBits(cal.ugfLayoutRatio), rawBits(1.0));
  EXPECT_EQ(rawBits(cal.pmModelDelta), rawBits(0.0));
  EXPECT_EQ(rawBits(cal.pmLayoutDelta), rawBits(0.0));
  const auto target = core::FlowEngine::retarget(specs, cal, 0);
  EXPECT_EQ(rawBits(boundOf(target, "ugf")), rawBits(1e7));
  EXPECT_EQ(rawBits(boundOf(target, "pm")), rawBits(60.0));
  EXPECT_EQ(rawBits(boundOf(target, "gain_db")), rawBits(40.0));
}

// ---------------------------------------------------------------------------
// Redesign calibration loop, driven by fabricated verify stages: attempt 0
// fails "pre-layout" with a known model mismatch, attempt 1 fails
// "post-layout" with a known parasitic loss, attempt 2 succeeds.  The specs
// handed to the sizer on attempts 1 and 2 must match the measured
// corrections exactly.

namespace {

/// Records the retargeted ugf/pm bounds the engine derived for each attempt.
class TargetProbeStage : public core::FlowStage {
 public:
  std::string name() const override { return "target-probe"; }
  core::StageOutcome run(core::DesignContext& ctx) override {
    ugfTargets.push_back(boundOf(ctx.target, "ugf"));
    pmTargets.push_back(boundOf(ctx.target, "pm"));
    return core::StageOutcome::pass();
  }
  std::vector<double> ugfTargets;
  std::vector<double> pmTargets;
};

/// Fabricated pre-layout verification: on attempt 0 reports a model/sim
/// mismatch (sim ugf at half the prediction, pm 5 degrees short) and fails.
class PreLayoutStub : public core::FlowStage {
 public:
  std::string name() const override { return "pre-stub"; }
  core::StageOutcome run(core::DesignContext& ctx) override {
    if (ctx.attempt == 0) {
      ctx.calibration.ugfModelRatio = 0.5;
      ctx.calibration.pmModelDelta = 5.0;
      return core::StageOutcome::fail("model/sim mismatch (stub)");
    }
    return core::StageOutcome::pass();
  }
};

/// Fabricated post-layout verification: on attempt 1 reports a parasitic
/// loss (ugf down another 20%, pm 3 more degrees) and fails; passes after.
class PostLayoutStub : public core::FlowStage {
 public:
  std::string name() const override { return "post-stub"; }
  core::StageOutcome run(core::DesignContext& ctx) override {
    if (ctx.attempt == 1) {
      ctx.calibration.ugfLayoutRatio = 0.8;
      ctx.calibration.pmLayoutDelta = 3.0;
      return core::StageOutcome::fail("parasitic loss (stub)");
    }
    return core::StageOutcome::pass();
  }
};

}  // namespace

TEST(FlowCalibrationLoop, RetargetedBoundsTrackMeasuredCorrectionsAcrossAttempts) {
  std::vector<std::unique_ptr<core::FlowStage>> stages;
  auto probe = std::make_unique<TargetProbeStage>();
  TargetProbeStage* probePtr = probe.get();
  stages.push_back(std::move(probe));
  stages.push_back(std::make_unique<PreLayoutStub>());
  stages.push_back(std::make_unique<PostLayoutStub>());
  core::FlowEngine engine(std::move(stages));

  sz::SpecSet specs;
  specs.atLeast("ugf", 1e7).atLeast("pm", 60.0);
  core::FlowOptions opts;
  opts.maxRedesigns = 4;
  const auto result = engine.run(specs, nominal(), opts);

  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.redesigns, 2u);
  ASSERT_EQ(probePtr->ugfTargets.size(), 3u);

  // Attempt 0: no calibration yet — the original bounds.
  EXPECT_EQ(rawBits(probePtr->ugfTargets[0]), rawBits(1e7));
  EXPECT_EQ(rawBits(probePtr->pmTargets[0]), rawBits(60.0));
  // Attempt 1: model correction only (ratio 0.5, delta 5), safety 1.05.
  EXPECT_EQ(rawBits(probePtr->ugfTargets[1]), rawBits(1e7 / 0.5 * 1.05));
  EXPECT_EQ(rawBits(probePtr->pmTargets[1]),
            rawBits(std::min(60.0 + 5.0 * 1.05 + 2.0, 80.0)));
  // Attempt 2: model * layout (0.5 * 0.8 = 0.4), deltas sum to 8, safety 1.10.
  EXPECT_EQ(rawBits(probePtr->ugfTargets[2]),
            rawBits(1e7 / std::max(0.5 * 0.8, 0.2) * 1.10));
  EXPECT_EQ(rawBits(probePtr->pmTargets[2]),
            rawBits(std::min(60.0 + (5.0 + 3.0) * 1.10 + 2.0 * 2, 80.0)));

  // The stage trail records the two failures and the final pass, in order.
  ASSERT_EQ(result.stageRecords.size(), 3u * 3u - 1u);  // attempt 0/1 cut short
  EXPECT_EQ(result.stageRecords[1].name, "pre-stub");
  EXPECT_EQ(result.stageRecords[1].status, core::StageStatus::Failed);
  EXPECT_EQ(result.stageRecords[1].detail, "model/sim mismatch (stub)");
  EXPECT_EQ(result.stageRecords[1].attempt, 0u);
  EXPECT_EQ(result.stageRecords[4].name, "post-stub");
  EXPECT_EQ(result.stageRecords[4].status, core::StageStatus::Failed);
  EXPECT_EQ(result.stageRecords[4].attempt, 1u);
  EXPECT_EQ(result.stageRecords.back().status, core::StageStatus::Passed);
  EXPECT_EQ(result.stageRecords.back().attempt, 2u);
  EXPECT_TRUE(result.failureReason.empty());
}

TEST(FlowEngine, ExhaustedRedesignsReportTheLastFailure) {
  class AlwaysFail : public core::FlowStage {
   public:
    std::string name() const override { return "always-fail"; }
    core::StageOutcome run(core::DesignContext&) override {
      return core::StageOutcome::fail("no luck", core::EvalStatus::DcNoConvergence);
    }
  };
  std::vector<std::unique_ptr<core::FlowStage>> stages;
  stages.push_back(std::make_unique<AlwaysFail>());
  core::FlowEngine engine(std::move(stages));
  sz::SpecSet specs;
  specs.atLeast("gain_db", 40.0);
  core::FlowOptions opts;
  opts.maxRedesigns = 2;
  const auto result = engine.run(specs, nominal(), opts);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.redesigns, 2u);
  EXPECT_EQ(result.failureReason, "no luck");
  EXPECT_EQ(result.failureStatus, core::EvalStatus::DcNoConvergence);
  ASSERT_EQ(result.stageRecords.size(), 3u);
  for (const auto& rec : result.stageRecords)
    EXPECT_EQ(rec.status, core::StageStatus::Failed);
}

TEST(FlowEngine, SkippedStagesDoNotAbortTheAttempt) {
  class Skipper : public core::FlowStage {
   public:
    std::string name() const override { return "skipper"; }
    core::StageOutcome run(core::DesignContext&) override {
      return core::StageOutcome::skip("nothing to contribute");
    }
  };
  std::vector<std::unique_ptr<core::FlowStage>> stages;
  stages.push_back(std::make_unique<Skipper>());
  core::FlowEngine engine(std::move(stages));
  sz::SpecSet specs;
  specs.atLeast("gain_db", 40.0);
  const auto result = engine.run(specs, nominal(), core::FlowOptions{});
  EXPECT_TRUE(result.success);
  ASSERT_EQ(result.stageRecords.size(), 1u);
  EXPECT_EQ(result.stageRecords[0].status, core::StageStatus::Skipped);
  EXPECT_EQ(result.stageRecords[0].detail, "nothing to contribute");
}

// ---------------------------------------------------------------------------
// The fixed verification bench (measureAmplifier probes node "out")

TEST(Measure, MissingOutNodeIsInfeasibleDataNotAThrow) {
  // A netlist the bench cannot probe is verification data (the infeasible
  // taxonomy), never a crash.
  ckt::Netlist net;
  net.addVSource("V1", "in", "0", 1.0, 1.0);
  net.addResistor("R1", "in", "mid", 1e3);
  net.addResistor("R2", "mid", "0", 1e3);
  sz::Performance perf;
  EXPECT_NO_THROW(perf = core::measureAmplifier(net, nominal()));
  EXPECT_EQ(perf.count("_infeasible"), 1u);
}

// ---------------------------------------------------------------------------
// Batch determinism: synthesizeBatch == N sequential synthesizeAmplifier
// calls, bit for bit, at any thread count

namespace {

std::vector<sz::SpecSet> batchSpecs() {
  std::vector<sz::SpecSet> batch(3);
  // An OTA-reachable point, a two-stage-leaning point, and a deliberately
  // hopeless one (the batch contract covers failing designs too).
  batch[0].atLeast("gain_db", 36.0).atLeast("ugf", 1e7).atLeast("pm", 60.0).atMost(
      "power", 4e-3);
  batch[1].atLeast("gain_db", 55.0).atLeast("ugf", 5e6).atLeast("pm", 55.0).minimize(
      "power", 0.3, 1e-3);
  batch[2].atLeast("gain_db", 180.0).atLeast("ugf", 1e10).atLeast("pm", 75.0);
  return batch;
}

core::FlowOptions batchFlowOptions() {
  core::FlowOptions opts;
  opts.loadCap = 2e-12;
  opts.seed = 7;
  opts.maxRedesigns = 1;
  opts.synthesis = fastSynthesisOptions();
  opts.layout.annealPlacement = false;
  return opts;
}

void expectFlowsBitIdentical(const core::FlowResult& a, const core::FlowResult& b,
                             const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.topology, b.topology);
  EXPECT_TRUE(vecBitIdentical(a.designPoint, b.designPoint));
  EXPECT_EQ(a.redesigns, b.redesigns);
  EXPECT_EQ(a.failureReason, b.failureReason);
  EXPECT_EQ(a.failureStatus, b.failureStatus);
  ASSERT_EQ(a.verifications.size(), b.verifications.size());
  for (std::size_t i = 0; i < a.verifications.size(); ++i) {
    EXPECT_EQ(a.verifications[i].stage, b.verifications[i].stage);
    EXPECT_EQ(a.verifications[i].passed, b.verifications[i].passed);
    EXPECT_TRUE(
        perfBitIdentical(a.verifications[i].measured, b.verifications[i].measured));
  }
  ASSERT_EQ(a.stageRecords.size(), b.stageRecords.size());
  for (std::size_t i = 0; i < a.stageRecords.size(); ++i) {
    // Everything but `seconds`, which is wall clock by design.
    EXPECT_EQ(a.stageRecords[i].name, b.stageRecords[i].name);
    EXPECT_EQ(a.stageRecords[i].attempt, b.stageRecords[i].attempt);
    EXPECT_EQ(a.stageRecords[i].status, b.stageRecords[i].status);
    EXPECT_EQ(a.stageRecords[i].detail, b.stageRecords[i].detail);
    EXPECT_EQ(a.stageRecords[i].evalStatus, b.stageRecords[i].evalStatus);
  }
}

}  // namespace

TEST(FlowBatch, MatchesSequentialFlowsBitForBitAcrossPoolWidths) {
  const auto specs = batchSpecs();
  const auto opts = batchFlowOptions();

  // Reference: one sequential flow per spec set, on a zero-worker pool.
  std::vector<core::FlowResult> reference;
  {
    core::ScopedThreadPool scoped(0);
    const CounterDelta delta;
    for (std::size_t i = 0; i < specs.size(); ++i)
      reference.push_back(
          core::synthesizeAmplifier(specs[i], nominal(), core::batchItemOptions(opts, i)));
    // Once in these flows the optimizer's candidate fails pre-layout
    // verification and the plan candidate is chosen.
    EXPECT_EQ(delta["core.flow.plan_chosen"], 1u);
  }
  EXPECT_TRUE(reference[0].success) << reference[0].failureReason;
  EXPECT_FALSE(reference[2].success) << "the hopeless spec set must fail";

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    core::ScopedThreadPool scoped(threads);
    const CounterDelta delta;
    const auto batch = core::synthesizeBatch(specs, nominal(), opts);
    EXPECT_EQ(delta["core.flow.plan_chosen"], 1u) << "threads=" << threads;
    ASSERT_EQ(batch.size(), specs.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
      expectFlowsBitIdentical(reference[i], batch[i],
                              "design=" + std::to_string(i) +
                                  " threads=" + std::to_string(threads));
  }
}

TEST(FlowBatch, ItemOptionsDecorrelateSeedsDeterministically) {
  const core::FlowOptions base = batchFlowOptions();
  const auto a0 = core::batchItemOptions(base, 0);
  const auto a1 = core::batchItemOptions(base, 1);
  EXPECT_NE(a0.seed, a1.seed);
  EXPECT_NE(a0.seed, base.seed);  // stream 0 is already decorrelated
  // Pure function of (base.seed, index).
  EXPECT_EQ(core::batchItemOptions(base, 1).seed, a1.seed);
  // Everything else passes through.
  EXPECT_EQ(a0.loadCap, base.loadCap);
  EXPECT_EQ(a0.maxRedesigns, base.maxRedesigns);
}

TEST(FlowBatch, EmptyBatchIsANoOp) {
  const auto results = core::synthesizeBatch({}, nominal(), batchFlowOptions());
  EXPECT_TRUE(results.empty());
}
