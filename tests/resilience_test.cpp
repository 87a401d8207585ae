// The job boundary end to end: the job-level taxonomy codes, wall-clock
// deadlines, one execution per stage per redesign attempt, and exception
// containment at the stage boundary (OOM ends the flow, anything else is an
// internal error the flow redesigns after).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuit/process.hpp"
#include "core/context.hpp"
#include "core/evalstatus.hpp"
#include "core/flow.hpp"
#include "core/flowgraph.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "core/resilience.hpp"
#include "sizing/simmodel.hpp"
#include "sizing/spec.hpp"

namespace core = amsyn::core;
namespace sz = amsyn::sizing;
namespace ckt = amsyn::circuit;

using core::EvalStatus;

namespace {

const ckt::Process& nominal() { return ckt::defaultProcess(); }

std::uint64_t counterTotal(const std::string& name) {
  return core::metrics::Registry::instance().total(name);
}

}  // namespace

// ---------------------------------------------------------------------------
// Taxonomy: job-level codes and exception classification

TEST(EvalStatusTaxonomy, NewCodesHaveStableNames) {
  EXPECT_STREQ(core::evalStatusName(EvalStatus::DeadlineExpired), "deadline_expired");
  EXPECT_STREQ(core::evalStatusName(EvalStatus::OutOfMemory), "out_of_memory");
}

TEST(EvalStatusTaxonomy, ClassifyExceptionSeparatesOomFromInternalError) {
  EXPECT_EQ(core::classifyException(nullptr), EvalStatus::Ok);
  EXPECT_EQ(core::classifyException(std::make_exception_ptr(std::bad_alloc{})),
            EvalStatus::OutOfMemory);
  EXPECT_EQ(core::classifyException(std::make_exception_ptr(std::runtime_error("x"))),
            EvalStatus::InternalError);
  EXPECT_EQ(core::classifyException(std::make_exception_ptr(42)),
            EvalStatus::InternalError);
}

// ---------------------------------------------------------------------------
// The deadline type

TEST(DeadlineBudget, AlreadyExpiredDeadlineFailsTheFirstCharge) {
  core::Deadline deadline;
  deadline.setDeadlineNs(core::Deadline::nowNs() - 1);
  EXPECT_FALSE(deadline.consume());
  EXPECT_FALSE(deadline.consume()) << "expiry latches";
  EXPECT_TRUE(deadline.expired());
}

TEST(DeadlineBudget, CheckDeadlineLatchesBetweenStrides) {
  core::Deadline deadline;
  deadline.setDeadlineNs(core::Deadline::nowNs() + 3'600'000'000'000LL);  // +1h
  ASSERT_TRUE(deadline.consume());  // first charge checks; stride now pending
  // Move the deadline into the past: the strided path would not notice for
  // another kDeadlineCheckStride charges, but a boundary checkpoint must.
  deadline.setDeadlineNs(core::Deadline::nowNs() - 1);
  ASSERT_FALSE(deadline.consume());  // setDeadlineNs re-arms an immediate check
  EXPECT_TRUE(deadline.expired());
}

TEST(DeadlineBudget, ComposedBudgetExpiresAndLatches) {
  core::Deadline dl(1);  // 1 ms
  EXPECT_NE(dl.deadlineNs(), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(dl.expired());
  EXPECT_FALSE(dl.consume()) << "a boundary-detected expiry fails the next charge";

  core::Deadline unarmed(0);
  EXPECT_EQ(unarmed.deadlineNs(), 0);
  EXPECT_FALSE(unarmed.expired());
  EXPECT_TRUE(unarmed.consume());
}

TEST(DeadlineBudget, EffectiveDeadlinePrefersOptionThenContext) {
  // The deadline in effect is the config of the context a flow runs under.
  // The env knob is snapshotted into ContextConfig once, at context
  // creation, not read live.
  unsetenv("AMSYN_JOB_DEADLINE_MS");
  EXPECT_EQ(core::ContextConfig::fromEnv().jobDeadlineMs, 0u);
  core::ContextConfig cfg = core::ContextConfig::fromEnv();
  cfg.jobDeadlineMs = 900;
  core::ExecutionContext ctx(cfg);
  EXPECT_EQ(ctx.config().jobDeadlineMs, 900u);
}

TEST(DeadlineBudget, HugeDeadlinesSaturateInsteadOfOverflowing) {
  // now + ms * 10^6 overflows int64 from ~9.22e12 ms on; the absolute
  // deadline saturates at INT64_MAX instead (signed overflow would be UB,
  // and a wrapped value would expire every job at its first check).
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (const std::uint64_t ms :
       {std::uint64_t{9'223'372'036'854}, std::uint64_t{1} << 63,
        std::numeric_limits<std::uint64_t>::max()}) {
    core::Deadline dl(ms);
    EXPECT_EQ(dl.deadlineNs(), kMax) << ms;
    EXPECT_FALSE(dl.expired()) << ms;
    EXPECT_TRUE(dl.consume()) << ms;
  }
  // A deadline with headroom is still now + ms exactly.
  const std::int64_t before = core::Deadline::nowNs();
  core::Deadline hour(3'600'000);
  EXPECT_GE(hour.deadlineNs(), before + 3'600'000'000'000LL);
  EXPECT_LT(hour.deadlineNs(), kMax);
}

TEST(DeadlineBudget, ContextConfigSnapshotsTheDeadlineEnvKnob) {
  setenv("AMSYN_JOB_DEADLINE_MS", "900", 1);
  EXPECT_EQ(core::ContextConfig::fromEnv().jobDeadlineMs, 900u);
  setenv("AMSYN_JOB_DEADLINE_MS", "junk", 1);
  EXPECT_EQ(core::ContextConfig::fromEnv().jobDeadlineMs, 0u)
      << "malformed env is ignored";
  setenv("AMSYN_JOB_DEADLINE_MS", "-1", 1);
  EXPECT_EQ(core::ContextConfig::fromEnv().jobDeadlineMs, 0u)
      << "a sign never wraps to 2^64-1";
  unsetenv("AMSYN_JOB_DEADLINE_MS");
  EXPECT_EQ(core::ContextConfig::fromEnv().jobDeadlineMs, 0u);
}

// ---------------------------------------------------------------------------
// The FlowEngine's job boundary (fabricated stages)

namespace {

/// Fails with `status` on the first `failures` executions, then passes.
class FlakyStage : public core::FlowStage {
 public:
  FlakyStage(std::size_t failures, EvalStatus status)
      : failures_(failures), status_(status) {}
  std::string name() const override { return "flaky"; }
  core::StageOutcome run(core::DesignContext&) override {
    ++runs;
    if (runs <= failures_)
      return core::StageOutcome::fail("flaky stage failure", status_);
    return core::StageOutcome::pass();
  }
  std::size_t runs = 0;

 private:
  std::size_t failures_;
  EvalStatus status_;
};

/// The environment's config with the job deadline set to `ms` (0 = none).
core::ContextConfig withDeadline(std::uint64_t ms) {
  core::ContextConfig cfg = core::ContextConfig::fromEnv();
  cfg.jobDeadlineMs = ms;
  return cfg;
}

class SleepStage : public core::FlowStage {
 public:
  explicit SleepStage(std::uint64_t ms) : ms_(ms) {}
  std::string name() const override { return "sleep"; }
  core::StageOutcome run(core::DesignContext&) override {
    ++runs;
    std::this_thread::sleep_for(std::chrono::milliseconds(ms_));
    return core::StageOutcome::pass();
  }
  std::size_t runs = 0;

 private:
  std::uint64_t ms_;
};

/// Throws `E` on the first `throws` executions, then passes.
template <class E>
class ThrowStage : public core::FlowStage {
 public:
  explicit ThrowStage(std::size_t throws = 99) : throws_(throws) {}
  std::string name() const override { return "throw"; }
  core::StageOutcome run(core::DesignContext&) override {
    if (++runs <= throws_) throw E("thrown by a test stage");
    return core::StageOutcome::pass();
  }
  std::size_t runs = 0;

 private:
  std::size_t throws_;
};

/// std::bad_alloc has no message constructor.
struct BadAlloc : std::bad_alloc {
  explicit BadAlloc(const char*) {}
};

sz::SpecSet trivialSpecs() {
  sz::SpecSet specs;
  specs.atLeast("ugf", 1e6);
  return specs;
}

std::size_t countRecords(const core::FlowResult& r, const std::string& stage) {
  std::size_t n = 0;
  for (const auto& rec : r.stageRecords) n += rec.name == stage ? 1 : 0;
  return n;
}

}  // namespace

TEST(FlowEngine, FailedStageRunsOncePerRedesignAttempt) {
  std::vector<std::unique_ptr<core::FlowStage>> stages;
  auto flaky = std::make_unique<FlakyStage>(99, EvalStatus::SingularJacobian);
  FlakyStage* flakyPtr = flaky.get();
  stages.push_back(std::move(flaky));
  core::FlowEngine engine(std::move(stages));

  core::FlowOptions opts;
  opts.maxRedesigns = 1;
  const auto result = engine.run(trivialSpecs(), nominal(), opts);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(flakyPtr->runs, 2u) << "one execution per redesign attempt";
}

// ---------------------------------------------------------------------------
// Deadlines at the engine level

TEST(FlowDeadline, ExpiryAtAStageBoundaryIsTerminal) {
  std::vector<std::unique_ptr<core::FlowStage>> stages;
  auto sleeper = std::make_unique<SleepStage>(30);
  SleepStage* sleeperPtr = sleeper.get();
  stages.push_back(std::move(sleeper));
  stages.push_back(std::make_unique<FlakyStage>(0, EvalStatus::Ok));
  core::FlowEngine engine(std::move(stages));

  core::FlowOptions opts;
  opts.maxRedesigns = 4;
  core::ExecutionContext ctx(withDeadline(5));  // expires inside the sleep stage
  core::ContextScope scope(ctx);
  const auto result = engine.run(trivialSpecs(), nominal(), opts);

  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.failureStatus, EvalStatus::DeadlineExpired);
  EXPECT_EQ(sleeperPtr->runs, 1u) << "no redesign attempts after expiry";
  EXPECT_EQ(countRecords(result, "flaky"), 0u)
      << "the boundary check must stop the attempt before the next stage";
}

TEST(FlowDeadline, RealFlowReportsDeadlineExpired) {
  // A 1 ms allowance cannot cover topology selection + sizing: the flow
  // must come back quickly with the structured deadline status, not hang
  // or burn through every redesign attempt.
  sz::SpecSet specs;
  specs.atLeast("gain_db", 36.0).atLeast("ugf", 1e7).atLeast("pm", 60.0);
  core::FlowOptions opts;
  opts.maxRedesigns = 4;
  core::ExecutionContext ctx(withDeadline(1));
  core::ContextScope scope(ctx);
  const auto result = core::synthesizeAmplifier(specs, nominal(), opts);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.failureStatus, EvalStatus::DeadlineExpired);
}

TEST(FlowDeadline, ZeroDeadlineMeansNone) {
  std::vector<std::unique_ptr<core::FlowStage>> stages;
  stages.push_back(std::make_unique<SleepStage>(5));
  core::FlowEngine engine(std::move(stages));
  core::FlowOptions opts;
  core::ExecutionContext ctx(withDeadline(0));
  core::ContextScope scope(ctx);
  const auto result = engine.run(trivialSpecs(), nominal(), opts);
  EXPECT_TRUE(result.success);
}

TEST(FlowDeadline, BatchJobsRunUnderTheCallersContextAtEveryPoolWidth) {
  // Every job of a batch reads the deadline of the context the batch was
  // submitted under, on the caller and on pool workers alike, and leaves
  // the ambient context's config untouched.
  sz::SpecSet specs;
  specs.atLeast("gain_db", 36.0).atLeast("ugf", 1e7).atLeast("pm", 60.0);
  const std::vector<sz::SpecSet> batch(3, specs);
  core::FlowOptions opts;
  opts.maxRedesigns = 4;
  for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
    core::ScopedThreadPool pool(workers);
    core::ExecutionContext ctx(withDeadline(1));
    core::ContextScope scope(ctx);
    const auto results = core::synthesizeBatch(batch, nominal(), opts);
    ASSERT_EQ(results.size(), batch.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_FALSE(results[i].success) << "workers=" << workers << " job=" << i;
      EXPECT_EQ(results[i].failureStatus, EvalStatus::DeadlineExpired)
          << "workers=" << workers << " job=" << i;
    }
  }
  EXPECT_EQ(core::ExecutionContext::ambient().config().jobDeadlineMs,
            core::ContextConfig::fromEnv().jobDeadlineMs);
}

// ---------------------------------------------------------------------------
// Exception containment at the stage boundary: a throwing stage is a failed
// stage, never an escape.  bad_alloc becomes out_of_memory, which ends the
// flow; anything else becomes internal_error, which the flow redesigns after.

TEST(OomContainment, BadAllocInAStageIsContainedAndNotRetried) {
  std::vector<std::unique_ptr<core::FlowStage>> stages;
  auto thrower = std::make_unique<ThrowStage<BadAlloc>>();
  ThrowStage<BadAlloc>* throwerPtr = thrower.get();
  stages.push_back(std::move(thrower));
  core::FlowEngine engine(std::move(stages));

  core::FlowOptions opts;
  opts.maxRedesigns = 3;
  const auto result = engine.run(trivialSpecs(), nominal(), opts);

  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.failureStatus, EvalStatus::OutOfMemory);
  EXPECT_EQ(throwerPtr->runs, 1u) << "OOM must never run again";
  EXPECT_EQ(result.stageRecords.size(), 1u);
  EXPECT_EQ(result.redesigns, 0u) << "OOM ends the flow: no redesign either";
}

TEST(FlowContainment, ThrowingStageIsAFailedStageNotAnEscape) {
  core::FlowOptions opts;
  opts.maxRedesigns = 1;

  {
    // bad_alloc: out_of_memory, one execution, tallied once.
    const std::uint64_t oom0 = counterTotal("sim.fail.out_of_memory");
    std::vector<std::unique_ptr<core::FlowStage>> stages;
    auto thrower = std::make_unique<ThrowStage<BadAlloc>>(1);
    ThrowStage<BadAlloc>* throwerPtr = thrower.get();
    stages.push_back(std::move(thrower));
    core::FlowEngine engine(std::move(stages));
    core::FlowResult result;
    ASSERT_NO_THROW(result = engine.run(trivialSpecs(), nominal(), opts));
    EXPECT_FALSE(result.success);
    EXPECT_EQ(result.failureStatus, EvalStatus::OutOfMemory);
    EXPECT_EQ(result.failureReason, "stage threw: out_of_memory");
    EXPECT_EQ(throwerPtr->runs, 1u) << "not redesigned";
    ASSERT_EQ(result.stageRecords.size(), 1u);
    EXPECT_EQ(result.stageRecords[0].status, core::StageStatus::Failed);
    EXPECT_EQ(result.stageRecords[0].evalStatus, EvalStatus::OutOfMemory);
    EXPECT_EQ(counterTotal("sim.fail.out_of_memory") - oom0, 1u);
  }
  {
    // runtime_error: internal_error, which fails the attempt; the redesign
    // runs the stage again and it passes.
    const std::uint64_t internal0 = counterTotal("sim.fail.internal_error");
    std::vector<std::unique_ptr<core::FlowStage>> stages;
    auto thrower = std::make_unique<ThrowStage<std::runtime_error>>(1);
    ThrowStage<std::runtime_error>* throwerPtr = thrower.get();
    stages.push_back(std::move(thrower));
    core::FlowEngine engine(std::move(stages));
    core::FlowResult result;
    ASSERT_NO_THROW(result = engine.run(trivialSpecs(), nominal(), opts));
    EXPECT_TRUE(result.success);
    EXPECT_EQ(throwerPtr->runs, 2u);
    EXPECT_EQ(result.redesigns, 1u);
    ASSERT_EQ(result.stageRecords.size(), 2u);
    EXPECT_EQ(result.stageRecords[0].status, core::StageStatus::Failed);
    EXPECT_EQ(result.stageRecords[0].evalStatus, EvalStatus::InternalError);
    EXPECT_EQ(result.stageRecords[0].detail, "stage threw: internal_error");
    EXPECT_EQ(result.stageRecords[1].status, core::StageStatus::Passed);
    EXPECT_EQ(counterTotal("sim.fail.internal_error") - internal0, 1u);
  }
}

// ---------------------------------------------------------------------------
// Metrics schema

TEST(MetricsSchema, ResilienceCountersAreRegisteredEagerly) {
  // Constructing one engine is enough; the counters must exist in the
  // registry snapshot even when nothing incremented them.
  core::FlowEngine engine(core::amplifierStageGraph());
  const auto snap = core::metrics::Registry::instance().snapshot();
  EXPECT_TRUE(snap.counters.count("core.flow.deadline.expired"));
}
