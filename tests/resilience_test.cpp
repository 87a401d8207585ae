// The resilience layer end to end: taxonomy split, deterministic backoff,
// wall-clock deadlines, per-stage retry, exception containment at the
// stage boundary (OOM is terminal, anything else a retryable internal
// error), and the chaos soak — seeded batch fault schedules over real
// synthesizeBatch flows at {1,2,8} threads with the evaluation cache on and
// off, asserting zero crashes and bit-deterministic results.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuit/process.hpp"
#include "core/context.hpp"
#include "core/evalcache.hpp"
#include "core/evalstatus.hpp"
#include "core/flow.hpp"
#include "core/flowgraph.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "core/resilience.hpp"
#include "sim/fault.hpp"
#include "sizing/blocks.hpp"
#include "sizing/eqmodel.hpp"
#include "sizing/simmodel.hpp"
#include "sizing/spec.hpp"

namespace core = amsyn::core;
namespace cache = amsyn::core::cache;
namespace sim = amsyn::sim;
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
// Taxonomy: transient-vs-permanent split and exception classification

TEST(EvalStatusTaxonomy, RetryableSplitMatchesTheDocumentedPolicy) {
  EXPECT_TRUE(core::isRetryable(EvalStatus::SingularJacobian));
  EXPECT_TRUE(core::isRetryable(EvalStatus::BudgetExhausted));
  EXPECT_TRUE(core::isRetryable(EvalStatus::InternalError));
  EXPECT_TRUE(core::isRetryable(EvalStatus::DeadlineExpired));

  EXPECT_FALSE(core::isRetryable(EvalStatus::Ok));
  EXPECT_FALSE(core::isRetryable(EvalStatus::DcNoConvergence));
  EXPECT_FALSE(core::isRetryable(EvalStatus::NanDetected));
  EXPECT_FALSE(core::isRetryable(EvalStatus::BadTopology));
  EXPECT_FALSE(core::isRetryable(EvalStatus::NoAcCrossing));
  EXPECT_FALSE(core::isRetryable(EvalStatus::OutOfMemory));
}

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

TEST(EvalStatusTaxonomy, WorkExhaustionCoversBudgetAndDeadline) {
  EXPECT_TRUE(core::isWorkExhaustion(EvalStatus::BudgetExhausted));
  EXPECT_TRUE(core::isWorkExhaustion(EvalStatus::DeadlineExpired));
  EXPECT_FALSE(core::isWorkExhaustion(EvalStatus::SingularJacobian));
  EXPECT_FALSE(core::isWorkExhaustion(EvalStatus::Ok));
}

// ---------------------------------------------------------------------------
// Backoff / retry policy as data

TEST(BackoffPolicy, GrowsExponentiallyAndCaps) {
  core::BackoffPolicy b;  // 10ms, x2, cap 1000
  EXPECT_EQ(b.delayMs(0), 0u);
  EXPECT_EQ(b.delayMs(1), 10u);
  EXPECT_EQ(b.delayMs(2), 20u);
  EXPECT_EQ(b.delayMs(3), 40u);
  EXPECT_EQ(b.delayMs(8), 1000u);  // 10 * 2^7 = 1280, capped
  EXPECT_EQ(core::BackoffPolicy::none().delayMs(3), 0u);
}

TEST(RetryPolicy, DefaultIsNoRetries) {
  const core::RetryPolicy p;
  EXPECT_FALSE(p.shouldRetry(EvalStatus::SingularJacobian, 1));
}

TEST(RetryPolicy, TransientPolicyFollowsTheTaxonomy) {
  const auto p = core::RetryPolicy::transient(3);
  EXPECT_TRUE(p.shouldRetry(EvalStatus::SingularJacobian, 1));
  EXPECT_TRUE(p.shouldRetry(EvalStatus::DeadlineExpired, 2));
  EXPECT_FALSE(p.shouldRetry(EvalStatus::SingularJacobian, 3));  // cap reached
  EXPECT_FALSE(p.shouldRetry(EvalStatus::NanDetected, 1));       // permanent
  EXPECT_FALSE(p.shouldRetry(EvalStatus::Ok, 1));
}

TEST(RetryPolicy, OutOfMemoryIsNeverRetried) {
  // Retrying an allocation failure re-runs the pattern that just failed
  // against a heap under pressure: no attempt budget makes it retryable.
  for (std::size_t attempts : {2u, 5u, 100u}) {
    const auto p = core::RetryPolicy::transient(attempts);
    EXPECT_FALSE(p.shouldRetry(EvalStatus::OutOfMemory, 1)) << attempts;
    EXPECT_TRUE(p.shouldRetry(EvalStatus::InternalError, 1)) << attempts;
  }
}

// ---------------------------------------------------------------------------
// Deadlines on the work budget

TEST(DeadlineBudget, AlreadyExpiredDeadlineFailsTheFirstCharge) {
  core::EvalBudget budget;
  budget.setDeadlineNs(core::EvalBudget::nowNs() - 1);
  EXPECT_FALSE(budget.consume());
  EXPECT_TRUE(budget.exhausted());
  EXPECT_TRUE(budget.deadlineExpired());
  EXPECT_EQ(budget.exhaustionStatus(), EvalStatus::DeadlineExpired);
}

TEST(DeadlineBudget, FarFutureDeadlineLeavesWorkLimitSemanticsIntact) {
  core::EvalBudget budget(3);
  budget.setDeadlineNs(core::EvalBudget::nowNs() + 3'600'000'000'000LL);  // +1h
  EXPECT_TRUE(budget.consume());
  EXPECT_TRUE(budget.consume());
  EXPECT_TRUE(budget.consume());
  EXPECT_FALSE(budget.consume());  // work limit, not the clock
  EXPECT_EQ(budget.exhaustionStatus(), EvalStatus::BudgetExhausted);
}

TEST(DeadlineBudget, CheckDeadlineLatchesBetweenStrides) {
  core::EvalBudget budget;
  budget.setDeadlineNs(core::EvalBudget::nowNs() + 3'600'000'000'000LL);
  ASSERT_TRUE(budget.consume());  // first charge checks; stride now pending
  // Move the deadline into the past: the strided path would not notice for
  // another kDeadlineCheckStride charges, but a boundary checkpoint must.
  budget.setDeadlineNs(core::EvalBudget::nowNs() - 1);
  ASSERT_FALSE(budget.consume());  // setDeadlineNs re-arms an immediate check
  EXPECT_TRUE(budget.checkDeadline());
  EXPECT_EQ(budget.exhaustionStatus(), EvalStatus::DeadlineExpired);
}

TEST(DeadlineBudget, ComposedBudgetExpiresAndLatches) {
  core::DeadlineBudget dl(0, 1);  // 1 ms
  EXPECT_TRUE(dl.armed());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(dl.expired());
  EXPECT_EQ(dl.budget().exhaustionStatus(), EvalStatus::DeadlineExpired);

  core::DeadlineBudget unarmed(0, 0);
  EXPECT_FALSE(unarmed.armed());
  EXPECT_FALSE(unarmed.expired());
}

TEST(DeadlineBudget, EffectiveDeadlinePrefersOptionThenContext) {
  // The deadline in effect is the config of the context a flow runs under.
  // The env knob is snapshotted into ContextConfig once, at context
  // creation, not read live; a job child inherits its parent's deadline,
  // and a child built with its own config (the per-job option) wins.
  unsetenv("AMSYN_JOB_DEADLINE_MS");
  EXPECT_EQ(core::ContextConfig::fromEnv().jobDeadlineMs, 0u);
  core::ContextConfig cfg = core::ContextConfig::fromEnv();
  cfg.jobDeadlineMs = 900;
  core::ExecutionContext ctx(cfg);
  EXPECT_EQ(ctx.makeChild()->config().jobDeadlineMs, 900u);
  core::ContextConfig job = cfg;
  job.jobDeadlineMs = 250;
  EXPECT_EQ(ctx.makeChild(job)->config().jobDeadlineMs, 250u) << "explicit option wins";
}

TEST(DeadlineBudget, HugeDeadlinesSaturateInsteadOfOverflowing) {
  // now + ms * 10^6 overflows int64 from ~9.22e12 ms on; the absolute
  // deadline saturates at INT64_MAX instead (signed overflow would be UB,
  // and a wrapped value would expire every job at its first check).
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (const std::uint64_t ms :
       {std::uint64_t{9'223'372'036'854}, std::uint64_t{1} << 63,
        std::numeric_limits<std::uint64_t>::max()}) {
    core::DeadlineBudget dl(0, ms);
    EXPECT_TRUE(dl.armed()) << ms;
    EXPECT_EQ(dl.deadlineNs(), kMax) << ms;
    EXPECT_FALSE(dl.expired()) << ms;
    EXPECT_TRUE(dl.budget().consume()) << ms;
  }
  // A deadline with headroom is still now + ms exactly.
  const std::int64_t before = core::EvalBudget::nowNs();
  core::DeadlineBudget hour(0, 3'600'000);
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

TEST(DeadlineBudget, DeadlineMakesSimEvaluationsUncacheable) {
  const sz::OpampTestbench tb{5e-12, 2.2, true};
  auto tmpl = sz::twoStageTemplate(nominal(), tb);
  const std::vector<double> x = {60e-6, 30e-6, 40e-6, 120e-6, 60e-6, 2e-12, 50e-6};
  {
    sz::SimulationModel model(tmpl, nominal(), {});
    EXPECT_TRUE(model.cacheKey(x).has_value());
  }
  {
    sz::SimModelOptions opts;
    opts.deadlineNs = core::EvalBudget::nowNs() + 1'000'000'000LL;
    sz::SimulationModel model(tmpl, nominal(), opts);
    EXPECT_FALSE(model.cacheKey(x).has_value())
        << "wall-clock-truncatable evaluations must never be cached";
  }
}

// ---------------------------------------------------------------------------
// Stage-level retry inside the FlowEngine (fabricated stages)

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

TEST(FlowStageRetry, TransientFailureRetriesUntilPassAndCountsIt) {
  const std::uint64_t attempts0 = counterTotal("core.flow.retry.attempts");
  const std::uint64_t successes0 = counterTotal("core.flow.retry.successes");

  std::vector<std::unique_ptr<core::FlowStage>> stages;
  auto flaky = std::make_unique<FlakyStage>(2, EvalStatus::SingularJacobian);
  FlakyStage* flakyPtr = flaky.get();
  stages.push_back(std::move(flaky));
  core::FlowEngine engine(std::move(stages));

  core::FlowOptions opts;
  opts.maxRedesigns = 0;
  opts.stageRetry = core::RetryPolicy::transient(3);
  opts.stageRetry.backoff = core::BackoffPolicy::none();
  const auto result = engine.run(trivialSpecs(), nominal(), opts);

  EXPECT_TRUE(result.success);
  EXPECT_EQ(flakyPtr->runs, 3u);
  EXPECT_EQ(countRecords(result, "flaky"), 3u)
      << "every execution must leave its own StageRecord";
  EXPECT_EQ(result.stageRecords[0].status, core::StageStatus::Failed);
  EXPECT_EQ(result.stageRecords[1].status, core::StageStatus::Failed);
  EXPECT_EQ(result.stageRecords[2].status, core::StageStatus::Passed);
  EXPECT_EQ(counterTotal("core.flow.retry.attempts") - attempts0, 2u);
  EXPECT_EQ(counterTotal("core.flow.retry.successes") - successes0, 1u);
}

TEST(FlowStageRetry, PermanentFailureIsNeverRetried) {
  std::vector<std::unique_ptr<core::FlowStage>> stages;
  auto flaky = std::make_unique<FlakyStage>(99, EvalStatus::BadTopology);
  FlakyStage* flakyPtr = flaky.get();
  stages.push_back(std::move(flaky));
  core::FlowEngine engine(std::move(stages));

  core::FlowOptions opts;
  opts.maxRedesigns = 0;
  opts.stageRetry = core::RetryPolicy::transient(5);
  opts.stageRetry.backoff = core::BackoffPolicy::none();
  const auto result = engine.run(trivialSpecs(), nominal(), opts);

  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.failureStatus, EvalStatus::BadTopology);
  EXPECT_EQ(flakyPtr->runs, 1u);
}

TEST(FlowStageRetry, ExhaustedRetriesFailTheAttemptAndCount) {
  const std::uint64_t exhausted0 = counterTotal("core.flow.retry.exhausted");
  std::vector<std::unique_ptr<core::FlowStage>> stages;
  auto flaky = std::make_unique<FlakyStage>(99, EvalStatus::SingularJacobian);
  FlakyStage* flakyPtr = flaky.get();
  stages.push_back(std::move(flaky));
  core::FlowEngine engine(std::move(stages));

  core::FlowOptions opts;
  opts.maxRedesigns = 0;
  opts.stageRetry = core::RetryPolicy::transient(2);
  opts.stageRetry.backoff = core::BackoffPolicy::none();
  const auto result = engine.run(trivialSpecs(), nominal(), opts);

  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.failureStatus, EvalStatus::SingularJacobian);
  EXPECT_EQ(flakyPtr->runs, 2u);  // maxAttempts total executions
  EXPECT_EQ(counterTotal("core.flow.retry.exhausted") - exhausted0, 1u);
}

namespace {

/// Supplies the legacy two-stage cell at its model's initial point as the
/// attempt's only candidate: a real, buildable design with no optimizer.
class InitialPointCandidateStage : public core::FlowStage {
 public:
  std::string name() const override { return "initial-candidate"; }
  core::StageOutcome run(core::DesignContext& ctx) override {
    const sz::ComposedOpampModel model(sz::OpampStructure::legacyTwoStage(), ctx.proc,
                                       ctx.opts.loadCap);
    core::CandidateDesign cand;
    cand.topology = "two-stage-miller";
    cand.x = model.initialPoint();
    cand.predicted = model.evaluate(cand.x);
    ctx.candidates.push_back(std::move(cand));
    return core::StageOutcome::pass();
  }
};

/// The real pre-layout verify stage, whose first execution is reported as a
/// singular Jacobian after it has measured, so the engine retries it.
class FailOnceAfterVerifyStage : public core::FlowStage {
 public:
  std::string name() const override { return verify_.name(); }
  core::StageOutcome run(core::DesignContext& ctx) override {
    const auto outcome = verify_.run(ctx);
    if (++runs == 1)
      return core::StageOutcome::fail("singular Jacobian (stub)",
                                      EvalStatus::SingularJacobian);
    return outcome;
  }
  std::size_t runs = 0;

 private:
  core::VerifyStage verify_{core::VerifyPhase::PreLayout};
};

bool sameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

TEST(FlowStageRetry, RetriedPreLayoutVerifyRemeasuresTheSameNetlist) {
  std::vector<std::unique_ptr<core::FlowStage>> stages;
  stages.push_back(std::make_unique<InitialPointCandidateStage>());
  stages.push_back(std::make_unique<core::BuildStage>());
  auto verify = std::make_unique<FailOnceAfterVerifyStage>();
  FailOnceAfterVerifyStage* verifyPtr = verify.get();
  stages.push_back(std::move(verify));
  core::FlowEngine engine(std::move(stages));

  core::FlowOptions opts;
  opts.maxRedesigns = 0;
  opts.stageRetry = core::RetryPolicy::transient(3);
  opts.stageRetry.backoff = core::BackoffPolicy::none();
  const auto result = engine.run(trivialSpecs(), nominal(), opts);

  EXPECT_EQ(verifyPtr->runs, 2u);
  ASSERT_EQ(result.verifications.size(), 2u);
  const auto& first = result.verifications[0];
  const auto& retried = result.verifications[1];
  EXPECT_EQ(first.measured.count("_infeasible"), 0u);
  EXPECT_EQ(retried.passed, first.passed);
  ASSERT_EQ(retried.measured.size(), first.measured.size());
  auto a = first.measured.begin();
  auto b = retried.measured.begin();
  for (; a != first.measured.end(); ++a, ++b) {
    EXPECT_EQ(b->first, a->first);
    EXPECT_TRUE(sameBits(b->second, a->second))
        << a->first << ": " << a->second << " vs " << b->second;
  }
  EXPECT_FALSE(result.schematic.devices().empty());
}

TEST(FlowStageRetry, DefaultOptionsKeepTheOldSingleAttemptBehavior) {
  std::vector<std::unique_ptr<core::FlowStage>> stages;
  auto flaky = std::make_unique<FlakyStage>(99, EvalStatus::SingularJacobian);
  FlakyStage* flakyPtr = flaky.get();
  stages.push_back(std::move(flaky));
  core::FlowEngine engine(std::move(stages));

  core::FlowOptions opts;
  opts.maxRedesigns = 1;
  const auto result = engine.run(trivialSpecs(), nominal(), opts);
  EXPECT_FALSE(result.success);
  EXPECT_EQ(flakyPtr->runs, 2u) << "one execution per redesign attempt, no retries";
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
  const auto result = engine.run(trivialSpecs(), nominal(), opts, ctx);

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
  const auto result = engine.run(trivialSpecs(), nominal(), opts, ctx);
  EXPECT_TRUE(result.success);
}

// ---------------------------------------------------------------------------
// Exception containment at the stage boundary: a throwing stage is a failed
// stage, never an escape.  bad_alloc becomes out_of_memory, which ends the
// flow; anything else becomes internal_error, which stage retry re-runs.

TEST(OomContainment, BadAllocInAStageIsContainedAndNotRetried) {
  std::vector<std::unique_ptr<core::FlowStage>> stages;
  auto thrower = std::make_unique<ThrowStage<BadAlloc>>();
  ThrowStage<BadAlloc>* throwerPtr = thrower.get();
  stages.push_back(std::move(thrower));
  core::FlowEngine engine(std::move(stages));

  core::FlowOptions opts;
  opts.maxRedesigns = 3;
  opts.stageRetry = core::RetryPolicy::transient(5);
  opts.stageRetry.backoff = core::BackoffPolicy::none();
  const auto result = engine.run(trivialSpecs(), nominal(), opts);

  EXPECT_FALSE(result.success);
  EXPECT_EQ(result.failureStatus, EvalStatus::OutOfMemory);
  EXPECT_EQ(throwerPtr->runs, 1u) << "OOM must never be retried";
  EXPECT_EQ(result.stageRecords.size(), 1u);
  EXPECT_EQ(result.redesigns, 0u) << "OOM ends the flow: no redesign either";
}

TEST(FlowContainment, ThrowingStageIsAFailedStageNotAnEscape) {
  core::FlowOptions opts;
  opts.maxRedesigns = 0;
  opts.stageRetry = core::RetryPolicy::transient(3);
  opts.stageRetry.backoff = core::BackoffPolicy::none();

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
    EXPECT_EQ(throwerPtr->runs, 1u) << "not retried";
    ASSERT_EQ(result.stageRecords.size(), 1u);
    EXPECT_EQ(result.stageRecords[0].status, core::StageStatus::Failed);
    EXPECT_EQ(result.stageRecords[0].evalStatus, EvalStatus::OutOfMemory);
    EXPECT_EQ(counterTotal("sim.fail.out_of_memory") - oom0, 1u);
  }
  {
    // runtime_error: internal_error, retried by stageRetry until it passes.
    const std::uint64_t internal0 = counterTotal("sim.fail.internal_error");
    const std::uint64_t retries0 = counterTotal("core.flow.retry.attempts");
    std::vector<std::unique_ptr<core::FlowStage>> stages;
    auto thrower = std::make_unique<ThrowStage<std::runtime_error>>(1);
    ThrowStage<std::runtime_error>* throwerPtr = thrower.get();
    stages.push_back(std::move(thrower));
    core::FlowEngine engine(std::move(stages));
    core::FlowResult result;
    ASSERT_NO_THROW(result = engine.run(trivialSpecs(), nominal(), opts));
    EXPECT_TRUE(result.success);
    EXPECT_EQ(throwerPtr->runs, 2u);
    ASSERT_EQ(result.stageRecords.size(), 2u);
    EXPECT_EQ(result.stageRecords[0].status, core::StageStatus::Failed);
    EXPECT_EQ(result.stageRecords[0].evalStatus, EvalStatus::InternalError);
    EXPECT_EQ(result.stageRecords[0].detail, "stage threw: internal_error");
    EXPECT_EQ(result.stageRecords[1].status, core::StageStatus::Passed);
    EXPECT_EQ(counterTotal("sim.fail.internal_error") - internal0, 1u);
    EXPECT_EQ(counterTotal("core.flow.retry.attempts") - retries0, 1u);
  }
}

// ---------------------------------------------------------------------------
// Batch fault schedule: pure-function draws, window gating, thread-count
// invariance of the per-job fault sequence.

namespace {

std::vector<bool> drawSequence(std::size_t jobIndex, sim::FaultSite site,
                               std::size_t n, bool openWindow) {
  sim::BatchFaultScope scope(jobIndex);
  std::optional<sim::SolverFaultWindow> window;
  if (openWindow) window.emplace();
  std::vector<bool> seq(n);
  for (std::size_t i = 0; i < n; ++i) seq[i] = sim::takeBatchFault(site);
  return seq;
}

}  // namespace

TEST(BatchFaults, DisarmedScheduleNeverFires) {
  ASSERT_FALSE(sim::batchFaultsArmed());
  const auto seq = drawSequence(0, sim::FaultSite::StageRun, 32, true);
  for (const bool hit : seq) EXPECT_FALSE(hit);
}

TEST(BatchFaults, DrawsArePureFunctionsOfJobSiteOccurrence) {
  sim::BatchFaultPlan plan;
  plan.seed = 99;
  plan.rate(sim::FaultSite::StageRun) = 0.5;
  sim::ScopedBatchFaults armed(plan);

  const auto a = drawSequence(3, sim::FaultSite::StageRun, 64, false);
  const auto b = drawSequence(3, sim::FaultSite::StageRun, 64, false);
  EXPECT_EQ(a, b) << "same (job, site, occurrence) must reproduce";
  EXPECT_NE(a, drawSequence(4, sim::FaultSite::StageRun, 64, false))
      << "different jobs draw decorrelated sequences";

  std::size_t hits = 0;
  for (const bool hit : a) hits += hit ? 1 : 0;
  EXPECT_GT(hits, 16u);  // rate 0.5 over 64 draws: binomial, far from 0/64
  EXPECT_LT(hits, 48u);
}

TEST(BatchFaults, SequencesAreThreadCountInvariant) {
  sim::BatchFaultPlan plan;
  plan.seed = 7;
  plan.rate(sim::FaultSite::StageRun) = 0.3;
  sim::ScopedBatchFaults armed(plan);

  // Reference sequences, drawn serially.
  std::vector<std::vector<bool>> reference(8);
  for (std::size_t j = 0; j < reference.size(); ++j)
    reference[j] = drawSequence(j, sim::FaultSite::StageRun, 32, false);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    core::ScopedThreadPool scoped(threads);
    const auto parallelDrawn = core::parallelMap(reference.size(), [&](std::size_t j) {
      return drawSequence(j, sim::FaultSite::StageRun, 32, false);
    });
    EXPECT_EQ(parallelDrawn, reference) << "threads=" << threads;
  }
}

TEST(BatchFaults, SolverSitesFireOnlyInsideAWindow) {
  sim::BatchFaultPlan plan;
  plan.seed = 1;
  plan.rate(sim::FaultSite::DcNewton) = 1.0;
  plan.rate(sim::FaultSite::BudgetCharge) = 1.0;
  sim::ScopedBatchFaults armed(plan);

  const auto closed = drawSequence(0, sim::FaultSite::DcNewton, 8, false);
  for (const bool hit : closed) EXPECT_FALSE(hit) << "no window, no solver faults";
  const auto open = drawSequence(0, sim::FaultSite::DcNewton, 8, true);
  for (const bool hit : open) EXPECT_TRUE(hit);

  // consumeWork consults the BudgetCharge site through the same gate.
  {
    sim::BatchFaultScope scope(0);
    EXPECT_TRUE(sim::consumeWork(nullptr));
    sim::SolverFaultWindow window;
    EXPECT_FALSE(sim::consumeWork(nullptr)) << "injected exhaustion";
  }
}

TEST(BatchFaults, NoScopeMeansNoFaults) {
  sim::BatchFaultPlan plan;
  plan.seed = 1;
  plan.rate(sim::FaultSite::StageRun) = 1.0;
  sim::ScopedBatchFaults armed(plan);
  EXPECT_FALSE(sim::takeBatchFault(sim::FaultSite::StageRun))
      << "threads with no bound job must never draw faults";
}

TEST(BatchFaults, ScopesNestAndRestore) {
  sim::BatchFaultPlan plan;
  plan.seed = 5;
  plan.rate(sim::FaultSite::StageRun) = 0.5;
  sim::ScopedBatchFaults armed(plan);

  const auto ref = drawSequence(1, sim::FaultSite::StageRun, 8, false);
  sim::BatchFaultScope outer(1);
  std::vector<bool> outerSeq;
  for (std::size_t i = 0; i < 4; ++i)
    outerSeq.push_back(sim::takeBatchFault(sim::FaultSite::StageRun));
  {
    sim::BatchFaultScope inner(2);  // fresh counters for job 2
    (void)sim::takeBatchFault(sim::FaultSite::StageRun);
  }
  for (std::size_t i = 0; i < 4; ++i)  // outer counters resume where they left off
    outerSeq.push_back(sim::takeBatchFault(sim::FaultSite::StageRun));
  EXPECT_EQ(outerSeq, ref);
}

// ---------------------------------------------------------------------------
// Chaos soak: real flows under a seeded fault schedule at {1,2,8} threads,
// cache on/off.  Zero hangs (the suite's ctest TIMEOUT enforces it), zero
// crashes, every job terminal, and the surviving results bit-identical
// across every configuration.

namespace {

sz::SynthesisOptions fastSynthesisOptions() {
  sz::SynthesisOptions opts;
  opts.seed = 11;
  opts.multistarts = 2;
  opts.anneal.stagnationStages = 2;
  opts.anneal.coolingRate = 0.7;
  opts.refineEvaluations = 40;
  return opts;
}

std::vector<sz::SpecSet> chaosSpecs() {
  std::vector<sz::SpecSet> batch(3);
  batch[0].atLeast("gain_db", 36.0).atLeast("ugf", 1e7).atLeast("pm", 60.0).atMost(
      "power", 4e-3);
  batch[1].atLeast("gain_db", 55.0).atLeast("ugf", 5e6).atLeast("pm", 55.0).minimize(
      "power", 0.3, 1e-3);
  batch[2].atLeast("gain_db", 180.0).atLeast("ugf", 1e10).atLeast("pm", 75.0);
  return batch;
}

core::FlowOptions chaosFlowOptions() {
  core::FlowOptions opts;
  opts.loadCap = 2e-12;
  opts.seed = 7;
  opts.maxRedesigns = 1;
  opts.synthesis = fastSynthesisOptions();
  opts.layout.annealPlacement = false;
  opts.stageRetry = core::RetryPolicy::transient(3);
  opts.stageRetry.backoff = core::BackoffPolicy::none();
  return opts;
}

void expectResultsIdentical(const std::vector<core::FlowResult>& a,
                            const std::vector<core::FlowResult>& b,
                            const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].success, b[i].success) << "job " << i;
    EXPECT_EQ(a[i].topology, b[i].topology) << "job " << i;
    EXPECT_EQ(a[i].failureStatus, b[i].failureStatus) << "job " << i;
    EXPECT_EQ(a[i].failureReason, b[i].failureReason) << "job " << i;
    EXPECT_EQ(a[i].redesigns, b[i].redesigns) << "job " << i;
    ASSERT_EQ(a[i].designPoint.size(), b[i].designPoint.size()) << "job " << i;
    for (std::size_t k = 0; k < a[i].designPoint.size(); ++k)
      EXPECT_TRUE(sameBits(a[i].designPoint[k], b[i].designPoint[k]))
          << "job " << i << " x[" << k << "]";
    ASSERT_EQ(a[i].stageRecords.size(), b[i].stageRecords.size()) << "job " << i;
    for (std::size_t k = 0; k < a[i].stageRecords.size(); ++k) {
      const auto& ra = a[i].stageRecords[k];
      const auto& rb = b[i].stageRecords[k];
      EXPECT_EQ(ra.name, rb.name) << "job " << i << " record " << k;
      EXPECT_EQ(ra.attempt, rb.attempt) << "job " << i << " record " << k;
      EXPECT_EQ(ra.status, rb.status) << "job " << i << " record " << k;
      EXPECT_EQ(ra.evalStatus, rb.evalStatus) << "job " << i << " record " << k;
      EXPECT_EQ(ra.detail, rb.detail) << "job " << i << " record " << k;
    }
  }
}

}  // namespace

TEST(ChaosSoak, InjectedFaultsNeverCrashAndResultsAreThreadAndCacheInvariant) {
  sim::BatchFaultPlan plan;
  plan.seed = 2026;
  plan.rate(sim::FaultSite::StageRun) = 0.10;
  plan.rate(sim::FaultSite::DcNewton) = 0.05;
  plan.rate(sim::FaultSite::LuFactor) = 0.05;
  sim::ScopedBatchFaults armed(plan);

  auto& c = cache::EvalCache::instance();
  const auto batch = chaosSpecs();
  const auto opts = chaosFlowOptions();
  const std::uint64_t retries0 = counterTotal("core.flow.retry.attempts");

  std::optional<std::vector<core::FlowResult>> reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const bool cacheOn : {false, true}) {
      c.clear();
      // A child of the armed context, so the plan still governs every job.
      core::ExecutionContext& armedCtx = core::ExecutionContext::current();
      core::ContextConfig cfg = armedCtx.config();
      cfg.evalCacheEnabled = cacheOn;
      const auto ctx = armedCtx.makeChild(cfg);
      core::ContextScope scope(*ctx);
      core::ScopedThreadPool scoped(threads);
      auto out = core::synthesizeBatch(batch, nominal(), opts);
      ASSERT_EQ(out.size(), batch.size()) << "every job must come back";
      for (const auto& r : out) {
        EXPECT_FALSE(r.stageRecords.empty());
        EXPECT_TRUE(r.success || !r.failureReason.empty());
        // No stage runs more often per attempt than the retry cap allows.
        for (const auto& rec : r.stageRecords) {
          std::size_t executions = 0;
          for (const auto& other : r.stageRecords)
            executions += other.name == rec.name && other.attempt == rec.attempt ? 1 : 0;
          EXPECT_LE(executions, opts.stageRetry.maxAttempts) << rec.name;
        }
      }
      if (!reference) {
        reference = std::move(out);
      } else {
        expectResultsIdentical(*reference, out,
                               "threads=" + std::to_string(threads) +
                                   " cache=" + (cacheOn ? "on" : "off"));
      }
    }
  }
  EXPECT_GT(counterTotal("core.flow.retry.attempts"), retries0)
      << "the armed schedule must reach the batch and be retried";
  c.clear();
}

TEST(ChaosSoak, SaturatedStageFaultsDegradeToFailedJobsNotCrashes) {
  sim::BatchFaultPlan plan;
  plan.seed = 3;
  plan.rate(sim::FaultSite::StageRun) = 1.0;  // every stage execution fails
  sim::ScopedBatchFaults armed(plan);

  auto opts = chaosFlowOptions();
  opts.stageRetry = core::RetryPolicy::transient(2);
  opts.stageRetry.backoff = core::BackoffPolicy::none();
  const auto out = core::synthesizeBatch(chaosSpecs(), nominal(), opts);
  ASSERT_EQ(out.size(), chaosSpecs().size());
  for (const auto& r : out) {
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.failureStatus, EvalStatus::InternalError);
    EXPECT_EQ(r.redesigns, opts.maxRedesigns);
    // The first stage, twice per attempt: retries granted, then exhausted.
    EXPECT_EQ(r.stageRecords.size(), 2 * (opts.maxRedesigns + 1));
  }
}

TEST(ChaosSoak, InjectedDeadlineChecksTerminateJobsWithDeadlineExpired) {
  sim::BatchFaultPlan plan;
  plan.seed = 4;
  plan.rate(sim::FaultSite::DeadlineCheck) = 1.0;
  sim::ScopedBatchFaults armed(plan);

  const auto out = core::synthesizeBatch(chaosSpecs(), nominal(), chaosFlowOptions());
  ASSERT_EQ(out.size(), chaosSpecs().size());
  for (const auto& r : out) {
    EXPECT_FALSE(r.success);
    EXPECT_EQ(r.failureStatus, EvalStatus::DeadlineExpired);
  }
}

TEST(BatchFaults, ScheduleReachesSynthesizeBatch) {
  // synthesizeBatch binds each job's fault scope, so a plan armed on the
  // caller's context governs every job: with every stage execution failing
  // and no retries, no design can succeed.
  sim::BatchFaultPlan plan;
  plan.seed = 5;
  plan.rate(sim::FaultSite::StageRun) = 1.0;
  sim::ScopedBatchFaults armed(plan);

  auto opts = chaosFlowOptions();
  opts.stageRetry = core::RetryPolicy::none();
  const auto out = core::synthesizeBatch(chaosSpecs(), nominal(), opts);
  ASSERT_EQ(out.size(), chaosSpecs().size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_FALSE(out[i].success) << "job " << i;
    EXPECT_EQ(out[i].failureStatus, EvalStatus::InternalError) << "job " << i;
  }
}

// ---------------------------------------------------------------------------
// Metrics schema

TEST(MetricsSchema, ResilienceCountersAreRegisteredEagerly) {
  // Constructing one engine is enough; the counters must exist in the
  // registry snapshot even when nothing incremented them.
  core::FlowEngine engine(core::amplifierStageGraph());
  const auto snap = core::metrics::Registry::instance().snapshot();
  for (const char* name :
       {"core.flow.retry.attempts", "core.flow.retry.successes",
        "core.flow.retry.exhausted", "core.flow.deadline.expired"})
    EXPECT_TRUE(snap.counters.count(name)) << name;
}
