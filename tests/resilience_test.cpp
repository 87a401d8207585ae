// The resilience layer end to end: taxonomy split, deterministic backoff,
// wall-clock deadlines, per-stage and per-job retry, admission control,
// crash-consistent journaling (proven by truncating the journal at every
// byte boundary), OOM classification, and the chaos soak — seeded batch
// fault schedules over real flows at {1,2,8} threads with the evaluation
// cache on and off, asserting zero crashes and bit-deterministic results.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <new>
#include <sstream>
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
#include "core/jobqueue.hpp"
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

std::string tempPath(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void writeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

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
  EXPECT_FALSE(core::isRetryable(EvalStatus::Rejected));
}

TEST(EvalStatusTaxonomy, NewCodesHaveStableNames) {
  EXPECT_STREQ(core::evalStatusName(EvalStatus::DeadlineExpired), "deadline_expired");
  EXPECT_STREQ(core::evalStatusName(EvalStatus::OutOfMemory), "out_of_memory");
  EXPECT_STREQ(core::evalStatusName(EvalStatus::Rejected), "rejected");
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

class ThrowStage : public core::FlowStage {
 public:
  std::string name() const override { return "throw"; }
  core::StageOutcome run(core::DesignContext&) override {
    throw std::bad_alloc{};
  }
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
// OOM containment: a throwing stage (or a bad_alloc anywhere inside a job)
// becomes out_of_memory, which nothing retries.

TEST(OomContainment, BadAllocInAStageIsContainedAndNotRetried) {
  auto makeStages = [] {
    std::vector<std::unique_ptr<core::FlowStage>> stages;
    stages.push_back(std::make_unique<ThrowStage>());
    return stages;
  };
  // The stage throws out of run(); the engine does not catch (stages are
  // trusted engine components) but the JobQueue's task boundary must.
  core::JobQueueOptions qopts;
  qopts.stageFactory = makeStages;
  qopts.retry = core::RetryPolicy::transient(5);
  qopts.retry.backoff = core::BackoffPolicy::none();
  qopts.flow.maxRedesigns = 0;

  const auto out = core::runBatchResilient({trivialSpecs()}, nominal(), qopts);
  ASSERT_EQ(out.jobs.size(), 1u);
  EXPECT_EQ(out.jobs[0].state, core::JobState::Failed);
  EXPECT_EQ(out.jobs[0].result.failureStatus, EvalStatus::OutOfMemory);
  EXPECT_EQ(out.jobs[0].attempts, 1u) << "OOM must never be retried";
}

// ---------------------------------------------------------------------------
// Job queue: admission control, per-job retry, structured rejection

namespace {

core::JobQueueOptions passingQueueOptions() {
  core::JobQueueOptions opts;
  opts.stageFactory = [] {
    std::vector<std::unique_ptr<core::FlowStage>> stages;
    stages.push_back(std::make_unique<FlakyStage>(0, EvalStatus::Ok));
    return stages;
  };
  opts.flow.maxRedesigns = 0;
  return opts;
}

std::vector<sz::SpecSet> trivialBatch(std::size_t n) {
  return std::vector<sz::SpecSet>(n, trivialSpecs());
}

}  // namespace

TEST(JobQueue, AdmissionCapShedsOverflowWithStructuredRejection) {
  const std::uint64_t rejected0 = counterTotal("core.jobs.rejected");
  auto opts = passingQueueOptions();
  opts.maxPending = 3;
  const auto out = core::JobQueue(opts).run(trivialBatch(6), nominal());

  ASSERT_EQ(out.jobs.size(), 6u);
  EXPECT_EQ(out.admitted, 3u);
  EXPECT_EQ(out.rejected, 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(out.jobs[i].state, core::JobState::Succeeded) << "job " << i;
    EXPECT_TRUE(out.jobs[i].result.success);
  }
  for (std::size_t i = 3; i < 6; ++i) {
    EXPECT_EQ(out.jobs[i].state, core::JobState::Rejected) << "job " << i;
    EXPECT_FALSE(out.jobs[i].result.success);
    EXPECT_EQ(out.jobs[i].result.failureStatus, EvalStatus::Rejected);
    EXPECT_NE(out.jobs[i].result.failureReason.find("admission control"),
              std::string::npos);
    EXPECT_EQ(out.jobs[i].attempts, 0u);
  }
  EXPECT_EQ(counterTotal("core.jobs.rejected") - rejected0, 3u);

  const std::string report = core::batchRunReportJson(out);
  EXPECT_NE(report.find("\"rejected\": 3"), std::string::npos) << report;
}

TEST(JobQueue, UnboundedQueueAdmitsEverything) {
  const auto out = core::JobQueue(passingQueueOptions()).run(trivialBatch(4), nominal());
  EXPECT_EQ(out.admitted, 4u);
  EXPECT_EQ(out.rejected, 0u);
  for (const auto& rec : out.jobs)
    EXPECT_EQ(rec.state, core::JobState::Succeeded);
}

TEST(JobQueue, JobLevelRetryRerunsTheWholeFlow) {
  const std::uint64_t retries0 = counterTotal("core.jobs.retries");
  // The first engine run fails transiently; the factory's shared counter
  // makes the second run pass — exactly a transient environmental fault.
  auto failsRemaining = std::make_shared<std::atomic<int>>(1);
  core::JobQueueOptions opts;
  opts.stageFactory = [failsRemaining] {
    std::vector<std::unique_ptr<core::FlowStage>> stages;
    const int remaining = failsRemaining->fetch_sub(1);
    stages.push_back(std::make_unique<FlakyStage>(
        remaining > 0 ? 99 : 0, EvalStatus::SingularJacobian));
    return stages;
  };
  opts.flow.maxRedesigns = 0;
  opts.retry = core::RetryPolicy::transient(3);
  opts.retry.backoff = core::BackoffPolicy::none();

  const auto out = core::JobQueue(opts).run(trivialBatch(1), nominal());
  ASSERT_EQ(out.jobs.size(), 1u);
  EXPECT_EQ(out.jobs[0].state, core::JobState::Succeeded);
  EXPECT_EQ(out.jobs[0].attempts, 2u);
  EXPECT_EQ(out.retried, 1u);
  EXPECT_EQ(counterTotal("core.jobs.retries") - retries0, 1u);
}

TEST(JobQueue, FailedJobsReportTheFlowsStatus) {
  core::JobQueueOptions opts;
  opts.stageFactory = [] {
    std::vector<std::unique_ptr<core::FlowStage>> stages;
    stages.push_back(std::make_unique<FlakyStage>(99, EvalStatus::NanDetected));
    return stages;
  };
  opts.flow.maxRedesigns = 0;
  const auto out = core::JobQueue(opts).run(trivialBatch(2), nominal());
  for (const auto& rec : out.jobs) {
    EXPECT_EQ(rec.state, core::JobState::Failed);
    EXPECT_EQ(rec.result.failureStatus, EvalStatus::NanDetected);
  }
}

// ---------------------------------------------------------------------------
// Journal lines: round-trip, corruption rejection

TEST(JobJournal, EntryRoundTripsThroughItsLine) {
  core::JobJournalEntry e;
  e.job = 17;
  e.attempts = 3;
  e.success = true;
  e.topology = "two-stage-miller";
  e.status = EvalStatus::Ok;
  e.failureReason = "";
  e.redesigns = 2;
  const auto parsed = core::JobJournalEntry::parseLine(e.toLine());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, e);
}

TEST(JobJournal, EntryWithHostileStringsRoundTrips) {
  core::JobJournalEntry e;
  e.job = 0;
  e.success = false;
  e.topology = "a\"b\\c";
  e.status = EvalStatus::DeadlineExpired;
  e.failureReason = "line1\nline2\ttab\rcr \x01 control {\"json\":1}";
  const auto parsed = core::JobJournalEntry::parseLine(e.toLine());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, e);
}

TEST(JobJournal, EverySingleByteCorruptionIsRejected) {
  core::JobJournalEntry e;
  e.job = 5;
  e.attempts = 2;
  e.success = true;
  e.topology = "folded-cascode";
  e.status = EvalStatus::Ok;
  e.failureReason = "quote\" and backslash\\";
  e.redesigns = 1;
  const std::string line = e.toLine();
  for (std::size_t i = 0; i < line.size(); ++i) {
    std::string bad = line;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    const auto parsed = core::JobJournalEntry::parseLine(bad);
    // Either the checksum/framing rejects it outright, or (for a flip
    // inside the crc digits themselves) the recomputed crc mismatches.
    EXPECT_FALSE(parsed.has_value()) << "byte " << i << " flip accepted: " << bad;
  }
}

TEST(JobJournal, NumbersPastUint64AreRejectedNotWrapped) {
  // A CRC-valid line whose job number overflows uint64: wrapping would load
  // it as job 5 (18446744073709551621 mod 2^64).  The edited prefix is
  // re-signed with the journal's FNV-1a 64, so only the number is at fault.
  const std::string crcPat = ",\"crc\":";
  const auto sign = [&](const std::string& prefix) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : prefix) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    return prefix + crcPat + std::to_string(h) + "}";
  };
  core::JobJournalEntry e;
  e.job = 5;
  e.success = true;
  const std::string line = e.toLine();
  std::string prefix = line.substr(0, line.rfind(crcPat));
  ASSERT_EQ(sign(prefix), line);  // the re-signing reproduces the writer's

  const std::string jobPat = "\"job\":5,";
  const auto at = prefix.find(jobPat);
  ASSERT_NE(at, std::string::npos);
  prefix.replace(at, jobPat.size(), "\"job\":18446744073709551621,");
  const std::string forged = sign(prefix);
  EXPECT_FALSE(core::JobJournalEntry::parseLine(forged).has_value()) << forged;
}

TEST(JobJournal, LoadStopsAtTheFirstInvalidLine) {
  const std::string path = tempPath("journal_stop.jsonl");
  core::JobJournalEntry a;
  a.job = 0;
  a.success = true;
  core::JobJournalEntry b;
  b.job = 1;
  b.success = false;
  b.status = EvalStatus::DcNoConvergence;
  writeFile(path, a.toLine() + "\n" + "garbage line\n" + b.toLine() + "\n");
  const auto loaded = core::BatchJournal::load(path);
  EXPECT_EQ(loaded.size(), 1u) << "entries after the tear cannot be trusted";
  EXPECT_TRUE(loaded.count(0));
  std::remove(path.c_str());
}

TEST(JobJournal, MissingFileIsAnEmptyJournal) {
  EXPECT_TRUE(core::BatchJournal::load(tempPath("nonexistent.jsonl")).empty());
}

// The crash-consistency property, proven exhaustively: a journal truncated
// at EVERY byte boundary loads exactly the complete lines before the cut.
TEST(JobJournal, TruncationAtEveryByteBoundaryLoadsTheValidPrefix) {
  std::vector<core::JobJournalEntry> entries(4);
  entries[0] = {0, 1, true, "two-stage-miller", EvalStatus::Ok, "", 0};
  entries[1] = {1, 3, false, "ota", EvalStatus::SingularJacobian,
                "verify failed: singular_jacobian", 2};
  entries[2] = {2, 1, false, "", EvalStatus::Rejected,
                "admission control: queue capacity 3 exceeded", 0};
  entries[3] = {3, 2, true, "folded\"cascode\\x", EvalStatus::Ok, "", 1};

  std::string full;
  std::vector<std::size_t> lineEnds;  // byte offset just past each '\n'
  for (const auto& e : entries) {
    full += e.toLine() + "\n";
    lineEnds.push_back(full.size());
  }

  const std::string path = tempPath("journal_trunc.jsonl");
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    writeFile(path, full.substr(0, cut));
    const auto loaded = core::BatchJournal::load(path);
    // A line whose content is fully present counts even when the crash tore
    // off only its trailing newline — the checksum and framing are intact.
    std::size_t wholeLines = 0;
    while (wholeLines < lineEnds.size() && lineEnds[wholeLines] - 1 <= cut) ++wholeLines;
    ASSERT_EQ(loaded.size(), wholeLines) << "cut at byte " << cut;
    for (std::size_t i = 0; i < wholeLines; ++i) {
      ASSERT_TRUE(loaded.count(i)) << "cut at byte " << cut;
      EXPECT_EQ(loaded.at(i), entries[i]) << "cut at byte " << cut;
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Crash + resume: a batch killed at any journal boundary resumes to the
// byte-identical report of an uninterrupted run.

TEST(JobQueueJournal, ResumeFromEveryTruncationReproducesTheFullReport) {
  const std::string path = tempPath("batch_journal.jsonl");
  std::remove(path.c_str());

  // Deterministic mixed outcomes: even jobs pass, odd jobs fail
  // permanently, job 5 is shed by admission control.
  core::JobQueueOptions opts;
  opts.maxPending = 5;
  opts.journalPath = path;
  opts.flow.maxRedesigns = 0;
  opts.stageFactory = [] {
    std::vector<std::unique_ptr<core::FlowStage>> stages;
    class ParityStage : public core::FlowStage {
     public:
      std::string name() const override { return "parity"; }
      core::StageOutcome run(core::DesignContext& ctx) override {
        // Per-job seeds are streamSeed(base, index): recover parity from
        // the spec set instead — jobs with an even ugf bound pass.
        const double bound = ctx.specs.specs().front().bound;
        const bool even = static_cast<std::uint64_t>(bound) % 2 == 0;
        ctx.result.topology = even ? "even-topo" : "";
        if (even) return core::StageOutcome::pass();
        return core::StageOutcome::fail("odd job fails (fabricated)",
                                        EvalStatus::DcNoConvergence);
      }
    };
    stages.push_back(std::make_unique<ParityStage>());
    return stages;
  };

  std::vector<sz::SpecSet> batch(6);
  for (std::size_t i = 0; i < batch.size(); ++i)
    batch[i].atLeast("ugf", 1e6 + static_cast<double>(i));  // parity = i % 2

  const auto full = core::JobQueue(opts).run(batch, nominal());
  const std::string fullReport = core::batchRunReportJson(full);
  const std::string journalBytes = readFile(path);
  ASSERT_FALSE(journalBytes.empty());

  // Crash simulation: truncate the journal at every byte boundary, resume,
  // and demand the exact same final report.
  core::JobQueueOptions resumeOpts = opts;
  resumeOpts.resume = true;
  for (std::size_t cut = 0; cut <= journalBytes.size(); ++cut) {
    writeFile(path, journalBytes.substr(0, cut));
    const auto resumed = core::JobQueue(resumeOpts).run(batch, nominal());
    EXPECT_EQ(core::batchRunReportJson(resumed), fullReport)
        << "resume after truncation at byte " << cut;
  }

  // And a resumed run marks journaled jobs as restored, not re-run.
  writeFile(path, journalBytes);
  const auto resumed = core::JobQueue(resumeOpts).run(batch, nominal());
  EXPECT_EQ(resumed.resumed, batch.size());
  for (const auto& rec : resumed.jobs) EXPECT_TRUE(rec.fromJournal);
  std::remove(path.c_str());
}

TEST(JobQueueJournal, FreshRunTruncatesAStaleJournal) {
  const std::string path = tempPath("stale_journal.jsonl");
  writeFile(path, "stale garbage\n");
  auto opts = passingQueueOptions();
  opts.journalPath = path;
  opts.resume = false;
  const auto out = core::JobQueue(opts).run(trivialBatch(2), nominal());
  EXPECT_EQ(out.resumed, 0u);
  const auto loaded = core::BatchJournal::load(path);
  EXPECT_EQ(loaded.size(), 2u) << "journal holds exactly this run's jobs";
  std::remove(path.c_str());
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
  plan.rate(sim::FaultSite::JobTask) = 0.3;
  sim::ScopedBatchFaults armed(plan);

  // Reference sequences, drawn serially.
  std::vector<std::vector<bool>> reference(8);
  for (std::size_t j = 0; j < reference.size(); ++j)
    reference[j] = drawSequence(j, sim::FaultSite::JobTask, 32, false);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    core::ScopedThreadPool scoped(threads);
    const auto parallelDrawn = core::parallelMap(reference.size(), [&](std::size_t j) {
      return drawSequence(j, sim::FaultSite::JobTask, 32, false);
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

core::JobQueueOptions chaosQueueOptions() {
  core::JobQueueOptions opts;
  opts.flow.loadCap = 2e-12;
  opts.flow.seed = 7;
  opts.flow.maxRedesigns = 1;
  opts.flow.synthesis = fastSynthesisOptions();
  opts.flow.layout.annealPlacement = false;
  opts.retry = core::RetryPolicy::transient(2);
  opts.retry.backoff = core::BackoffPolicy::none();
  return opts;
}

void expectJobsIdentical(const core::BatchRunResult& a, const core::BatchRunResult& b,
                         const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].state, b.jobs[i].state) << "job " << i;
    EXPECT_EQ(a.jobs[i].attempts, b.jobs[i].attempts) << "job " << i;
    EXPECT_EQ(a.jobs[i].result.success, b.jobs[i].result.success) << "job " << i;
    EXPECT_EQ(a.jobs[i].result.topology, b.jobs[i].result.topology) << "job " << i;
    EXPECT_EQ(a.jobs[i].result.failureStatus, b.jobs[i].result.failureStatus)
        << "job " << i;
    EXPECT_EQ(a.jobs[i].result.failureReason, b.jobs[i].result.failureReason)
        << "job " << i;
    EXPECT_EQ(a.jobs[i].result.designPoint, b.jobs[i].result.designPoint)
        << "job " << i;
  }
  EXPECT_EQ(core::batchRunReportJson(a), core::batchRunReportJson(b));
}

}  // namespace

TEST(ChaosSoak, InjectedFaultsNeverCrashAndResultsAreThreadAndCacheInvariant) {
  sim::BatchFaultPlan plan;
  plan.seed = 2026;
  plan.rate(sim::FaultSite::StageRun) = 0.10;
  plan.rate(sim::FaultSite::JobTask) = 0.10;
  plan.rate(sim::FaultSite::DcNewton) = 0.05;
  plan.rate(sim::FaultSite::LuFactor) = 0.05;
  sim::ScopedBatchFaults armed(plan);

  auto& c = cache::EvalCache::instance();
  const auto batch = chaosSpecs();
  const auto opts = chaosQueueOptions();

  std::optional<core::BatchRunResult> reference;
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
      auto out = core::JobQueue(opts).run(batch, nominal());
      ASSERT_EQ(out.jobs.size(), batch.size());
      for (const auto& rec : out.jobs) {
        EXPECT_TRUE(rec.state == core::JobState::Succeeded ||
                    rec.state == core::JobState::Failed)
            << "every job must reach a terminal state";
        EXPECT_GE(rec.attempts, 1u);
        EXPECT_LE(rec.attempts, opts.retry.maxAttempts);
      }
      if (!reference) {
        reference = std::move(out);
      } else {
        expectJobsIdentical(*reference, out,
                            "threads=" + std::to_string(threads) +
                                " cache=" + (cacheOn ? "on" : "off"));
      }
    }
  }
  c.clear();
}

TEST(ChaosSoak, SaturatedStageFaultsDegradeToFailedJobsNotCrashes) {
  sim::BatchFaultPlan plan;
  plan.seed = 3;
  plan.rate(sim::FaultSite::StageRun) = 1.0;  // every stage execution fails
  sim::ScopedBatchFaults armed(plan);

  auto opts = chaosQueueOptions();
  opts.retry = core::RetryPolicy::transient(2);
  opts.retry.backoff = core::BackoffPolicy::none();
  const auto out = core::JobQueue(opts).run(chaosSpecs(), nominal());
  for (const auto& rec : out.jobs) {
    EXPECT_EQ(rec.state, core::JobState::Failed);
    EXPECT_EQ(rec.result.failureStatus, EvalStatus::InternalError);
    EXPECT_EQ(rec.attempts, 2u) << "retries granted, then exhausted";
  }
}

TEST(ChaosSoak, InjectedDeadlineChecksTerminateJobsWithDeadlineExpired) {
  sim::BatchFaultPlan plan;
  plan.seed = 4;
  plan.rate(sim::FaultSite::DeadlineCheck) = 1.0;
  sim::ScopedBatchFaults armed(plan);

  auto opts = chaosQueueOptions();
  opts.retry = core::RetryPolicy::none();
  const auto out = core::JobQueue(opts).run(chaosSpecs(), nominal());
  for (const auto& rec : out.jobs) {
    EXPECT_EQ(rec.state, core::JobState::Failed);
    EXPECT_EQ(rec.result.failureStatus, EvalStatus::DeadlineExpired);
  }
}

// ---------------------------------------------------------------------------
// Report and metrics schema

TEST(BatchReport, CarriesPerJobOutcomesAndAggregates) {
  auto opts = passingQueueOptions();
  opts.maxPending = 1;
  const auto out = core::JobQueue(opts).run(trivialBatch(2), nominal());
  const std::string report = core::batchRunReportJson(out);
  EXPECT_NE(report.find("\"report\": \"jobs\""), std::string::npos) << report;
  EXPECT_NE(report.find("\"job.0.state\": \"succeeded\""), std::string::npos) << report;
  EXPECT_NE(report.find("\"job.1.state\": \"rejected\""), std::string::npos) << report;
  EXPECT_NE(report.find("\"job.1.status\": \"rejected\""), std::string::npos) << report;
  // No metrics/span snapshot: the report must be identical across a full
  // run and a crash+resume, and registry contents differ between those.
  EXPECT_EQ(report.find("\"counters\""), std::string::npos) << report;
  EXPECT_EQ(report.find("\"spans\""), std::string::npos) << report;
}

TEST(MetricsSchema, ResilienceCountersAreRegisteredEagerly) {
  // Constructing one engine + one queue is enough; the counters must exist
  // in the registry snapshot even when nothing incremented them.
  core::FlowEngine engine(core::amplifierStageGraph());
  core::JobQueue queue(core::JobQueueOptions{});
  const auto snap = core::metrics::Registry::instance().snapshot();
  for (const char* name :
       {"core.flow.retry.attempts", "core.flow.retry.successes",
        "core.flow.retry.exhausted", "core.flow.deadline.expired",
        "core.jobs.submitted", "core.jobs.admitted", "core.jobs.rejected",
        "core.jobs.succeeded", "core.jobs.failed", "core.jobs.retries",
        "core.jobs.resumed", "core.jobs.exceptions"})
    EXPECT_TRUE(snap.counters.count(name)) << name;
}
