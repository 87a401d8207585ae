// Tests for scoped execution contexts (core/context.hpp): config snapshot
// semantics, scope installation, a differential suite showing the whole
// flow and the robust corner search are *bit-identical* between the ambient
// path and an explicitly installed context (at 1 and 8 threads), and the
// option-leak regression: two contexts on one pool each rank only their
// own topology space, and a later ambient flow keeps the environment's.
// Contexts may only ever change *configuration*, never results.
//
// The registry-overflow tests are deliberately LAST in this file: they fill
// the metrics registry to capacity for their process.  Under ctest every
// TEST runs in its own process (gtest_discover_tests), so they cannot
// poison siblings there; keeping them last protects direct-binary runs too.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuit/process.hpp"
#include "core/context.hpp"
#include "core/flow.hpp"
#include "core/flowgraph.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "manufacture/corners.hpp"
#include "sizing/eqmodel.hpp"
#include "sizing/perfmodel.hpp"
#include "topology/library.hpp"
#include "topology/select.hpp"

#include "fast_synthesis.hpp"

namespace core = amsyn::core;
namespace metrics = amsyn::core::metrics;
namespace sz = amsyn::sizing;
namespace mf = amsyn::manufacture;
namespace ckt = amsyn::circuit;
namespace tp = amsyn::topology;
using amsyn::testutil::fastSynthesisOptions;

namespace {

const ckt::Process& nominal() { return ckt::defaultProcess(); }

/// RAII save/restore of one environment variable (fromEnv tests mutate the
/// environment; nothing else in the process reads it at runtime anymore,
/// which is itself part of what this file verifies).
struct EnvVarGuard {
  explicit EnvVarGuard(const char* name) : name_(name) {
    if (const char* v = std::getenv(name)) saved_ = v;
  }
  ~EnvVarGuard() {
    if (saved_)
      ::setenv(name_, saved_->c_str(), 1);
    else
      ::unsetenv(name_);
  }
  const char* name_;
  std::optional<std::string> saved_;
};

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

}  // namespace

// ---------------------------------------------------------------------------
// ContextConfig::fromEnv — the one sanctioned environment snapshot

TEST(ContextConfig, FromEnvSnapshotsEveryKnob) {
  EnvVarGuard g1("AMSYN_THREADS"), g7("AMSYN_JOB_DEADLINE_MS"),
      g8("AMSYN_TOPOLOGY_SPACE");
  ::setenv("AMSYN_THREADS", "5", 1);
  ::setenv("AMSYN_JOB_DEADLINE_MS", "900", 1);
  ::setenv("AMSYN_TOPOLOGY_SPACE", "generated", 1);

  const core::ContextConfig cfg = core::ContextConfig::fromEnv();
  EXPECT_EQ(cfg.threads, 5u);
  EXPECT_EQ(cfg.jobDeadlineMs, 900u);
  EXPECT_EQ(cfg.topologySpace, core::TopologySpace::Generated);

  // The largest value that does not overflow is a valid deadline (the
  // budget saturates it; see resilience_test).
  ::setenv("AMSYN_JOB_DEADLINE_MS", "18446744073709551615", 1);
  EXPECT_EQ(core::ContextConfig::fromEnv().jobDeadlineMs,
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ContextConfig, FromEnvDefaultsWhenUnset) {
  EnvVarGuard g1("AMSYN_THREADS"), g7("AMSYN_JOB_DEADLINE_MS"),
      g8("AMSYN_TOPOLOGY_SPACE");
  for (const char* name : {"AMSYN_THREADS", "AMSYN_JOB_DEADLINE_MS", "AMSYN_TOPOLOGY_SPACE"})
    ::unsetenv(name);

  const core::ContextConfig cfg = core::ContextConfig::fromEnv();
  EXPECT_EQ(cfg.threads, 0u);
  EXPECT_EQ(cfg.jobDeadlineMs, 0u);
  EXPECT_EQ(cfg.topologySpace, core::TopologySpace::Legacy);
}

TEST(ContextConfig, UnparseableValuesFallBackToDefaults) {
  EnvVarGuard g1("AMSYN_THREADS"), g7("AMSYN_JOB_DEADLINE_MS");
  ::setenv("AMSYN_THREADS", "junk", 1);
  ::setenv("AMSYN_JOB_DEADLINE_MS", "900ms", 1);  // trailing garbage = unset
  const core::ContextConfig cfg = core::ContextConfig::fromEnv();
  EXPECT_EQ(cfg.threads, 0u);
  EXPECT_EQ(cfg.jobDeadlineMs, 0u);

  // Threads and deadline accept only an unsigned decimal: a sign
  // (which strtoull would wrap to 2^64-1), whitespace, trailing garbage
  // ("4x" is not 4), or a value past uint64 counts as unset.
  for (const char* bad : {"4x", "+4", " 4", "-1", "+5", " 5", "5 ", "", "0x10", "1e3",
                          "18446744073709551616", "99999999999999999999999"}) {
    ::setenv("AMSYN_THREADS", bad, 1);
    ::setenv("AMSYN_JOB_DEADLINE_MS", bad, 1);
    const core::ContextConfig c = core::ContextConfig::fromEnv();
    EXPECT_EQ(c.threads, 0u) << "'" << bad << "'";
    EXPECT_EQ(c.jobDeadlineMs, 0u) << "'" << bad << "'";
  }
}

// ---------------------------------------------------------------------------
// Ambient context and scope mechanics

TEST(ExecutionContext, AmbientIsCurrentWithoutAScope) {
  EXPECT_EQ(&core::ExecutionContext::current(), &core::ExecutionContext::ambient());
}

TEST(ExecutionContext, ScopeInstallsNestsAndRestores) {
  core::ExecutionContext a(core::ContextConfig::fromEnv());
  core::ExecutionContext b(core::ContextConfig::fromEnv());
  EXPECT_EQ(&core::ExecutionContext::current(), &core::ExecutionContext::ambient());
  {
    core::ContextScope sa(a);
    EXPECT_EQ(&core::ExecutionContext::current(), &a);
    {
      core::ContextScope sb(b);
      EXPECT_EQ(&core::ExecutionContext::current(), &b);
    }
    EXPECT_EQ(&core::ExecutionContext::current(), &a);
  }
  EXPECT_EQ(&core::ExecutionContext::current(), &core::ExecutionContext::ambient());
}

// ---------------------------------------------------------------------------
// Differential suite: ambient-global vs explicit-context runs, bit for bit

namespace {

/// One full flow run.  `ctx` == nullptr runs the ambient path
/// (synthesizeAmplifier, no scope anywhere, the environment's config);
/// otherwise the engine runs with `ctx` installed by a ContextScope.
core::FlowResult runFlow(core::ExecutionContext* ctx) {
  sz::SpecSet specs;
  specs.atLeast("gain_db", 36.0)
      .atLeast("ugf", 1e7)
      .atLeast("pm", 60.0)
      .atMost("power", 4e-3)
      .minimize("power", 0.3, 1e-3);
  core::FlowOptions opts;
  opts.loadCap = 2e-12;
  opts.seed = 3;
  opts.synthesis = fastSynthesisOptions();
  opts.layout.annealPlacement = false;
  if (!ctx) return core::synthesizeAmplifier(specs, nominal(), opts);
  core::ContextScope scope(*ctx);
  core::FlowEngine engine(core::amplifierStageGraph());
  return engine.run(specs, nominal(), opts);
}

/// The run-report prefix that is a pure function of the FlowResult:
/// counters/spans and the wall-clock `stage.N.seconds` digits legitimately
/// differ between runs, so they are masked.
std::string reportResultPrefix(const core::FlowResult& r) {
  std::string json = core::flowRunReportJson(r);
  const auto pos = json.find("\"counters\"");
  if (pos != std::string::npos) json = json.substr(0, pos);
  std::string masked;
  std::size_t at = 0;
  while (true) {
    const auto hit = json.find(".seconds\": ", at);
    if (hit == std::string::npos) break;
    const auto valueStart = hit + std::strlen(".seconds\": ");
    auto valueEnd = valueStart;
    while (valueEnd < json.size() && json[valueEnd] != ',' && json[valueEnd] != '\n')
      ++valueEnd;
    masked += json.substr(at, valueStart - at);
    masked += '#';
    at = valueEnd;
  }
  masked += json.substr(at);
  return masked;
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
    EXPECT_EQ(a.stageRecords[i].name, b.stageRecords[i].name);
    EXPECT_EQ(a.stageRecords[i].attempt, b.stageRecords[i].attempt);
    EXPECT_EQ(a.stageRecords[i].status, b.stageRecords[i].status);
    EXPECT_EQ(a.stageRecords[i].detail, b.stageRecords[i].detail);
    EXPECT_EQ(a.stageRecords[i].evalStatus, b.stageRecords[i].evalStatus);
  }
  EXPECT_EQ(reportResultPrefix(a), reportResultPrefix(b));
}

/// One small cutting-plane robust synthesis over corner models, under the
/// calling thread's context.
mf::RobustResult robustProblem() {
  sz::SpecSet specs;
  specs.atLeast("gain_db", 55.0).atLeast("ugf", 1e6).minimize("power", 0.5, 1e-3);
  mf::RobustOptions ropts;
  ropts.synthesis = fastSynthesisOptions();
  ropts.maxRounds = 1;
  const mf::ModelFactory factory = [](const ckt::Process& p) {
    return sz::makeTwoStageCornerModel(p, nominal(), 5e-12);
  };
  return mf::robustSynthesize(factory, nominal(), mf::VariationSpace{}, specs, ropts);
}

/// robustProblem on a pool of `workers` workers (0: the caller alone):
/// ambient when `ctx` is null, else under `ctx`.
mf::RobustResult runRobust(std::size_t workers, core::ExecutionContext* ctx) {
  core::ScopedThreadPool scoped(workers);
  if (!ctx) return robustProblem();
  core::ContextScope scope(*ctx);
  return robustProblem();
}

void expectRobustBitIdentical(const mf::RobustResult& a, const mf::RobustResult& b,
                              const std::string& label) {
  SCOPED_TRACE(label);
  EXPECT_TRUE(vecBitIdentical(a.nominal.x, b.nominal.x));
  EXPECT_TRUE(perfBitIdentical(a.nominal.performance, b.nominal.performance));
  EXPECT_EQ(a.nominal.feasible, b.nominal.feasible);
  EXPECT_TRUE(vecBitIdentical(a.robust.x, b.robust.x));
  EXPECT_TRUE(perfBitIdentical(a.robust.performance, b.robust.performance));
  EXPECT_EQ(a.robust.feasible, b.robust.feasible);
  EXPECT_EQ(a.robustFeasibleAtCorners, b.robustFeasibleAtCorners);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.activeCorners, b.activeCorners);
  EXPECT_EQ(a.nominalEvaluations, b.nominalEvaluations);
  EXPECT_EQ(a.robustEvaluations, b.robustEvaluations);
}

}  // namespace

// The ambient arm runs the environment's config — no context can change
// it, which is the point of the leak fix — and the explicit arm runs the
// same config from its own context.

// A single flow never touches the pool, so its arms run once each; the
// thread-count axis of the flow lives in FlowBatch.
TEST(ContextDifferential, FlowIsBitIdenticalBetweenAmbientAndExplicitContexts) {
  const auto reference = runFlow(nullptr);
  const auto ambient = runFlow(nullptr);
  expectFlowsBitIdentical(reference, ambient, "ambient");
  core::ExecutionContext ctx(core::ContextConfig::fromEnv());
  const auto scoped = runFlow(&ctx);
  expectFlowsBitIdentical(ambient, scoped, "explicit");
}

TEST(ContextDifferential, CornerSearchIsBitIdenticalBetweenAmbientAndExplicitContexts) {
  const auto reference = runRobust(/*workers=*/0, nullptr);
  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    const std::string label = "workers=" + std::to_string(workers);
    const auto ambient = runRobust(workers, nullptr);
    expectRobustBitIdentical(reference, ambient, "ambient " + label);
    core::ExecutionContext ctx(core::ContextConfig::fromEnv());
    const auto scoped = runRobust(workers, &ctx);
    expectRobustBitIdentical(ambient, scoped, "explicit " + label);
  }
}

// ---------------------------------------------------------------------------
// Option leaks (regression): a context's config governs that context and
// nothing else — not a concurrent sibling on the same pool, and not a later
// ambient flow.  The topology space is the mode under test: the flow's
// select stage ranks whatever amplifierLibrary resolves from the current
// context's config.

namespace {

constexpr double kLeakLoadCap = 5e-12;

/// Runs `body` on two threads at once, each under its own context, with a
/// start barrier so the two contexts' work interleaves on the shared pool.
template <typename Body>
void runInterleaved(core::ExecutionContext& a, core::ExecutionContext& b, Body body) {
  std::atomic<int> ready{0};
  const auto run = [&](core::ExecutionContext& ctx) {
    core::ContextScope scope(ctx);
    ready.fetch_add(1);
    while (ready.load() < 2) std::this_thread::yield();
    body(ctx);
  };
  std::thread ta(run, std::ref(a));
  std::thread tb(run, std::ref(b));
  ta.join();
  tb.join();
}

/// The names a flow's topology-select stage ranks under the calling
/// thread's context, sorted.
std::vector<std::string> rankedNames() {
  sz::SpecSet specs;
  specs.atLeast("gain_db", 60.0).atLeast("ugf", 2e6).minimize("power", 0.5, 1e-3);
  std::vector<std::string> names;
  for (const auto& c : tp::ruleBasedSelect(tp::amplifierLibrary(nominal(), kLeakLoadCap), specs))
    names.push_back(c.name);
  std::sort(names.begin(), names.end());
  return names;
}

/// The entry names of an explicitly requested space, sorted.
std::vector<std::string> spaceNames(core::TopologySpace space) {
  const tp::TopologyLibrary lib = tp::amplifierLibrary(nominal(), kLeakLoadCap, space);
  std::vector<std::string> names;
  for (const auto& e : lib.entries()) names.push_back(e.name);
  std::sort(names.begin(), names.end());
  return names;
}

core::ContextConfig withSpace(core::TopologySpace space) {
  core::ContextConfig cfg = core::ContextConfig::fromEnv();
  cfg.topologySpace = space;
  return cfg;
}

}  // namespace

TEST(ContextOptionLeak, InterleavedSharedContextsEachObserveOnlyTheirOwnConfig) {
  core::ScopedThreadPool pool(2);
  // Both libraries are built (and memoized) up front, so the interleaved
  // part only resolves spaces.
  const auto legacy = spaceNames(core::TopologySpace::Legacy);
  const auto generated = spaceNames(core::TopologySpace::Generated);
  ASSERT_NE(legacy, generated);

  core::ExecutionContext a(withSpace(core::TopologySpace::Legacy));
  core::ExecutionContext b(withSpace(core::TopologySpace::Generated));
  constexpr std::size_t kRankings = 8;
  std::vector<std::vector<std::string>> rankedA(kRankings), rankedB(kRankings);
  runInterleaved(a, b, [&](core::ExecutionContext& ctx) {
    auto& out = &ctx == &a ? rankedA : rankedB;
    // Ranked inside pool tasks: each one resolves the context parallelFor
    // carried over from its submitter.
    core::parallelFor(kRankings, [&](std::size_t i) { out[i] = rankedNames(); });
  });

  for (std::size_t i = 0; i < kRankings; ++i) {
    EXPECT_EQ(rankedA[i], legacy) << "legacy context, ranking " << i;
    EXPECT_EQ(rankedB[i], generated) << "generated context, ranking " << i;
  }
}

TEST(ContextOptionLeak, PruningRobustSynthesisLeavesLaterAmbientFlowsInTheEnvMode) {
  // A job that ranks the space the environment does not name must keep that
  // space to itself: a later ambient flow ranks the environment's space.
  // In the tier1-generated CI leg the two swap roles.  (The name dates from
  // when this contract ran on the evaluation cache's on/off mode; with the
  // cache gone it runs on the topology space.)
  core::ScopedThreadPool pool(2);
  const core::TopologySpace envSpace = core::ContextConfig::fromEnv().topologySpace;
  const core::TopologySpace other = envSpace == core::TopologySpace::Legacy
                                        ? core::TopologySpace::Generated
                                        : core::TopologySpace::Legacy;
  {
    core::ExecutionContext job(withSpace(other));
    core::ContextScope scope(job);
    std::vector<std::vector<std::string>> ranked(4);
    core::parallelFor(ranked.size(), [&](std::size_t i) { ranked[i] = rankedNames(); });
    for (const auto& names : ranked) EXPECT_EQ(names, spaceNames(other));
  }

  EXPECT_EQ(&core::ExecutionContext::current(), &core::ExecutionContext::ambient());
  EXPECT_EQ(core::ExecutionContext::ambient().config().topologySpace, envSpace);
  EXPECT_EQ(rankedNames(), spaceNames(envSpace));
}

// ---------------------------------------------------------------------------
// Registry capacity overflow (satellite: fail loudly, name the offender)
// LAST IN THIS FILE — these fill the registry for their process.

TEST(MetricsRegistryOverflow, CounterExhaustionNamesTheOffendingMetric) {
  std::string offender;
  try {
    for (std::size_t i = 0; i < metrics::kMaxCounters + 1; ++i) {
      offender = "ctx.test.overflow.counter." + std::to_string(i);
      (void)metrics::registry().counter(offender);
    }
    FAIL() << "registering " << metrics::kMaxCounters + 1
           << " fresh counters should exhaust the table";
  } catch (const std::length_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(offender), std::string::npos)
        << "overflow error must name the offending metric: " << what;
    EXPECT_NE(what.find(std::to_string(metrics::kMaxCounters)), std::string::npos)
        << "overflow error must state the capacity: " << what;
    EXPECT_NE(what.find("counter capacity exhausted"), std::string::npos) << what;
  }
}

