// Tests for scoped execution contexts (core/context.hpp): config snapshot
// semantics, scope installation, per-context metrics slices, isolated
// cache handles, a differential suite showing
// the whole flow and the robust corner search are *bit-identical* between
// the ambient path and an explicitly installed context (at 1 and 8 threads,
// cache on and off), and the option-leak regression: two contexts sharing
// the process cache each see only their own config.  Contexts may
// only ever change *configuration, attribution and isolation*, never
// results.
//
// The registry-overflow tests are deliberately LAST in this file: they fill
// the metrics registry to capacity for their process.  Under ctest every
// TEST runs in its own process (gtest_discover_tests), so they cannot
// poison siblings there; keeping them last protects direct-binary runs too.
#include <gtest/gtest.h>

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
#include "core/envknobs.hpp"
#include "core/evalcache.hpp"
#include "core/flow.hpp"
#include "core/flowgraph.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "manufacture/corners.hpp"
#include "sizing/eqmodel.hpp"
#include "sizing/perfmodel.hpp"

namespace core = amsyn::core;
namespace cache = amsyn::core::cache;
namespace metrics = amsyn::core::metrics;
namespace sz = amsyn::sizing;
namespace mf = amsyn::manufacture;
namespace ckt = amsyn::circuit;

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

/// RAII empty shared cache with its capacity restored on exit (same
/// discipline as tests/evalcache_test.cpp: the shared cache is process-wide
/// state).
struct CacheGuard {
  CacheGuard() : c(cache::EvalCache::instance()), capacity(c.capacity()) { c.clear(); }
  ~CacheGuard() {
    c.setCapacity(capacity);
    c.clear();
  }
  cache::EvalCache& c;
  std::size_t capacity;
};

/// Minimal cacheable model counting real evaluations, so a context-resolved
/// cache hit (count unchanged) is distinguishable from a miss.
class CountingModel : public sz::PerformanceModel {
 public:
  explicit CountingModel(double base = 1.0) : base_(base) {}

  const std::vector<sz::DesignVariable>& variables() const override { return vars_; }

  sz::Performance evaluate(const std::vector<double>& x) const override {
    ++evals_;
    return {{"gain_db", base_ + x.at(0)}, {"power", base_ * x.at(0)}};
  }

  std::optional<cache::Digest128> cacheKey(const std::vector<double>& x) const override {
    cache::Hasher128 h;
    h.mixString("context-counting-model");
    h.mixDouble(base_);
    h.mixDoubles(x);
    return h.digest();
  }

  int evals() const { return evals_.load(); }

 private:
  double base_;
  mutable std::atomic<int> evals_{0};
  std::vector<sz::DesignVariable> vars_{{"a", 1.0, 10.0, false, 1.0}};
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

cache::Digest128 keyOf(std::uint64_t tag) {
  cache::Hasher128 h;
  h.mixString("context-test").mix(tag);
  return h.digest();
}

/// A deterministic config for explicit contexts in the differential and
/// isolation tests: independent of whatever AMSYN_* the CI leg set, so the
/// tests assert the same thing in every leg.
core::ContextConfig deterministicConfig() {
  core::ContextConfig cfg = core::ContextConfig::fromEnv();
  cfg.evalCacheEnabled = true;
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------------------
// ContextConfig::fromEnv — the one sanctioned environment snapshot

TEST(ContextConfig, FromEnvSnapshotsEveryKnob) {
  EnvVarGuard g1("AMSYN_THREADS"), g3("AMSYN_EVAL_CACHE"),
      g4("AMSYN_EVAL_CACHE_CAPACITY"), g7("AMSYN_JOB_DEADLINE_MS"),
      g8("AMSYN_TOPOLOGY_SPACE");
  ::setenv("AMSYN_THREADS", "5", 1);
  ::setenv("AMSYN_EVAL_CACHE", "off", 1);
  ::setenv("AMSYN_EVAL_CACHE_CAPACITY", "1024", 1);
  ::setenv("AMSYN_JOB_DEADLINE_MS", "900", 1);
  ::setenv("AMSYN_TOPOLOGY_SPACE", "generated", 1);

  const core::ContextConfig cfg = core::ContextConfig::fromEnv();
  EXPECT_EQ(cfg.threads, 5u);
  EXPECT_FALSE(cfg.evalCacheEnabled);
  EXPECT_EQ(core::envknobs::evalCacheCapacity(), 1024u);
  EXPECT_EQ(cfg.jobDeadlineMs, 900u);
  EXPECT_EQ(cfg.topologySpace, core::TopologySpace::Generated);

  // The largest value that does not overflow is a valid deadline (the
  // budget saturates it; see resilience_test).
  ::setenv("AMSYN_JOB_DEADLINE_MS", "18446744073709551615", 1);
  EXPECT_EQ(core::ContextConfig::fromEnv().jobDeadlineMs,
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ContextConfig, FromEnvDefaultsWhenUnset) {
  EnvVarGuard g1("AMSYN_THREADS"), g3("AMSYN_EVAL_CACHE"),
      g4("AMSYN_EVAL_CACHE_CAPACITY"), g7("AMSYN_JOB_DEADLINE_MS"),
      g8("AMSYN_TOPOLOGY_SPACE");
  for (const char* name :
       {"AMSYN_THREADS", "AMSYN_EVAL_CACHE", "AMSYN_EVAL_CACHE_CAPACITY",
        "AMSYN_JOB_DEADLINE_MS", "AMSYN_TOPOLOGY_SPACE"})
    ::unsetenv(name);

  const core::ContextConfig cfg = core::ContextConfig::fromEnv();
  EXPECT_EQ(cfg.threads, 0u);
  EXPECT_TRUE(cfg.evalCacheEnabled);
  EXPECT_EQ(core::envknobs::evalCacheCapacity(), std::size_t{1} << 16);
  EXPECT_EQ(cfg.jobDeadlineMs, 0u);
  EXPECT_EQ(cfg.topologySpace, core::TopologySpace::Legacy);
}

TEST(ContextConfig, UnparseableValuesFallBackToDefaults) {
  EnvVarGuard g1("AMSYN_THREADS"), g4("AMSYN_EVAL_CACHE_CAPACITY"),
      g7("AMSYN_JOB_DEADLINE_MS");
  ::setenv("AMSYN_THREADS", "junk", 1);
  ::setenv("AMSYN_JOB_DEADLINE_MS", "900ms", 1);  // trailing garbage = unset
  const core::ContextConfig cfg = core::ContextConfig::fromEnv();
  EXPECT_EQ(cfg.threads, 0u);
  EXPECT_EQ(cfg.jobDeadlineMs, 0u);

  // Threads, deadline and capacity accept only an unsigned decimal: a sign
  // (which strtoull would wrap to 2^64-1), whitespace, trailing garbage
  // ("4x" is not 4), or a value past uint64 counts as unset.
  for (const char* bad : {"4x", "+4", " 4", "-1", "+5", " 5", "5 ", "", "0x10", "1e3",
                          "18446744073709551616", "99999999999999999999999"}) {
    ::setenv("AMSYN_THREADS", bad, 1);
    ::setenv("AMSYN_JOB_DEADLINE_MS", bad, 1);
    ::setenv("AMSYN_EVAL_CACHE_CAPACITY", bad, 1);
    const core::ContextConfig c = core::ContextConfig::fromEnv();
    EXPECT_EQ(c.threads, 0u) << "'" << bad << "'";
    EXPECT_EQ(c.jobDeadlineMs, 0u) << "'" << bad << "'";
    EXPECT_EQ(core::envknobs::evalCacheCapacity(), std::size_t{1} << 16)
        << "'" << bad << "'";
  }
  ::setenv("AMSYN_EVAL_CACHE_CAPACITY", "0", 1);  // degenerate: the default
  EXPECT_EQ(core::envknobs::evalCacheCapacity(), std::size_t{1} << 16);
}

// ---------------------------------------------------------------------------
// Ambient context and scope mechanics

TEST(ExecutionContext, AmbientIsCurrentWithoutAScopeAndRecordsNoSlice) {
  EXPECT_EQ(core::ExecutionContext::scoped(), nullptr);
  EXPECT_EQ(&core::ExecutionContext::current(), &core::ExecutionContext::ambient());
  // The ambient context deliberately has no metrics slice (un-scoped code
  // pays one thread-local null check and nothing else).
  EXPECT_EQ(core::ExecutionContext::ambient().metricsSlice(), nullptr);
  EXPECT_TRUE(core::ExecutionContext::ambient().sliceCounters().empty());
  // The ambient cache is the shared process cache.
  EXPECT_EQ(&core::ExecutionContext::ambient().evalCache(),
            &cache::EvalCache::instance());
  EXPECT_FALSE(core::ExecutionContext::ambient().hasIsolatedEvalCache());
}

TEST(ExecutionContext, ScopeInstallsNestsAndRestores) {
  core::ExecutionContext a(deterministicConfig());
  core::ExecutionContext b(deterministicConfig());
  EXPECT_EQ(core::ExecutionContext::scoped(), nullptr);
  {
    core::ContextScope sa(a);
    EXPECT_EQ(core::ExecutionContext::scoped(), &a);
    EXPECT_EQ(&core::ExecutionContext::current(), &a);
    {
      core::ContextScope sb(b);
      EXPECT_EQ(&core::ExecutionContext::current(), &b);
    }
    EXPECT_EQ(&core::ExecutionContext::current(), &a);
  }
  EXPECT_EQ(core::ExecutionContext::scoped(), nullptr);
  EXPECT_EQ(&core::ExecutionContext::current(), &core::ExecutionContext::ambient());
}

TEST(ExecutionContext, ChildInheritsConfigHandlesAndCurrentTopologySpace) {
  core::ContextConfig cfg = deterministicConfig();
  cfg.jobDeadlineMs = 4321;
  cfg.topologySpace = core::TopologySpace::Generated;
  core::ExecutionContext parent(cfg);
  const auto child = parent.makeChild();
  EXPECT_EQ(child->config().jobDeadlineMs, 4321u);
  EXPECT_EQ(child->config().topologySpace, core::TopologySpace::Generated);
  EXPECT_EQ(&child->evalCache(), &parent.evalCache());
  EXPECT_FALSE(child->hasIsolatedEvalCache());
  // The child's slice chains under the parent's.
  ASSERT_NE(child->metricsSlice(), nullptr);
  EXPECT_EQ(child->metricsSlice()->parent(), parent.metricsSlice());

  // A child built with its own config takes that config — and only it: the
  // handles and the slice chain are still the parent's, and the parent's
  // config is untouched.
  core::ContextConfig jobCfg = cfg;
  jobCfg.topologySpace = core::TopologySpace::Legacy;
  jobCfg.evalCacheEnabled = false;
  const auto job = parent.makeChild(jobCfg);
  EXPECT_EQ(job->config().topologySpace, core::TopologySpace::Legacy);
  EXPECT_FALSE(job->config().evalCacheEnabled);
  EXPECT_EQ(&job->evalCache(), &parent.evalCache());
  EXPECT_EQ(job->metricsSlice()->parent(), parent.metricsSlice());
  EXPECT_EQ(parent.config().topologySpace, core::TopologySpace::Generated);
  EXPECT_TRUE(parent.config().evalCacheEnabled);
}

// ---------------------------------------------------------------------------
// Per-context metrics slices (satellite: disjoint slices, invariant totals)

TEST(ContextMetrics, SlicesAreDisjointAndSumToProcessTotals) {
  const metrics::CounterId work = metrics::registry().counter("ctx.test.work");
  const std::uint64_t before = metrics::registry().total(work);

  core::ExecutionContext tenantA(deterministicConfig());
  core::ExecutionContext tenantB(deterministicConfig());
  core::ScopedThreadPool pool(4);  // both tenants share one pool
  {
    core::ContextScope scope(tenantA);
    core::parallelFor(37, [&](std::size_t) { metrics::add(work); });
  }
  {
    core::ContextScope scope(tenantB);
    core::parallelFor(21, [&](std::size_t) { metrics::add(work); });
  }

  const auto slicesA = tenantA.sliceCounters();
  const auto slicesB = tenantB.sliceCounters();
  ASSERT_EQ(slicesA.count("ctx.test.work"), 1u);
  ASSERT_EQ(slicesB.count("ctx.test.work"), 1u);
  EXPECT_EQ(slicesA.at("ctx.test.work"), 37u);
  EXPECT_EQ(slicesB.at("ctx.test.work"), 21u);
  // Slices are additive observers: the process total is exactly the sum of
  // the two tenants' disjoint slices on top of whatever ran before.
  EXPECT_EQ(metrics::registry().total(work) - before, 58u);
  // And the ambient context still records no slice of its own.
  EXPECT_TRUE(core::ExecutionContext::ambient().sliceCounters().empty());
}

TEST(ContextMetrics, ChildDeltasChainIntoTheParentSlice) {
  const metrics::CounterId work = metrics::registry().counter("ctx.test.child");
  core::ExecutionContext tenant(deterministicConfig());
  const auto job = tenant.makeChild();
  {
    core::ContextScope scope(*job);
    metrics::add(work, 5);
  }
  EXPECT_EQ(job->sliceCounters().at("ctx.test.child"), 5u);
  // The tenant sees its job's delta too (chained slice), without the job
  // having to report anything explicitly.
  EXPECT_EQ(tenant.sliceCounters().at("ctx.test.child"), 5u);
}

TEST(ContextMetrics, ReportOverloadEmitsSliceValuesAndIsInertForAmbient) {
  core::FlowResult r;
  r.topology = "two_stage_miller";
  // Ambient context: the two-argument overload is byte-identical to the
  // single-argument form (no slice to emit).
  EXPECT_EQ(core::flowRunReportJson(r),
            core::flowRunReportJson(r, core::ExecutionContext::ambient()));

  const metrics::CounterId work = metrics::registry().counter("ctx.test.report");
  core::ExecutionContext ctx(deterministicConfig());
  {
    core::ContextScope scope(ctx);
    metrics::add(work, 3);
  }
  const std::string json = core::flowRunReportJson(r, ctx);
  EXPECT_NE(json.find("\"ctx.ctx.test.report\""), std::string::npos);
  // The slice is sparse: counters the context never touched are absent.
  EXPECT_EQ(json.find("\"ctx.core.flow.attempts\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Isolated handles (satellite: isolated caches never observe shared state)

TEST(ContextIsolation, IsolatedEvalCacheNeverObservesSharedEntries) {
  CacheGuard guard;
  core::ExecutionContext ctx(deterministicConfig(),
                             core::ContextIsolation{.evalCache = true});
  ASSERT_TRUE(ctx.hasIsolatedEvalCache());
  ASSERT_NE(&ctx.evalCache(), &cache::EvalCache::instance());

  const std::vector<double> x{2.0};
  cache::CachedEval payload{{{"gain_db", 9.0}}, core::EvalStatus::Ok};
  cache::CachedEval out;

  // Shared insert is invisible to the isolated cache...
  cache::EvalCache::instance().insert(keyOf(1), x, payload);
  EXPECT_FALSE(ctx.evalCache().lookup(keyOf(1), x, out));
  // ...and an isolated insert is invisible to the shared cache.
  ctx.evalCache().insert(keyOf(2), x, payload);
  EXPECT_FALSE(cache::EvalCache::instance().lookup(keyOf(2), x, out));
  EXPECT_TRUE(ctx.evalCache().lookup(keyOf(2), x, out));
  EXPECT_TRUE(perfBitIdentical(out.performance, payload.performance));
}

TEST(ContextIsolation, IsolatedEvalCacheTakesTheBuiltInCapacity) {
  // AMSYN_EVAL_CACHE_CAPACITY sizes the shared cache only: a context-owned
  // cache always starts at the built-in 2^16 entries.
  EnvVarGuard g("AMSYN_EVAL_CACHE_CAPACITY");
  ::setenv("AMSYN_EVAL_CACHE_CAPACITY", "1024", 1);
  core::ExecutionContext ctx(core::ContextConfig::fromEnv(),
                             core::ContextIsolation{.evalCache = true});
  ASSERT_TRUE(ctx.hasIsolatedEvalCache());
  EXPECT_EQ(ctx.evalCache().capacity(), std::size_t{1} << 16);
}

TEST(ContextIsolation, SafeEvaluateCachesThroughTheInstalledContext) {
  CacheGuard guard;
  core::ExecutionContext ctx(deterministicConfig(),
                             core::ContextIsolation{.evalCache = true});
  CountingModel model(2.0);
  const std::vector<double> x{3.0};
  const std::size_t sharedEntriesBefore = cache::EvalCache::instance().stats().entries;
  {
    core::ContextScope scope(ctx);
    const auto first = sz::safeEvaluate(model, x);
    const auto second = sz::safeEvaluate(model, x);
    EXPECT_EQ(model.evals(), 1);  // second call hit the isolated cache
    EXPECT_TRUE(perfBitIdentical(first, second));
  }
  // Nothing leaked into the shared cache.
  EXPECT_EQ(cache::EvalCache::instance().stats().entries, sharedEntriesBefore);
  EXPECT_EQ(ctx.evalCache().stats().entries, 1u);
  // Outside the scope the same model evaluates against the shared cache, so
  // the isolated entry is not visible: a real evaluation runs again.
  (void)sz::safeEvaluate(model, x);
  EXPECT_EQ(model.evals(), 2);
}

// ---------------------------------------------------------------------------
// Differential suite: ambient-global vs explicit-context runs, bit for bit

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

/// One full flow run.  `ctx` == nullptr runs the ambient path
/// (synthesizeAmplifier, no scope anywhere, the environment's config);
/// otherwise the run goes through the explicit-context engine entry point
/// FlowEngine::run(..., ctx) — the daemon-style path.
core::FlowResult runFlow(std::size_t threads, core::ExecutionContext* ctx) {
  cache::EvalCache::instance().clear();
  core::ScopedThreadPool scoped(threads);
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
  core::FlowEngine engine(core::amplifierStageGraph());
  return engine.run(specs, nominal(), opts, *ctx);
}

/// The run-report prefix that is a pure function of the FlowResult (same
/// masking as tests/evalcache_test.cpp: counters/spans and the wall-clock
/// `stage.N.seconds` digits legitimately differ between runs).
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

/// One small cutting-plane robust synthesis over heavy (cacheable) corner
/// models, under the calling thread's context.
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

/// robustProblem on a fresh shared cache at `threads`: ambient when `ctx`
/// is null, else under `ctx`.
mf::RobustResult runRobust(std::size_t threads, core::ExecutionContext* ctx) {
  cache::EvalCache::instance().clear();
  core::ScopedThreadPool scoped(threads);
  if (!ctx) return robustProblem();
  core::ContextScope scope(*ctx);
  return robustProblem();
}

/// deterministicConfig with the eval cache switched on or off.
core::ContextConfig cacheConfig(bool cacheOn) {
  core::ContextConfig cfg = deterministicConfig();
  cfg.evalCacheEnabled = cacheOn;
  return cfg;
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
// it, which is the point of the leak fix — and the explicit arms cover the
// cache on and off.

TEST(ContextDifferential, FlowIsBitIdenticalBetweenAmbientAndExplicitContexts) {
  CacheGuard guard;
  const auto reference = runFlow(/*threads=*/1, nullptr);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const auto ambient = runFlow(threads, nullptr);
    expectFlowsBitIdentical(reference, ambient,
                            "ambient threads=" + std::to_string(threads));
    for (const bool cacheOn : {false, true}) {
      const std::string label = std::string("cache=") + (cacheOn ? "on" : "off") +
                                " threads=" + std::to_string(threads);
      core::ExecutionContext ctx(cacheConfig(cacheOn));
      const auto scoped = runFlow(threads, &ctx);
      expectFlowsBitIdentical(ambient, scoped, "explicit " + label);
      // The explicit run actually recorded a slice — the differential would
      // be vacuous if the context never saw the work it paid for.
      EXPECT_FALSE(ctx.sliceCounters().empty()) << label;
    }
  }
}

TEST(ContextDifferential, CornerSearchIsBitIdenticalBetweenAmbientAndExplicitContexts) {
  CacheGuard guard;
  const auto reference = runRobust(/*threads=*/1, nullptr);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const auto ambient = runRobust(threads, nullptr);
    expectRobustBitIdentical(reference, ambient,
                             "ambient threads=" + std::to_string(threads));
    for (const bool cacheOn : {false, true}) {
      const std::string label = std::string("cache=") + (cacheOn ? "on" : "off") +
                                " threads=" + std::to_string(threads);
      core::ExecutionContext ctx(cacheConfig(cacheOn));
      const auto scoped = runRobust(threads, &ctx);
      expectRobustBitIdentical(ambient, scoped, "explicit " + label);
      EXPECT_FALSE(ctx.sliceCounters().empty()) << label;
    }
  }
}

// ---------------------------------------------------------------------------
// Option leaks (regression): a context's config governs that context and
// nothing else — not a concurrent sibling on the same shared cache, and
// not a later ambient flow.

namespace {

std::uint64_t sliceValue(const core::ExecutionContext& ctx, const std::string& name) {
  const auto slice = ctx.sliceCounters();
  const auto it = slice.find(name);
  return it == slice.end() ? 0 : it->second;
}

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

}  // namespace

TEST(ContextOptionLeak, InterleavedSharedContextsEachObserveOnlyTheirOwnConfig) {
  CacheGuard guard;
  core::ScopedThreadPool pool(2);
  // Neither context is isolated: both resolve the process cache.
  core::ContextConfig cfgA = core::ContextConfig::fromEnv();
  cfgA.evalCacheEnabled = false;
  core::ContextConfig cfgB = core::ContextConfig::fromEnv();
  cfgB.evalCacheEnabled = true;
  core::ExecutionContext a(cfgA);
  core::ExecutionContext b(cfgB);

  runInterleaved(a, b, [&](core::ExecutionContext&) {
    for (int round = 0; round < 2; ++round) (void)robustProblem();
  });

  // A: cache off, so its slice carries no cache traffic of any kind.
  for (const auto& [name, value] : a.sliceCounters())
    if (name.rfind("core.cache.", 0) == 0) EXPECT_EQ(value, 0u) << name;
  // B: cache on, so it was consulted and filled.
  EXPECT_GT(sliceValue(b, "core.cache.misses"), 0u);
  EXPECT_GT(sliceValue(b, "core.cache.inserts"), 0u);
}

TEST(ContextOptionLeak, PruningRobustSynthesisLeavesLaterAmbientFlowsInTheEnvMode) {
  // A cache-off robustSynthesize must keep its mode to itself: a job
  // running concurrently with the cache on, and any later ambient flow,
  // keep their own setting.  The cache-on job owns its cache, so the
  // shared one can only be filled by a leak from the cache-off job.
  CacheGuard guard;
  core::ScopedThreadPool pool(2);
  core::ContextConfig cfgOff = core::ContextConfig::fromEnv();
  cfgOff.evalCacheEnabled = false;
  core::ContextConfig cfgOn = core::ContextConfig::fromEnv();
  cfgOn.evalCacheEnabled = true;
  core::ExecutionContext off(cfgOff);
  core::ExecutionContext on(cfgOn, core::ContextIsolation{.evalCache = true});
  runInterleaved(off, on, [](core::ExecutionContext&) {
    for (int round = 0; round < 2; ++round) (void)robustProblem();
  });
  const auto lookups = [](const core::ExecutionContext& ctx) {
    return sliceValue(ctx, "core.cache.hits") + sliceValue(ctx, "core.cache.misses");
  };
  EXPECT_EQ(lookups(off), 0u);
  EXPECT_GT(lookups(on), 0u);
  EXPECT_EQ(cache::EvalCache::instance().stats().entries, 0u);
  EXPECT_GT(on.evalCache().stats().entries, 0u);

  // A fresh ambient flow (no scope) looks the cache up exactly when the
  // environment says so.
  const bool envCache = core::ContextConfig::fromEnv().evalCacheEnabled;
  EXPECT_EQ(core::ExecutionContext::ambient().config().evalCacheEnabled, envCache);
  const auto totalLookups = [] {
    return metrics::registry().total("core.cache.hits") +
           metrics::registry().total("core.cache.misses");
  };
  const std::uint64_t before = totalLookups();
  (void)robustProblem();
  const std::uint64_t looked = totalLookups() - before;
  if (envCache)
    EXPECT_GT(looked, 0u);
  else
    EXPECT_EQ(looked, 0u);
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

TEST(MetricsRegistryOverflow, HistogramExhaustionNamesTheOffendingMetric) {
  std::string offender;
  try {
    for (std::size_t i = 0; i < metrics::kMaxHistograms + 1; ++i) {
      offender = "ctx.test.overflow.hist." + std::to_string(i);
      (void)metrics::registry().histogram(offender);
    }
    FAIL() << "registering " << metrics::kMaxHistograms + 1
           << " fresh histograms should exhaust the table";
  } catch (const std::length_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(offender), std::string::npos) << what;
    EXPECT_NE(what.find("histogram capacity exhausted"), std::string::npos) << what;
  }
}
