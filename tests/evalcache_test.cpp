// Tests for the process-wide evaluation cache (core/evalcache.hpp): unit
// behavior of the sharded LRU table itself, and — the PR's headline proof —
// a differential suite showing that synthesis results are *bit-identical*
// with the cache on and off, at 1, 2, and 8 threads.  The cache may only
// ever change speed, never results; these tests are the enforcement.
//
// The cache is a process-wide singleton (like the metrics registry), so
// every test measures statistics as deltas, never absolutes.  Whether an
// evaluation consults the cache is its context's config, so each test runs
// under a context that states the mode it needs (CacheGuard, withCache).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/process.hpp"
#include "core/context.hpp"
#include "core/evalcache.hpp"
#include "core/flow.hpp"
#include "core/parallel.hpp"
#include "manufacture/corners.hpp"
#include "sizing/eqmodel.hpp"
#include "sizing/perfmodel.hpp"

namespace core = amsyn::core;
namespace cache = amsyn::core::cache;
namespace sz = amsyn::sizing;
namespace mf = amsyn::manufacture;
namespace ckt = amsyn::circuit;

namespace {

const ckt::Process& nominal() { return ckt::defaultProcess(); }

/// The environment's config with the eval cache switched on or off.  A
/// context built from it shares the process cache.
core::ContextConfig withCache(bool on) {
  core::ContextConfig cfg = core::ContextConfig::fromEnv();
  cfg.evalCacheEnabled = on;
  return cfg;
}

/// RAII test scope: an empty shared cache, its capacity restored on exit,
/// and an installed context that enables it whatever AMSYN_EVAL_CACHE says.
struct CacheGuard {
  CacheGuard() : c(cache::EvalCache::instance()), capacity(c.capacity()) { c.clear(); }
  ~CacheGuard() {
    c.setCapacity(capacity);
    c.clear();
  }
  cache::EvalCache& c;
  std::size_t capacity;
  core::ExecutionContext ctx{withCache(true)};
  core::ContextScope scope{ctx};
};

/// Minimal cacheable model that counts real evaluations, so tests can tell
/// a hit (count unchanged) from a miss (count advanced).
class CountingModel : public sz::PerformanceModel {
 public:
  explicit CountingModel(double base = 1.0, bool cacheable = true, bool throws = false)
      : base_(base), cacheable_(cacheable), throws_(throws) {}

  const std::vector<sz::DesignVariable>& variables() const override { return vars_; }

  sz::Performance evaluate(const std::vector<double>& x) const override {
    ++evals_;
    if (throws_) throw std::runtime_error("poisoned candidate");
    return {{"gain_db", base_ + x.at(0)}, {"power", base_ * x.at(0)}};
  }

  std::optional<cache::Digest128> cacheKey(const std::vector<double>& x) const override {
    if (!cacheable_) return std::nullopt;
    cache::Hasher128 h;
    h.mixString("counting-model");
    h.mixDouble(base_);
    h.mixDoubles(x);
    return h.digest();
  }

  int evals() const { return evals_.load(); }

 private:
  double base_;
  bool cacheable_;
  bool throws_;
  mutable std::atomic<int> evals_{0};
  std::vector<sz::DesignVariable> vars_{{"a", 1.0, 10.0, false, 1.0}};
};

std::uint64_t rawBits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Bit-exact Performance comparison.  operator== on the map would treat
/// NaN != NaN, but a cached NaN must reproduce the evaluated NaN exactly,
/// so values compare by their raw IEEE-754 bits.
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
  h.mixString("evalcache-test").mix(tag);
  return h.digest();
}

}  // namespace

// ---------------------------------------------------------------------------
// Unit behavior of the cache itself

TEST(EvalCache, RoundtripsFullPayloadIncludingTaxonomyKeys) {
  CacheGuard guard;
  const std::vector<double> x{1.0, 2.0};
  cache::CachedEval in;
  in.performance = {{"gain_db", 61.25},
                    {"_infeasible", 1.0},
                    {sz::kEvalStatusKey, static_cast<double>(core::EvalStatus::NanDetected)}};
  in.status = core::EvalStatus::NanDetected;
  guard.c.insert(keyOf(1), x, in);

  cache::CachedEval out;
  ASSERT_TRUE(guard.c.lookup(keyOf(1), x, out));
  EXPECT_TRUE(perfBitIdentical(in.performance, out.performance));
  EXPECT_EQ(out.status, core::EvalStatus::NanDetected);

  // A different key misses.
  EXPECT_FALSE(guard.c.lookup(keyOf(2), x, out));
}

TEST(EvalCache, ExactModeRejectsDigestMatchWithDifferentSizingBits) {
  // The collision guard behind the bit-identity proof: even if two sizing
  // vectors ever produced the same digest, the stored exact vector would
  // expose the mismatch and the lookup degrades to a (counted) miss.
  CacheGuard guard;
  const auto before = guard.c.stats();
  guard.c.insert(keyOf(3), {1.0, 2.0}, {{{"gain_db", 1.0}}, core::EvalStatus::Ok});
  cache::CachedEval out;
  EXPECT_FALSE(guard.c.lookup(keyOf(3), {1.0, std::nextafter(2.0, 3.0)}, out));
  EXPECT_TRUE(guard.c.lookup(keyOf(3), {1.0, 2.0}, out));
  const auto after = guard.c.stats();
  EXPECT_EQ(after.collisions - before.collisions, 1u);
  EXPECT_EQ(after.hits - before.hits, 1u);
}

TEST(EvalCache, EvictionKeepsOccupancyBoundedAtTinyCapacity) {
  CacheGuard guard;
  guard.c.setCapacity(32);
  const auto before = guard.c.stats();
  for (std::uint64_t i = 0; i < 1000; ++i)
    guard.c.insert(keyOf(100 + i), {static_cast<double>(i)},
                   {{{"gain_db", static_cast<double>(i)}}, core::EvalStatus::Ok});
  const auto after = guard.c.stats();
  EXPECT_LE(after.entries, 32u);
  EXPECT_GT(after.evictions - before.evictions, 0u);
  EXPECT_GT(after.bytes, 0u);
  // The freshest entry survived strict LRU; an early one was evicted.
  cache::CachedEval out;
  EXPECT_TRUE(guard.c.lookup(keyOf(100 + 999), {999.0}, out));
  EXPECT_FALSE(guard.c.lookup(keyOf(100), {0.0}, out));
}

TEST(EvalCache, ClearDropsEntriesButKeepsLifetimeTotals) {
  CacheGuard guard;
  guard.c.insert(keyOf(5), {1.0}, {{{"gain_db", 1.0}}, core::EvalStatus::Ok});
  const auto inserted = guard.c.stats();
  EXPECT_GE(inserted.entries, 1u);
  guard.c.clear();
  const auto cleared = guard.c.stats();
  EXPECT_EQ(cleared.entries, 0u);
  EXPECT_EQ(cleared.bytes, 0u);
  EXPECT_GE(cleared.inserts, inserted.inserts);  // totals are monotonic
  cache::CachedEval out;
  EXPECT_FALSE(guard.c.lookup(keyOf(5), {1.0}, out));
}

// ---------------------------------------------------------------------------
// safeEvaluate integration: the single choke point all hot loops share

TEST(EvalCache, SafeEvaluateHitsOnRepeatAndKillSwitchDisables) {
  CacheGuard guard;
  CountingModel model(7.0);
  const std::vector<double> x{3.0};

  const auto first = sz::safeEvaluate(model, x);
  const auto second = sz::safeEvaluate(model, x);
  EXPECT_EQ(model.evals(), 1) << "repeat evaluation must be served from cache";
  EXPECT_TRUE(perfBitIdentical(first, second));

  core::ExecutionContext off(withCache(false));  // the AMSYN_EVAL_CACHE=0 path
  core::ContextScope scope(off);
  const auto third = sz::safeEvaluate(model, x);
  EXPECT_EQ(model.evals(), 2) << "kill switch must force a real evaluation";
  EXPECT_TRUE(perfBitIdentical(first, third));
}

TEST(EvalCache, ModelsWithoutKeysAreNeverCached) {
  CacheGuard guard;
  CountingModel model(7.0, /*cacheable=*/false);
  const std::vector<double> x{3.0};
  sz::safeEvaluate(model, x);
  sz::safeEvaluate(model, x);
  EXPECT_EQ(model.evals(), 2);
}

TEST(EvalCache, FailureTaxonomySurvivesACacheHit) {
  // A throwing candidate is evaluated once; the hit replays the identical
  // _infeasible/_status payload without re-running (or re-tallying) it.
  CacheGuard guard;
  CountingModel model(1.0, /*cacheable=*/true, /*throws=*/true);
  const std::vector<double> x{2.0};
  const auto first = sz::safeEvaluate(model, x);
  const auto second = sz::safeEvaluate(model, x);
  EXPECT_EQ(model.evals(), 1);
  EXPECT_TRUE(perfBitIdentical(first, second));
  EXPECT_EQ(first.count("_infeasible"), 1u);
  EXPECT_EQ(sz::performanceStatus(second), core::EvalStatus::InternalError);
}

TEST(EvalCache, DistinctDesignPointsDoNotAlias) {
  CacheGuard guard;
  CountingModel model(7.0);
  const auto a = sz::safeEvaluate(model, {3.0});
  const auto b = sz::safeEvaluate(model, {4.0});
  EXPECT_EQ(model.evals(), 2);
  EXPECT_FALSE(perfBitIdentical(a, b));
}

TEST(EvalCache, ConcurrentMixedLookupsStayConsistent) {
  // Hammer one shard set from the pool: every returned payload must be the
  // one evaluation the key deterministically maps to, regardless of which
  // thread inserted it first.
  CacheGuard guard;
  CountingModel model(5.0);
  core::ScopedThreadPool scoped(8);
  constexpr std::size_t kIters = 512;
  const auto results = core::parallelMap(kIters, [&](std::size_t i) {
    const std::vector<double> x{static_cast<double>(i % 7)};
    return sz::safeEvaluate(model, x);
  });
  for (std::size_t i = 0; i < kIters; ++i) {
    const double a = static_cast<double>(i % 7);
    ASSERT_EQ(results[i].at("gain_db"), 5.0 + a);
    ASSERT_EQ(results[i].at("power"), 5.0 * a);
  }
  // 7 distinct candidates exist; duplicates may race on first evaluation
  // but the payload is deterministic either way.
  EXPECT_GE(model.evals(), 7);
  EXPECT_LE(model.evals(), 7 * 8);
}

// ---------------------------------------------------------------------------
// Differential suite: cache on == cache off, bit for bit, at any threads

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

core::FlowResult runFlow(bool cacheOn, std::size_t threads) {
  cache::EvalCache::instance().clear();
  core::ExecutionContext ctx(withCache(cacheOn));
  core::ContextScope scope(ctx);
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
  return core::synthesizeAmplifier(specs, nominal(), opts);
}

/// The run-report prefix that is a pure function of the FlowResult: report
/// name + info + values.  Counters/spans legitimately differ with the cache
/// on (less simulator work ran, and span timings are wall clock), and the
/// per-stage `stage.N.seconds` values are wall clock too, so their digits
/// are masked before comparing.
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
  // Stage records match field for field except `seconds` (wall clock).
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

mf::RobustResult runRobust(bool cacheOn, std::size_t threads) {
  cache::EvalCache::instance().clear();
  core::ExecutionContext ctx(withCache(cacheOn));
  core::ContextScope scope(ctx);
  core::ScopedThreadPool scoped(threads);
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
  // Evaluation counts are work-unit counts (cost-layer calls), not misses:
  // the cache must not change them either.
  EXPECT_EQ(a.nominalEvaluations, b.nominalEvaluations);
  EXPECT_EQ(a.robustEvaluations, b.robustEvaluations);
}

}  // namespace

TEST(EvalCacheDifferential, FlowIsBitIdenticalWithCacheOnOffAcrossThreadCounts) {
  CacheGuard guard;
  const auto reference = runFlow(/*cacheOn=*/false, /*threads=*/1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    expectFlowsBitIdentical(reference, runFlow(false, threads),
                            "cache=off threads=" + std::to_string(threads));
    expectFlowsBitIdentical(reference, runFlow(true, threads),
                            "cache=on threads=" + std::to_string(threads));
  }
}

TEST(EvalCacheDifferential, CornerSearchIsBitIdenticalWithCacheOnOffAcrossThreadCounts) {
  CacheGuard guard;
  const auto reference = runRobust(/*cacheOn=*/false, /*threads=*/1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    expectRobustBitIdentical(reference, runRobust(false, threads),
                             "cache=off threads=" + std::to_string(threads));
    expectRobustBitIdentical(reference, runRobust(true, threads),
                             "cache=on threads=" + std::to_string(threads));
  }
}

TEST(EvalCacheDifferential, CornerSearchActuallyHitsTheCache) {
  // The differential test would pass vacuously if nothing ever hit; this
  // pins the speedup mechanism itself (the audit re-hunts the last round's
  // corners, the vertex enumeration repeats across specs and rounds).
  CacheGuard guard;
  const auto before = guard.c.stats();
  runRobust(/*cacheOn=*/true, /*threads=*/2);
  const auto after = guard.c.stats();
  EXPECT_GT(after.hits - before.hits, 0u);
  EXPECT_GT(after.inserts - before.inserts, 0u);
}
