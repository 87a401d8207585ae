// Tests for the observability layer: the sharded metrics registry
// (core/metrics.hpp), hierarchical trace spans (core/trace.hpp), the JSON
// run report (core/runreport.hpp), and the sim/stats.hpp recording shims
// on top of them, read back through registry totals and context slices.
//
// The registry's totals are monotonic process-wide accumulators, so every
// test here measures *deltas* against a baseline taken at its start instead
// of asserting absolute values — tests must pass in any order and alongside
// each other's traffic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuit/parser.hpp"
#include "core/context.hpp"
#include "core/flow.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "core/runreport.hpp"
#include "core/trace.hpp"
#include "manufacture/corners.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/mna.hpp"
#include "sim/stats.hpp"
#include "sizing/eqmodel.hpp"
#include "topology/library.hpp"
#include "topology/select.hpp"

namespace core = amsyn::core;
namespace metrics = amsyn::core::metrics;
namespace trace = amsyn::core::trace;
namespace sim = amsyn::sim;
namespace sz = amsyn::sizing;
namespace tp = amsyn::topology;
namespace mf = amsyn::manufacture;
namespace ckt = amsyn::circuit;

namespace {

const ckt::Process& nominal() { return ckt::defaultProcess(); }

/// Spin until the monotonic clock visibly advances so span durations are
/// strictly positive even on coarse clocks.
void burnClock() {
  const auto t0 = trace::monotonicNowNs();
  while (trace::monotonicNowNs() == t0) {
  }
}

sz::SynthesisOptions fastSynthesisOptions() {
  sz::SynthesisOptions opts;
  opts.seed = 11;
  opts.multistarts = 4;
  opts.anneal.stagnationStages = 2;
  opts.anneal.coolingRate = 0.7;
  opts.refineEvaluations = 40;
  return opts;
}

/// A fresh explicit context installed for the rest of the enclosing scope.
/// Its metrics slice counts exactly the traffic recorded from here on.
class SliceProbe {
 public:
  SliceProbe() : ctx_(core::ContextConfig::fromEnv()), scope_(ctx_) {}
  std::uint64_t operator[](const std::string& name) const {
    const auto counters = ctx_.sliceCounters();
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }

 private:
  core::ExecutionContext ctx_;
  core::ContextScope scope_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Registry basics

TEST(Metrics, CounterRegistrationIsIdempotent) {
  auto& reg = metrics::Registry::instance();
  const auto a = reg.counter("test.idempotent");
  const auto b = reg.counter("test.idempotent");
  EXPECT_EQ(a.idx, b.idx);
  EXPECT_EQ(reg.counterName(a.idx), "test.idempotent");
}

TEST(Metrics, AddIsVisibleInThreadValueAndTotal) {
  auto& reg = metrics::Registry::instance();
  const auto id = reg.counter("test.add_visible");
  const auto threadBefore = reg.threadValue(id);
  const auto totalBefore = reg.total(id);
  metrics::add(id);
  metrics::add(id, 9);
  EXPECT_EQ(reg.threadValue(id) - threadBefore, 10u);
  EXPECT_EQ(reg.total(id) - totalBefore, 10u);
  EXPECT_EQ(reg.total("test.add_visible"), reg.total(id));
}

TEST(Metrics, UnknownNameTotalsToZero) {
  EXPECT_EQ(metrics::Registry::instance().total("test.never_registered"), 0u);
}

TEST(Metrics, GaugeAppearsInSnapshot) {
  auto& reg = metrics::Registry::instance();
  reg.setGauge("test.gauge", 2.5);
  const auto snap = reg.snapshot();
  ASSERT_TRUE(snap.gauges.count("test.gauge"));
  EXPECT_EQ(snap.gauges.at("test.gauge"), 2.5);
}

TEST(Metrics, HistogramAggregatesCountSumMinMax) {
  auto& reg = metrics::Registry::instance();
  const auto id = reg.histogram("test.hist");
  metrics::record(id, 1.0);
  metrics::record(id, 4.0);
  metrics::record(id, -2.0);
  const auto snap = reg.snapshot();
  ASSERT_TRUE(snap.histograms.count("test.hist"));
  const auto& h = snap.histograms.at("test.hist");
  EXPECT_GE(h.count, 3u);
  EXPECT_LE(h.min, -2.0);
  EXPECT_GE(h.max, 4.0);
}

// ---------------------------------------------------------------------------
// The counter-loss bugfix: increments from pool workers and exited threads
// must reach the aggregate.

TEST(Metrics, PoolThreadIncrementsReachTotal) {
  auto& reg = metrics::Registry::instance();
  const auto id = reg.counter("test.pool_increments");
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const auto before = reg.total(id);
    core::ScopedThreadPool scoped(threads);
    core::parallelFor(100, [&](std::size_t) { metrics::add(id); });
    // The sum over shards is order-free: the aggregate is invariant to how
    // the 100 increments were distributed over worker threads.
    EXPECT_EQ(reg.total(id) - before, 100u) << "threads=" << threads;
  }
}

TEST(Metrics, ExitedThreadCountsFoldIntoRetiredTotals) {
  auto& reg = metrics::Registry::instance();
  const auto id = reg.counter("test.exited_thread");
  const auto before = reg.total(id);
  std::thread worker([&] { metrics::add(id, 7); });
  worker.join();  // the worker's shard retires on thread exit
  EXPECT_EQ(reg.total(id) - before, 7u);
}

TEST(SimStatsShim, TotalCapturesPoolThreadLuTraffic) {
  // The PR-1 bug: LU counters were plain thread_locals, so factorizations
  // recorded on a pool worker never reached the caller.  The registry total
  // must see all of them, at any thread count.
  auto& reg = metrics::Registry::instance();
  const auto before = reg.total("sim.lu_factorizations");
  core::ScopedThreadPool scoped(4);
  core::parallelFor(32, [&](std::size_t) { sim::recordLuFactorization(); });
  EXPECT_EQ(reg.total("sim.lu_factorizations") - before, 32u);
}

TEST(SimStatsShim, ThreadViewBaselinesOnReset) {
  // A context's slice is the per-job view: it starts at zero, counts only
  // the traffic recorded under it, and a fresh context starts at zero again.
  {
    SliceProbe slice;
    EXPECT_EQ(slice["sim.lu_factorizations"], 0u);
    EXPECT_EQ(slice["sim.lu_reuses"], 0u);
    sim::recordLuFactorization();
    sim::recordLuFactorization();
    sim::recordLuReuse();
    EXPECT_EQ(slice["sim.lu_factorizations"], 2u);
    EXPECT_EQ(slice["sim.lu_reuses"], 1u);
  }
  SliceProbe fresh;
  EXPECT_EQ(fresh["sim.lu_factorizations"], 0u);
  EXPECT_EQ(fresh["sim.lu_reuses"], 0u);
}

TEST(SimStatsShim, FailureTalliesAreFirstClassRegistryCounters) {
  auto& reg = metrics::Registry::instance();
  const auto nanBefore = reg.total("sim.fail.nan_detected");
  const auto gminBefore = reg.total("sim.strategy.gmin");
  {
    SliceProbe slice;
    sim::recordEvalFailure(core::EvalStatus::NanDetected);
    sim::recordEvalFailure(core::EvalStatus::NanDetected);
    sim::recordDcStrategy(sim::DcStrategy::Gmin);
    EXPECT_EQ(slice["sim.fail.nan_detected"], 2u);
    EXPECT_EQ(slice["sim.strategy.gmin"], 1u);
  }
  EXPECT_EQ(reg.total("sim.fail.nan_detected"), nanBefore + 2u);
  EXPECT_EQ(reg.total("sim.strategy.gmin"), gminBefore + 1u);
  const auto snap = reg.snapshot();
  ASSERT_TRUE(snap.counters.count("sim.fail.nan_detected"));
  ASSERT_TRUE(snap.counters.count("sim.strategy.gmin"));
  // A fresh context reads zero but never zeroes the registry: the process
  // totals (and report snapshots) stay monotonic.
  SliceProbe fresh;
  EXPECT_EQ(fresh["sim.fail.nan_detected"], 0u);
  EXPECT_EQ(fresh["sim.strategy.gmin"], 0u);
  EXPECT_EQ(reg.total("sim.fail.nan_detected"), nanBefore + 2u);
}

// ---------------------------------------------------------------------------
// Trace spans

TEST(Trace, NestedSpansRecordHierarchicalPaths) {
  trace::reset();
  {
    trace::Span outer("outer");
    burnClock();
    {
      trace::Span inner("inner");
      burnClock();
    }
  }
  const auto spans = trace::collect();
  ASSERT_TRUE(spans.count("outer"));
  ASSERT_TRUE(spans.count("outer/inner"));
  const auto& outer = spans.at("outer");
  const auto& inner = spans.at("outer/inner");
  EXPECT_EQ(outer.count, 1u);
  EXPECT_EQ(inner.count, 1u);
  EXPECT_GT(inner.totalNs, 0u);
  // A parent's wall time contains its child's.
  EXPECT_GE(outer.totalNs, inner.totalNs);
  EXPECT_LE(outer.minNs, outer.maxNs);
}

TEST(Trace, SpanAggregatesAcrossCallsAndThreads) {
  trace::reset();
  { trace::Span s("repeat"); }
  { trace::Span s("repeat"); }
  std::thread t([] { trace::Span s("repeat"); });
  t.join();
  const auto spans = trace::collect();
  ASSERT_TRUE(spans.count("repeat"));
  EXPECT_EQ(spans.at("repeat").count, 3u);
}

TEST(Trace, SpanRecordsCounterDeltas) {
  auto& reg = metrics::Registry::instance();
  const auto id = reg.counter("test.span_delta");
  trace::reset();
  {
    trace::Span s("delta_span");
    metrics::add(id, 5);
  }
  const auto spans = trace::collect();
  ASSERT_TRUE(spans.count("delta_span"));
  const auto& deltas = spans.at("delta_span").counterDeltas;
  ASSERT_GT(deltas.size(), id.idx);
  EXPECT_EQ(deltas[id.idx], 5u);
}

TEST(Trace, SpansReadTheCounterCountWhileNamesRegister) {
  // Spans read Registry::counterCount() at open and close without a lock,
  // concurrently with registrations on other threads (the TSan leg checks
  // the count's publication).  A counter registered inside a span was
  // snapshotted as zero at open, so its whole delta lands on the span.
  auto& reg = metrics::Registry::instance();
  trace::reset();
  std::thread registrar([&] {
    for (int i = 0; i < 8; ++i)
      metrics::add(reg.counter("test.concurrent_registration." + std::to_string(i)));
  });
  for (int i = 0; i < 200; ++i) trace::Span s("while_registering");
  registrar.join();
  metrics::CounterId inside;
  {
    trace::Span s("registers_inside");
    inside = reg.counter("test.registered_inside_span");
    metrics::add(inside, 3);
  }
  const auto spans = trace::collect();
  ASSERT_TRUE(spans.count("while_registering"));
  EXPECT_EQ(spans.at("while_registering").count, 200u);
  ASSERT_TRUE(spans.count("registers_inside"));
  const auto& deltas = spans.at("registers_inside").counterDeltas;
  ASSERT_GT(deltas.size(), inside.idx);
  EXPECT_EQ(deltas[inside.idx], 3u);
}

TEST(Trace, MacroCompilesAndRecords) {
  trace::reset();
  {
    AMSYN_SPAN("macro_span");
    burnClock();
  }
  const auto spans = trace::collect();
#if AMSYN_TRACE_ENABLED
  ASSERT_TRUE(spans.count("macro_span"));
  EXPECT_EQ(spans.at("macro_span").count, 1u);
#else
  // AMSYN_TRACE=OFF build: the macro is a no-op statement.
  EXPECT_EQ(spans.count("macro_span"), 0u);
#endif
}

// ---------------------------------------------------------------------------
// Run reports

TEST(RunReport, JsonIsDeterministicAndWellFormed) {
  core::RunReport report;
  report.name = "unit";
  report.addInfo("topology", "two-stage \"miller\"").addValue("speedup", 2.5);
  const std::string a = report.toJson();
  EXPECT_EQ(a, report.toJson());
  EXPECT_NE(a.find("\"report\": \"unit\""), std::string::npos);
  EXPECT_NE(a.find("\"topology\": \"two-stage \\\"miller\\\"\""), std::string::npos);
  EXPECT_NE(a.find("\"speedup\": 2.5"), std::string::npos);
}

TEST(RunReport, MetricsSectionsRoundTripThroughFile) {
  auto& reg = metrics::Registry::instance();
  metrics::add(reg.counter("test.report_counter"), 42);
  trace::reset();
  {
    AMSYN_SPAN("report_span");
    burnClock();
  }
  core::RunReport report;
  report.name = "roundtrip";
  report.addValue("answer", 42.0);
  const std::string json = report.toJson();
  EXPECT_NE(json.find("\"test.report_counter\""), std::string::npos);
#if AMSYN_TRACE_ENABLED
  EXPECT_NE(json.find("\"report_span\""), std::string::npos);
#endif

  const std::string path = ::testing::TempDir() + "amsyn_metrics_report.json";
  report.write(path);
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), json + "\n");
  std::remove(path.c_str());
}

TEST(RunReport, JsonNumberIsRoundTripExact) {
  EXPECT_EQ(core::jsonNumber(0.1), "0.10000000000000001");
  EXPECT_EQ(core::jsonNumber(std::nan("")), "null");
  EXPECT_EQ(core::jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(RunReport, FlowReportCarriesOutcomeAndVerifications) {
  core::FlowResult result;
  result.success = true;
  result.topology = "ota";
  result.redesigns = 1;
  core::VerificationRecord pre;
  pre.stage = "pre-layout";
  pre.passed = true;
  pre.measured["gain_db"] = 62.0;
  result.verifications.push_back(pre);
  const std::string json = core::flowRunReportJson(result);
  EXPECT_NE(json.find("\"report\": \"flow\""), std::string::npos);
  EXPECT_NE(json.find("\"topology\": \"ota\""), std::string::npos);
  EXPECT_NE(json.find("\"success\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"verify.0.stage\": \"pre-layout\""), std::string::npos);
  EXPECT_NE(json.find("\"verify.0.gain_db\": 62"), std::string::npos);
  EXPECT_NE(json.find("\"failure_status\": \"ok\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Instrumented analyses: counters flow from real runs and stay invariant to
// the thread count.

TEST(Instrumentation, AcSweepFeedsRegistryCounters) {
  auto net = ckt::parseDeck(R"(
V1 in 0 DC 0 AC 1
R1 in out 1k
C1 out 0 1n
.end)");
  sim::Mna mna(net, nominal());
  auto& reg = metrics::Registry::instance();
  const auto dcBefore = reg.total("sim.dc_solves");
  const auto factBefore = reg.total("sim.lu_factorizations");
  const auto reuseBefore = reg.total("sim.lu_reuses");
  const auto op = sim::dcOperatingPoint(mna);
  ASSERT_TRUE(op.converged);
  const auto sweep = sim::acAnalysis(mna, op, "out", {1e3, 1e3, 2e3, 2e3});
  ASSERT_EQ(sweep.points.size(), 4u);
  EXPECT_EQ(reg.total("sim.dc_solves") - dcBefore, 1u);
  EXPECT_EQ(reg.total("sim.lu_factorizations") - factBefore, 2u);
  EXPECT_EQ(reg.total("sim.lu_reuses") - reuseBefore, 2u);
  EXPECT_GE(reg.total("sim.ac_points"), 4u);
}

TEST(Instrumentation, SynthesisCountersAreThreadCountInvariant) {
  const tp::TopologyLibrary lib = tp::amplifierLibrary(nominal(), 5e-12);
  sz::SpecSet specs;
  specs.atLeast("gain_db", 60.0).atLeast("ugf", 3e6).minimize("power", 0.5, 1e-3);
  const auto opts = fastSynthesisOptions();

  auto& reg = metrics::Registry::instance();
  const std::vector<std::string> names = {"sizing.cost_evals", "anneal.moves_attempted",
                                          "anneal.moves_accepted", "anneal.stages"};
  auto run = [&](std::size_t threads) {
    std::map<std::string, std::uint64_t> before;
    for (const auto& n : names) before[n] = reg.total(n);
    core::ScopedThreadPool scoped(threads);
    tp::selectAndSize(lib, specs, opts);
    std::map<std::string, std::uint64_t> delta;
    for (const auto& n : names) delta[n] = reg.total(n) - before[n];
    return delta;
  };

  const auto serial = run(1);
  const auto parallel = run(2);
  for (const auto& n : names) {
    EXPECT_GT(serial.at(n), 0u) << n;
    // Deterministic evaluation engine: the same work happens regardless of
    // how it was scheduled, so counter deltas match exactly.
    EXPECT_EQ(serial.at(n), parallel.at(n)) << n;
  }
}

TEST(Instrumentation, CornerSearchReportsPhaseTimesAndVertexEvals) {
  sz::SpecSet specs;
  specs.atLeast("gain_db", 55.0).atLeast("ugf", 1e6).minimize("power", 0.5, 1e-3);
  mf::RobustOptions ropts;
  ropts.synthesis = fastSynthesisOptions();
  ropts.synthesis.multistarts = 2;
  ropts.maxRounds = 1;
  const mf::ModelFactory factory = [](const ckt::Process& p) {
    return sz::makeTwoStageCornerModel(p, nominal(), 5e-12);
  };

  auto& reg = metrics::Registry::instance();
  const auto vertexBefore = reg.total("corners.vertex_evals");
  trace::reset();
  core::ScopedThreadPool scoped(2);
  const auto res = mf::robustSynthesize(factory, nominal(), {}, specs, ropts);

  // The phase wall times behind the paper's 4x-10x corner-search CPU claim.
  EXPECT_GT(res.nominalSeconds, 0.0);
  EXPECT_GT(res.cornerSearchSeconds, 0.0);
  EXPECT_GT(res.robustEvaluations, res.nominalEvaluations);
  // Each hunt evaluates the 64 box vertices once for all its specs: one per
  // round, plus the audit after a round that added corners (with
  // maxRounds = 1, a maxRounds exit).
  const std::size_t hunts = res.rounds + (res.activeCorners > 0 ? 1 : 0);
  EXPECT_EQ(reg.total("corners.vertex_evals") - vertexBefore, 64u * hunts);

#if AMSYN_TRACE_ENABLED
  const auto spans = trace::collect();
  ASSERT_TRUE(spans.count("nominal_sizing"));
  ASSERT_TRUE(spans.count("corner_search"));
  EXPECT_GT(spans.at("corner_search").totalNs, 0u);
  // corner_hunt runs on the caller, under corner_search (or corner_audit).
  std::uint64_t huntSpans = 0;
  const std::string leaf = "corner_hunt";
  for (const auto& [path, s] : spans)
    if (path.size() >= leaf.size() &&
        path.compare(path.size() - leaf.size(), leaf.size(), leaf) == 0)
      huntSpans += s.count;
  EXPECT_EQ(huntSpans, hunts);
#endif
}

TEST(Instrumentation, CornerFlowSpansStayOffTheCacheTransactionPath) {
#if !AMSYN_TRACE_ENABLED
  GTEST_SKIP() << "span budget needs tracing compiled in";
#else
  // bench_claim_corners' spec set and seed.  A span costs about as much as
  // an equation-model evaluation, so the corner flow's span count must stay
  // far below its evaluation count: the enclosing synthesize/corner_hunt
  // spans own the evaluations' time.  (The name dates from the evaluation
  // cache, whose lookups sat on that per-evaluation path.)
  sz::SpecSet specs;
  specs.atLeast("gain_db", 66.0)
      .atLeast("ugf", 3e6)
      .atLeast("pm", 50.0)
      .atMost("power", 8e-3)
      .minimize("power", 0.3, 1e-3);
  mf::RobustOptions ropts;
  ropts.synthesis.seed = 19;
  const mf::ModelFactory factory = [](const ckt::Process& p) {
    return sz::makeTwoStageCornerModel(p, nominal(), 5e-12);
  };

  core::ExecutionContext ctx(core::ContextConfig::fromEnv());
  core::ContextScope scope(ctx);
  trace::reset();
  const auto res = mf::robustSynthesize(factory, nominal(), {}, specs, ropts);
  const double evaluations = res.robustEvaluations;  // includes the nominal run
  ASSERT_GT(evaluations, 0.0);

  std::uint64_t spans = 0;
  for (const auto& [path, s] : trace::collect()) spans += s.count;
  EXPECT_LT(static_cast<double>(spans) * 100.0, evaluations)
      << spans << " spans over " << evaluations << " evaluations";
#endif
}
