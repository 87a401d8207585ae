#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/flow.hpp"
#include "core/parallel.hpp"
#include "core/threadpool.hpp"
#include "manufacture/corners.hpp"
#include "numeric/rng.hpp"
#include "sizing/eqmodel.hpp"
#include "topology/genetic.hpp"
#include "topology/library.hpp"

namespace core = amsyn::core;
namespace num = amsyn::num;
namespace sz = amsyn::sizing;
namespace tp = amsyn::topology;
namespace mf = amsyn::manufacture;
namespace ckt = amsyn::circuit;

namespace {
const ckt::Process& nominal() { return ckt::defaultProcess(); }

mf::ModelFactory twoStageFactory(double cl = 5e-12) {
  return [cl](const ckt::Process& p) {
    return sz::makeTwoStageCornerModel(p, nominal(), cl);
  };
}
}  // namespace

// ---------------------------------------------------------------------------
// Thread pool

TEST(ThreadPool, ExecutesEverySubmittedTask) {
  std::atomic<int> count{0};
  {
    core::ThreadPool pool(3);
    for (int i = 0; i < 200; ++i) pool.submit([&] { count.fetch_add(1); });
    // Destructor drains the queues: no task is ever dropped.
  }
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, TasksSubmittedFromWorkersRun) {
  std::atomic<int> count{0};
  {
    core::ThreadPool pool(2);
    for (int i = 0; i < 16; ++i)
      pool.submit([&count, &pool] {
        // Nested submit from a worker thread lands on its own deque.
        pool.submit([&count] { count.fetch_add(1); });
      });
  }
  EXPECT_EQ(count.load(), 16);
}

TEST(ThreadPool, ConfiguredThreadsReadsEnvironment) {
  ::setenv("AMSYN_THREADS", "3", 1);
  EXPECT_EQ(core::ThreadPool::configuredThreads(), 3u);
  ::setenv("AMSYN_THREADS", "0", 1);  // invalid: fall back to hardware
  EXPECT_GE(core::ThreadPool::configuredThreads(), 1u);
  ::unsetenv("AMSYN_THREADS");
  EXPECT_GE(core::ThreadPool::configuredThreads(), 1u);
}

TEST(ThreadPool, ScopedOverrideInstallsAndRestores) {
  {
    core::ScopedThreadPool scoped(2);
    EXPECT_EQ(&core::ThreadPool::global(), &scoped.pool());
    EXPECT_EQ(scoped.pool().threadCount(), 2u);
  }
  // After the scope the default global pool is back.
  EXPECT_GE(core::ThreadPool::global().threadCount(), 1u);
}

// ---------------------------------------------------------------------------
// parallelFor / parallelMap

TEST(Parallel, ZeroTasksIsANoop) {
  bool called = false;
  core::parallelFor(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
  const auto out = core::parallelMap(0, [](std::size_t i) { return i; });
  EXPECT_TRUE(out.empty());
}

TEST(Parallel, EveryIndexRunsExactlyOnce) {
  core::ScopedThreadPool scoped(4);
  std::vector<std::atomic<int>> hits(1000);
  core::parallelFor(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, MapLandsResultsByIndex) {
  core::ScopedThreadPool scoped(4);
  const auto out = core::parallelMap(512, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 512u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(Parallel, ExceptionsPropagateToCaller) {
  core::ScopedThreadPool scoped(4);
  EXPECT_THROW(core::parallelFor(100,
                                 [](std::size_t i) {
                                   if (i == 37) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool survives a failed loop and keeps serving work.
  std::atomic<int> count{0};
  core::parallelFor(50, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 50);
}

TEST(Parallel, NestedLoopsDoNotDeadlock) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    core::ScopedThreadPool scoped(threads);
    std::atomic<int> count{0};
    core::parallelFor(4, [&](std::size_t) {
      core::parallelFor(8, [&](std::size_t) { count.fetch_add(1); });
    });
    EXPECT_EQ(count.load(), 32) << threads << " threads";
  }
}

// ---------------------------------------------------------------------------
// RNG stream splitting

TEST(Rng, StreamSeedIsAPureFunctionOfSeedAndStream) {
  EXPECT_EQ(num::Rng::streamSeed(42, 7), num::Rng::streamSeed(42, 7));
  EXPECT_NE(num::Rng::streamSeed(42, 0), num::Rng::streamSeed(42, 1));
  EXPECT_NE(num::Rng::streamSeed(42, 0), num::Rng::streamSeed(43, 0));
}

TEST(Rng, SplitMatchesStreamConstructor) {
  num::Rng parent(123);
  num::Rng a = parent.split(5);
  num::Rng b(123, 5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, SplitIgnoresParentDrawCount) {
  num::Rng fresh(99);
  num::Rng used(99);
  for (int i = 0; i < 100; ++i) used.uniform();
  // Streams derive from the construction seed, not engine state: the split
  // set cannot depend on how much the parent has been consumed.
  num::Rng a = fresh.split(2);
  num::Rng b = used.split(2);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, StreamsAreDecorrelated) {
  // Crude independence check: the mean of products of paired draws from
  // neighboring streams should be near E[u]^2 = 0.25.
  num::Rng parent(7);
  double acc = 0.0;
  const int n = 2000;
  for (int s = 0; s < 4; ++s) {
    num::Rng a = parent.split(2 * s);
    num::Rng b = parent.split(2 * s + 1);
    for (int i = 0; i < n / 4; ++i) acc += a.uniform() * b.uniform();
  }
  EXPECT_NEAR(acc / n, 0.25, 0.02);
}

// ---------------------------------------------------------------------------
// Determinism across thread counts.  These are the load-bearing tests: every
// parallel loop must produce bit-identical results at any pool size.

TEST(Determinism, CornerSearchIdenticalAtOneAndEightThreads) {
  const auto factory = twoStageFactory();
  const sz::ComposedOpampModel model(sz::OpampStructure::legacyTwoStage(), nominal(), 5e-12);
  const auto x = model.initialPoint();
  mf::VariationSpace space;
  const sz::Spec spec{"gain_db", sz::SpecKind::GreaterEqual,
                      model.evaluate(x).at("gain_db"), 1.0, 0.0};

  auto run = [&](std::size_t threads) {
    core::ScopedThreadPool scoped(threads);
    return mf::worstCaseCorner(factory, nominal(), space, x, spec);
  };
  const auto serial = run(1);
  const auto parallel = run(8);
  EXPECT_EQ(serial.margin, parallel.margin);
  EXPECT_EQ(serial.value, parallel.value);
  ASSERT_EQ(serial.corner.size(), parallel.corner.size());
  for (std::size_t i = 0; i < serial.corner.size(); ++i)
    EXPECT_EQ(serial.corner[i], parallel.corner[i]) << "coordinate " << i;
}

TEST(Determinism, GeneticSelectionIdenticalAtOneAndEightThreads) {
  const tp::TopologyLibrary lib = tp::amplifierLibrary(nominal(), 5e-12);
  sz::SpecSet specs;
  specs.atLeast("gain_db", 60.0).atLeast("ugf", 3e6).minimize("power", 0.5, 1e-3);
  tp::GeneticOptions opts;
  opts.seed = 13;
  opts.populationSize = 12;
  opts.generations = 6;

  auto run = [&](std::size_t threads) {
    core::ScopedThreadPool scoped(threads);
    return tp::geneticSelectAndSize(lib, specs, opts);
  };
  const auto serial = run(1);
  const auto parallel = run(8);
  EXPECT_EQ(serial.topology, parallel.topology);
  EXPECT_EQ(serial.cost, parallel.cost);
  EXPECT_EQ(serial.feasible, parallel.feasible);
  EXPECT_EQ(serial.evaluations, parallel.evaluations);
  ASSERT_EQ(serial.x.size(), parallel.x.size());
  for (std::size_t i = 0; i < serial.x.size(); ++i) EXPECT_EQ(serial.x[i], parallel.x[i]);
  EXPECT_EQ(serial.populationShare, parallel.populationShare);
}

TEST(Determinism, MultistartSynthesisIdenticalAtOneAndEightThreads) {
  const sz::ComposedOpampModel model(sz::OpampStructure::legacyTwoStage(), nominal(), 5e-12);
  sz::SpecSet specs;
  specs.atLeast("gain_db", 60.0).atLeast("ugf", 3e6).minimize("power", 0.5, 1e-3);
  sz::SynthesisOptions opts;
  opts.seed = 11;
  opts.multistarts = 4;
  opts.anneal.stagnationStages = 2;
  opts.anneal.coolingRate = 0.7;
  opts.refineEvaluations = 40;

  auto run = [&](std::size_t threads) {
    core::ScopedThreadPool scoped(threads);
    const sz::CostFunction cost(model, specs, {});
    return sz::synthesize(cost, opts);
  };
  const auto serial = run(1);
  const auto parallel = run(8);
  EXPECT_EQ(serial.cost, parallel.cost);
  EXPECT_EQ(serial.feasible, parallel.feasible);
  EXPECT_EQ(serial.evaluations, parallel.evaluations);
  ASSERT_EQ(serial.x.size(), parallel.x.size());
  for (std::size_t i = 0; i < serial.x.size(); ++i) EXPECT_EQ(serial.x[i], parallel.x[i]);
}

// Whole-flow and robust-synthesis determinism: every stage and every
// cutting-plane round, bit for bit, at 1, 2 and 8 threads.

namespace {

std::uint64_t rawBits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Bit-exact Performance comparison: operator== on the map would treat
/// NaN != NaN, so values compare by their raw IEEE-754 bits.
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

sz::SynthesisOptions fastSynthesisOptions() {
  sz::SynthesisOptions opts;
  opts.seed = 11;
  opts.multistarts = 2;
  opts.anneal.stagnationStages = 2;
  opts.anneal.coolingRate = 0.7;
  opts.refineEvaluations = 40;
  return opts;
}

core::FlowResult runFlow(std::size_t threads) {
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
/// name + info + values.  Counters and spans follow the schedule, and the
/// per-stage `stage.N.seconds` values are wall clock, so their digits are
/// masked before comparing.
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

mf::RobustResult runRobust(std::size_t threads) {
  core::ScopedThreadPool scoped(threads);
  sz::SpecSet specs;
  specs.atLeast("gain_db", 55.0).atLeast("ugf", 1e6).minimize("power", 0.5, 1e-3);
  mf::RobustOptions ropts;
  ropts.synthesis = fastSynthesisOptions();
  ropts.maxRounds = 1;
  return mf::robustSynthesize(twoStageFactory(), nominal(), mf::VariationSpace{}, specs, ropts);
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

// The EvalCacheDifferential names date from when these runs also toggled the
// evaluation cache; with the cache gone only the thread-count dimension is
// left.

TEST(EvalCacheDifferential, FlowIsBitIdenticalWithCacheOnOffAcrossThreadCounts) {
  const auto reference = runFlow(1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}})
    expectFlowsBitIdentical(reference, runFlow(threads),
                            "threads=" + std::to_string(threads));
}

TEST(EvalCacheDifferential, CornerSearchIsBitIdenticalWithCacheOnOffAcrossThreadCounts) {
  const auto reference = runRobust(1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}})
    expectRobustBitIdentical(reference, runRobust(threads),
                             "threads=" + std::to_string(threads));
}

TEST(Multistart, SingleStartPreservesLegacySeedBehavior) {
  // multistarts == 1 must run the annealer exactly as before this feature:
  // seeded with opts.seed itself, not with stream 0 of it.
  const sz::ComposedOpampModel model(sz::OpampStructure::legacyTwoStage(), nominal(), 5e-12);
  sz::SpecSet specs;
  specs.atLeast("gain_db", 60.0).minimize("power", 0.5, 1e-3);
  sz::SynthesisOptions opts;
  opts.seed = 11;
  opts.anneal.stagnationStages = 2;
  opts.refineEvaluations = 40;
  const sz::CostFunction costA(model, specs, {});
  const auto a = sz::synthesize(costA, opts);
  opts.multistarts = 1;  // explicit 1 must match the default
  const sz::CostFunction costB(model, specs, {});
  const auto b = sz::synthesize(costB, opts);
  EXPECT_EQ(a.cost, b.cost);
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t i = 0; i < a.x.size(); ++i) EXPECT_EQ(a.x[i], b.x[i]);
}
