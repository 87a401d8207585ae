#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

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
