// Tests for learned surrogate screening (core/surrogate.hpp) — the safety
// harness that keeps the surrogate's one consumer, the corner hunt's vertex
// screen, honest:
//
//  * Property tests on the incremental ridge model: the Sherman–Morrison
//    recursion must match a batch normal-equation solve to 1e-10, be
//    invariant to observation order, shrink to zero under heavy
//    regularization, and be bit-for-bit deterministic (including under
//    concurrent prediction through the Store).
//  * Differential tests: with screening on, the full flow and the robust
//    corner search are *bit-identical* to the screening-off run at 1 and 8
//    threads, cache on and off.  The screen is argmin-safe by construction;
//    identity is the contract, and these tests are the enforcement.
//  * Pruning audit: every skipped hunt vertex is logged with enough context
//    to re-run it offline, and none may beat the found worst corner
//    (false-prune budget: zero).
//
// The store is a process-wide singleton (like the eval cache) and holds no
// mode: every test runs under a context whose config pins the screening
// switch it needs (SurrogateGuard, childWith) and reads statistics as
// deltas, never absolutes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "circuit/process.hpp"
#include "core/context.hpp"
#include "core/evalcache.hpp"
#include "core/flow.hpp"
#include "core/parallel.hpp"
#include "core/runreport.hpp"
#include "core/surrogate.hpp"
#include "manufacture/corners.hpp"
#include "numeric/matrix.hpp"
#include "numeric/rng.hpp"
#include "sizing/eqmodel.hpp"
#include "sizing/perfmodel.hpp"

namespace core = amsyn::core;
namespace cache = amsyn::core::cache;
namespace surr = amsyn::core::surrogate;
namespace num = amsyn::num;
namespace sz = amsyn::sizing;
namespace mf = amsyn::manufacture;
namespace ckt = amsyn::circuit;

namespace {

const ckt::Process& nominal() { return ckt::defaultProcess(); }

/// A child of the calling thread's context (sharing its cache and store)
/// with its config edited.  Guards nest, so a CacheGuard + SurrogateGuard
/// pair composes both overrides on top of the environment's config.
template <typename Edit>
std::unique_ptr<core::ExecutionContext> childWith(Edit edit) {
  core::ExecutionContext& parent = core::ExecutionContext::current();
  core::ContextConfig cfg = parent.config();
  edit(cfg);
  return parent.makeChild(std::move(cfg));
}

std::unique_ptr<core::ExecutionContext> childWithScreening(bool screening) {
  return childWith(
      [screening](core::ContextConfig& cfg) { cfg.surrogateScreening = screening; });
}

/// RAII scope for the singleton store: clears learned state and the prune
/// log on entry and exit, and runs the enclosing scope with screening on or
/// off as requested, so tests cannot leak screening into each other.
struct SurrogateGuard {
  explicit SurrogateGuard(bool screening)
      : store(surr::Store::instance()), ctx(childWithScreening(screening)), scope(*ctx) {
    store.clear();
  }
  ~SurrogateGuard() { store.clear(); }
  surr::Store& store;
  std::unique_ptr<core::ExecutionContext> ctx;
  core::ContextScope scope;
};

/// RAII scope for the eval cache: empty on entry and exit, enabled for the
/// enclosing scope whatever AMSYN_EVAL_CACHE says.
struct CacheGuard {
  CacheGuard()
      : c(cache::EvalCache::instance()),
        ctx(childWith([](core::ContextConfig& cfg) { cfg.evalCacheEnabled = true; })),
        scope(*ctx) {
    c.clear();
  }
  ~CacheGuard() { c.clear(); }
  cache::EvalCache& c;
  std::unique_ptr<core::ExecutionContext> ctx;
  core::ContextScope scope;
};

std::uint64_t rawBits(double v) {
  std::uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

::testing::AssertionResult vecBitIdentical(const std::vector<double>& a,
                                           const std::vector<double>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure()
           << "sizes differ: " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (rawBits(a[i]) != rawBits(b[i]))
      return ::testing::AssertionFailure()
             << "element " << i << " differs in bits: " << a[i] << " vs " << b[i];
  return ::testing::AssertionSuccess();
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

// ---------------------------------------------------------------------------
// Property tests: the Sherman–Morrison recursion against ground truth

/// Deterministic synthetic regression data: features in [bias, U(0,1)...],
/// targets from a fixed linear law plus bounded noise.
struct SyntheticData {
  std::vector<std::vector<double>> phi;
  std::vector<amsyn::core::Performance> heads;
};

SyntheticData makeData(std::size_t d, std::size_t n, std::uint64_t seed) {
  num::Rng rng(seed);
  SyntheticData data;
  std::vector<double> truthA(d), truthB(d);
  for (std::size_t j = 0; j < d; ++j) {
    truthA[j] = rng.uniform(-2.0, 2.0);
    truthB[j] = rng.uniform(-2.0, 2.0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row(d);
    row[0] = 1.0;  // bias, matching the real feature map
    for (std::size_t j = 1; j < d; ++j) row[j] = rng.uniform();
    double ya = 0.0, yb = 0.0;
    for (std::size_t j = 0; j < d; ++j) {
      ya += truthA[j] * row[j];
      yb += truthB[j] * row[j];
    }
    data.heads.push_back({{"a", ya + 0.01 * rng.normal()},
                          {"b", yb + 0.01 * rng.normal()}});
    data.phi.push_back(std::move(row));
  }
  return data;
}

/// Ground truth: solve (lambda I + X'X) w = X'y with the dense LU kernel.
std::vector<double> batchRidge(const SyntheticData& data, const std::string& head,
                               double lambda) {
  const std::size_t d = data.phi.front().size();
  num::MatrixD a(d, d);
  std::vector<double> b(d, 0.0);
  for (std::size_t j = 0; j < d; ++j) a(j, j) = lambda;
  for (std::size_t i = 0; i < data.phi.size(); ++i) {
    const auto& row = data.phi[i];
    const double y = data.heads[i].at(head);
    for (std::size_t j = 0; j < d; ++j) {
      b[j] += row[j] * y;
      for (std::size_t k = 0; k < d; ++k) a(j, k) += row[j] * row[k];
    }
  }
  return num::solveDense(std::move(a), b);
}

void expectWeightsMatch(const std::vector<double>& got,
                        const std::vector<double>& want, double tol,
                        const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t j = 0; j < got.size(); ++j)
    EXPECT_NEAR(got[j], want[j], tol * (1.0 + std::abs(want[j])))
        << "coefficient " << j;
}

TEST(SurrogateRidge, ShermanMorrisonMatchesBatchNormalEquations) {
  // The incremental update must be the exact ridge solve, not an
  // approximation: across dimensions and sample counts the recursion's
  // weights agree with a from-scratch LU solve of the normal equations.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {2, 8}, {5, 5}, {8, 128}, {16, 512}};
  for (const auto& [d, n] : shapes) {
    const auto data = makeData(d, n, 1000 + d);
    surr::RidgeModel model(d);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_TRUE(model.observe(data.phi[i], data.heads[i]));
    EXPECT_EQ(model.observations(), n);
    for (const std::string head : {"a", "b"}) {
      const auto batch = batchRidge(data, head, surr::RidgeModel::kDefaultLambda);
      expectWeightsMatch(model.weights(head), batch, 1e-10,
                         "d=" + std::to_string(d) + " n=" + std::to_string(n) +
                             " head=" + head);
    }
  }
}

TEST(SurrogateRidge, FitIsInvariantToObservationOrder) {
  // The fitted ridge solution depends on the data *set*, not the feed
  // order.  Both orders are checked against the same batch solve, which
  // also bounds them against each other.
  const std::size_t d = 6, n = 96;
  const auto data = makeData(d, n, 42);
  surr::RidgeModel forward(d), reversed(d);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_TRUE(forward.observe(data.phi[i], data.heads[i]));
  for (std::size_t i = n; i-- > 0;)
    ASSERT_TRUE(reversed.observe(data.phi[i], data.heads[i]));
  for (const std::string head : {"a", "b"}) {
    const auto batch = batchRidge(data, head, surr::RidgeModel::kDefaultLambda);
    expectWeightsMatch(forward.weights(head), batch, 1e-10, "forward " + head);
    expectWeightsMatch(reversed.weights(head), batch, 1e-10, "reversed " + head);
  }
}

TEST(SurrogateRidge, PredictionIsInvariantUnderFeaturePermutation) {
  // Relabeling the feature coordinates (and relabeling probes the same
  // way) must not change what the model predicts: the ridge solve has no
  // preferred coordinate order.  Weights permute along with the features.
  const std::size_t d = 6, n = 72;
  const auto data = makeData(d, n, 17);
  const std::vector<std::size_t> perm = {3, 0, 5, 1, 4, 2};
  surr::RidgeModel plain(d), permuted(d);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> row(d);
    for (std::size_t j = 0; j < d; ++j) row[j] = data.phi[i][perm[j]];
    ASSERT_TRUE(plain.observe(data.phi[i], data.heads[i]));
    ASSERT_TRUE(permuted.observe(row, data.heads[i]));
  }
  for (const std::string head : {"a", "b"}) {
    const auto w = plain.weights(head);
    const auto wp = permuted.weights(head);
    ASSERT_EQ(w.size(), wp.size());
    for (std::size_t j = 0; j < d; ++j)
      EXPECT_NEAR(wp[j], w[perm[j]], 1e-10 * (1.0 + std::abs(w[perm[j]])));
    for (std::size_t i = 0; i < n; i += 11) {
      std::vector<double> probe(d);
      for (std::size_t j = 0; j < d; ++j) probe[j] = data.phi[i][perm[j]];
      const auto p = plain.predict(data.phi[i], head);
      const auto pp = permuted.predict(probe, head);
      ASSERT_TRUE(p.has_value());
      ASSERT_TRUE(pp.has_value());
      EXPECT_NEAR(pp->mean, p->mean, 1e-9 * (1.0 + std::abs(p->mean)));
      EXPECT_NEAR(pp->sigma, p->sigma, 1e-9 * (1.0 + p->sigma));
      EXPECT_EQ(pp->calibrated, p->calibrated);
    }
  }
}

TEST(SurrogateRidge, HeavyRegularizationDrivesWeightsToZero) {
  const std::size_t d = 5, n = 64;
  const auto data = makeData(d, n, 7);
  surr::RidgeModel model(d, /*lambda=*/1e12);
  for (std::size_t i = 0; i < n; ++i)
    ASSERT_TRUE(model.observe(data.phi[i], data.heads[i]));
  for (const std::string head : {"a", "b"})
    for (double w : model.weights(head)) EXPECT_LT(std::abs(w), 1e-6);
  // And the prediction mean follows the weights to zero.
  const auto pred = model.predict(data.phi.front(), "a");
  ASSERT_TRUE(pred.has_value());
  EXPECT_LT(std::abs(pred->mean), 1e-5);
}

TEST(SurrogateRidge, SameSequenceIsBitDeterministic) {
  const std::size_t d = 7, n = 80;
  const auto data = makeData(d, n, 99);
  surr::RidgeModel m1(d), m2(d);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(m1.observe(data.phi[i], data.heads[i]));
    ASSERT_TRUE(m2.observe(data.phi[i], data.heads[i]));
  }
  for (const std::string head : {"a", "b"}) {
    EXPECT_TRUE(vecBitIdentical(m1.weights(head), m2.weights(head)));
    for (std::size_t i = 0; i < n; i += 7) {
      const auto p1 = m1.predict(data.phi[i], head);
      const auto p2 = m2.predict(data.phi[i], head);
      ASSERT_TRUE(p1.has_value());
      ASSERT_TRUE(p2.has_value());
      EXPECT_EQ(rawBits(p1->mean), rawBits(p2->mean));
      EXPECT_EQ(rawBits(p1->sigma), rawBits(p2->sigma));
      EXPECT_EQ(p1->calibrated, p2->calibrated);
    }
  }
}

TEST(SurrogateRidge, MaturityAndCalibrationGates) {
  const std::size_t d = 4;
  const auto data = makeData(d, d + surr::RidgeModel::kMinCalibration + 8, 5);
  surr::RidgeModel model(d);
  for (std::size_t i = 0; i < data.phi.size(); ++i) {
    if (model.observations() < d) {
      // Underdetermined: no predictions at all.
      EXPECT_FALSE(model.predict(data.phi[0], "a").has_value());
    } else if (model.observations() < d + surr::RidgeModel::kMinCalibration) {
      // Determined but not yet calibrated: predictions exist, sigma is
      // not yet trustworthy.
      const auto p = model.predict(data.phi[0], "a");
      ASSERT_TRUE(p.has_value());
      EXPECT_FALSE(p->calibrated);
    }
    ASSERT_TRUE(model.observe(data.phi[i], data.heads[i]));
  }
  const auto p = model.predict(data.phi[0], "a");
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->calibrated);
  EXPECT_GT(p->sigma, 0.0);
  // Unknown head: nullopt, never a guess.
  EXPECT_FALSE(model.predict(data.phi[0], "zeta").has_value());
}

TEST(SurrogateRidge, HeadSetDriftIsDeclined) {
  surr::RidgeModel model(2);
  ASSERT_TRUE(model.observe({1.0, 0.5}, {{"a", 1.0}, {"b", 2.0}}));
  // Missing head, extra head, renamed head: all declined, count unchanged.
  EXPECT_FALSE(model.observe({1.0, 0.5}, {{"a", 1.0}}));
  EXPECT_FALSE(model.observe({1.0, 0.5}, {{"a", 1.0}, {"b", 2.0}, {"c", 3.0}}));
  EXPECT_FALSE(model.observe({1.0, 0.5}, {{"a", 1.0}, {"c", 2.0}}));
  EXPECT_FALSE(model.observe({1.0}, {{"a", 1.0}, {"b", 2.0}}));          // dim drift
  EXPECT_FALSE(model.observe({1.0, std::nan("")}, {{"a", 1.0}, {"b", 2.0}}));
  EXPECT_EQ(model.observations(), 1u);
}

// ---------------------------------------------------------------------------
// Store-level determinism

TEST(SurrogateStore, ConcurrentPredictionsAreBitIdenticalToSerial) {
  SurrogateGuard guard(/*screening=*/true);
  cache::Hasher128 h;
  h.mixString("surrogate-test-store-class");
  const cache::Digest128 key = h.digest();

  const std::size_t d = 4, n = 48;
  const auto data = makeData(d, n, 11);
  for (std::size_t i = 0; i < n; ++i)
    guard.store.observe({key, data.phi[i]}, data.heads[i]);

  const auto serial = guard.store.predict({key, data.phi[3]}, "a");
  ASSERT_TRUE(serial.has_value());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 200; ++i) {
        const auto p = surr::Store::instance().predict({key, data.phi[3]}, "a");
        if (!p || rawBits(p->mean) != rawBits(serial->mean) ||
            rawBits(p->sigma) != rawBits(serial->sigma) ||
            p->calibrated != serial->calibrated)
          mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(SurrogateStore, ClearDropsLearnedStateAndPruneLog) {
  SurrogateGuard guard(/*screening=*/true);
  cache::Hasher128 h;
  h.mixString("surrogate-test-clear-class");
  const cache::Digest128 key = h.digest();
  const auto data = makeData(3, 8, 2);
  for (std::size_t i = 0; i < 8; ++i)
    guard.store.observe({key, data.phi[i]}, data.heads[i]);
  guard.store.recordPrune({key, {0.5}, "a", -1.0, 0.1, {}});
  EXPECT_FALSE(guard.store.pruneLog().empty());
  guard.store.clear();
  EXPECT_TRUE(guard.store.pruneLog().empty());
  EXPECT_FALSE(guard.store.predict({key, data.phi[0]}, "a").has_value());
}

// ---------------------------------------------------------------------------
// RunReport::addRatio — no traffic must not read as a 0% rate

TEST(RunReportRatio, ZeroDenominatorEmitsNullNotZero) {
  core::RunReport r;
  r.name = "ratio_test";
  r.addRatio("no_traffic", 0.0, 0.0).addRatio("real_rate", 1.0, 4.0);
  const std::string json = r.toJson();
  EXPECT_NE(json.find("\"no_traffic\": null"), std::string::npos) << json;
  EXPECT_NE(json.find("\"real_rate\": 0.25"), std::string::npos) << json;
}

// ---------------------------------------------------------------------------
// Differential suite: screening on is bit-identical to screening off

sz::SynthesisOptions fastSynthesisOptions() {
  sz::SynthesisOptions opts;
  opts.seed = 11;
  opts.multistarts = 2;
  opts.anneal.stagnationStages = 2;
  opts.anneal.coolingRate = 0.7;
  opts.refineEvaluations = 40;
  return opts;
}

core::FlowResult runFlow(bool screening, bool cacheOn, std::size_t threads) {
  cache::EvalCache::instance().clear();
  surr::Store::instance().clear();  // each arm trains from scratch
  const auto ctx = childWith([&](core::ContextConfig& cfg) {
    cfg.surrogateScreening = screening;
    cfg.evalCacheEnabled = cacheOn;
  });
  core::ContextScope scope(*ctx);
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

/// Run-report prefix that is a pure function of the FlowResult (name + info
/// + values), with wall-clock `.seconds` values masked — counters/spans
/// legitimately differ when the surrogate trains (core.surrogate.* move).
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

TEST(SurrogateDifferential, FlowIsBitIdenticalWithScreeningAcrossThreadsAndCache) {
  CacheGuard cguard;
  SurrogateGuard sguard(/*screening=*/false);
  const auto reference = runFlow(/*screening=*/false, /*cacheOn=*/false, /*threads=*/1);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (const bool cacheOn : {false, true}) {
      expectFlowsBitIdentical(
          reference, runFlow(/*screening=*/true, cacheOn, threads),
          "screening=on cache=" + std::string(cacheOn ? "on" : "off") +
              " threads=" + std::to_string(threads));
    }
  }
}

mf::RobustResult runRobust(bool screening, bool cacheOn, std::size_t threads) {
  cache::EvalCache::instance().clear();
  surr::Store::instance().clear();
  const auto ctx = childWith([&](core::ContextConfig& cfg) {
    cfg.surrogateScreening = screening;
    cfg.evalCacheEnabled = cacheOn;
  });
  core::ContextScope scope(*ctx);
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
  EXPECT_EQ(a.nominalEvaluations, b.nominalEvaluations);
  EXPECT_EQ(a.robustEvaluations, b.robustEvaluations);
}

TEST(SurrogateDifferential, RobustCornerSearchIsBitIdenticalWithScreening) {
  // Every hunt of the cutting-plane loop consults the screen here (the
  // store trains on the synthesis traffic and predicts each vertex).  On
  // this workload the band is too wide to skip a vertex; the hunt-level
  // audit below covers the skipping path itself.
  CacheGuard cguard;
  SurrogateGuard sguard(/*screening=*/false);
  const auto reference = runRobust(/*screening=*/false, /*cacheOn=*/false, /*threads=*/1);
  const std::uint64_t predictionsBefore = surr::Store::instance().stats().predictions;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    for (const bool cacheOn : {false, true}) {
      expectRobustBitIdentical(
          reference, runRobust(/*screening=*/true, cacheOn, threads),
          "screening=on cache=" + std::string(cacheOn ? "on" : "off") +
              " threads=" + std::to_string(threads));
    }
  }
  EXPECT_GT(surr::Store::instance().stats().predictions, predictionsBefore);
}

// ---------------------------------------------------------------------------
// Pruning audit

/// Signed normalized margin (mirror of the hunt's own formula).
double auditMargin(const sz::Spec& spec, const sz::Performance& perf) {
  if (perf.count("_infeasible")) return -1.0;
  const auto it = perf.find(spec.performance);
  if (it == perf.end()) return -1.0;
  return spec.kind == sz::SpecKind::GreaterEqual
             ? (it->second - spec.bound) / spec.normalization()
             : (spec.bound - it->second) / spec.normalization();
}

sz::SpecSet hardSpecs() {
  sz::SpecSet s;
  s.atLeast("gain_db", 66.0)
      .atLeast("ugf", 3e6)
      .atLeast("pm", 50.0)
      .atMost("power", 8e-3)
      .minimize("power", 0.3, 1e-3);
  return s;
}

TEST(SurrogatePruning, HuntVertexPrunesNeverBeatTheFoundWorstCorner) {
  // The headline pruning consumer: worstCaseCorner skips vertices whose
  // predicted margin is confidently not the argmin.  Contract, in two
  // parts: (1) hunt results are bit-identical to the unscreened run, and
  // (2) re-evaluating every skipped vertex offline shows none of them was
  // the true worst corner.  False-prune budget: ZERO.
  CacheGuard cguard;
  core::ScopedThreadPool scoped(4);
  const mf::ModelFactory factory = [](const ckt::Process& p) {
    return sz::makeTwoStageCornerModel(p, nominal(), 5e-12);
  };
  const auto specs = hardSpecs();
  mf::VariationSpace space;
  const auto model = factory(nominal());
  const auto x = model->initialPoint();

  // Reference: hunt + audit (the robustSynthesize access pattern) with the
  // surrogate off.
  std::vector<double> offMargins;
  {
    SurrogateGuard guard(/*screening=*/false);
    cache::EvalCache::instance().clear();
    for (int phase = 0; phase < 2; ++phase)
      for (const auto& spec : specs.specs()) {
        if (spec.isObjective()) continue;
        const auto wc = mf::worstCaseCorner(factory, nominal(), space, x, spec);
        offMargins.push_back(wc.margin);
        offMargins.push_back(wc.value);
      }
  }

  // Screened run: the first hunt phase trains the per-class model, the
  // second phase prunes.  Collect the found worst margin per spec for the
  // audit bound.
  SurrogateGuard guard(/*screening=*/true);
  cache::EvalCache::instance().clear();
  const auto statsBefore = guard.store.stats();
  std::vector<double> onMargins;
  std::map<std::string, double> foundMin;
  for (int phase = 0; phase < 2; ++phase)
    for (const auto& spec : specs.specs()) {
      if (spec.isObjective()) continue;
      const auto wc = mf::worstCaseCorner(factory, nominal(), space, x, spec);
      onMargins.push_back(wc.margin);
      onMargins.push_back(wc.value);
      auto [it, inserted] = foundMin.emplace(spec.performance, wc.margin);
      if (!inserted) it->second = std::min(it->second, wc.margin);
    }
  const auto statsAfter = guard.store.stats();

  // (1) Screening must not have moved any result.
  EXPECT_TRUE(vecBitIdentical(offMargins, onMargins));
  // The test must not pass vacuously: the workload is sized so screening
  // actually fires (the bench measures ~25% of predictions pruned here).
  const std::uint64_t pruned = statsAfter.pruned - statsBefore.pruned;
  EXPECT_GT(pruned, 0u);
  const auto log = guard.store.pruneLog();
  ASSERT_GE(log.size(), 1u);

  // (2) Offline audit: re-evaluate every skipped vertex with the real
  // model.  A false prune would be a vertex whose true margin beats the
  // worst corner the hunt found for that spec.
  const auto audit = childWithScreening(false);  // audit evaluations stay untracked
  core::ContextScope auditScope(*audit);
  std::size_t audited = 0;
  for (const auto& rec : log) {
    ASSERT_EQ(rec.corner.size(), mf::VariationSpace::kDims);
    const sz::Spec* spec = nullptr;
    for (const auto& s : specs.specs())
      if (s.performance == rec.spec) spec = &s;
    ASSERT_NE(spec, nullptr) << "prune log names unknown spec " << rec.spec;
    const auto vertexModel = factory(space.apply(nominal(), rec.corner));
    const auto perf = sz::safeEvaluate(*vertexModel, rec.x);
    const double trueMargin = auditMargin(*spec, perf);
    EXPECT_GE(trueMargin, foundMin.at(rec.spec) - 1e-12)
        << "FALSE PRUNE: skipped vertex for " << rec.spec
        << " has true margin " << trueMargin << ", beating the found minimum "
        << foundMin.at(rec.spec) << " (predicted lower bound "
        << rec.predictedMargin << ", sigma " << rec.sigma << ")";
    ++audited;
  }
  // The log is bounded (first 4096), but this workload is far below the
  // bound: every counted prune must have been audited.
  EXPECT_EQ(static_cast<std::uint64_t>(audited), pruned);
}

}  // namespace
