// Surrogate-screening effectiveness benchmark (BENCH_surrogate.json).
//
// The evaluation cache (bench_cache) removes *repeated* evaluations; the
// learned surrogate (core/surrogate.hpp) attacks fresh evaluations that
// cannot matter.  Its one consumer is the corner hunt's vertex screen:
// manufacture::worstCaseCorner skips box vertices whose predicted margin is
// confidently (calibrated 6-sigma band plus a fixed guard) above the best
// vertex's upper bound, so they cannot be the worst corner.  The screen is
// argmin-safe, so hunt results must match the unscreened run bit for bit.
//
// Two measurements:
//   * corner hunt + audit at a fixed design, screening off vs on: vertex
//     evaluations avoided, the wall-time ratio (off / on; below 1 means the
//     screen costs more than the evaluations it saves), and bit-identity;
//   * the full cutting-plane robust synthesis, screening off vs on: the
//     final robust design must be unchanged, and the vertices screened are
//     reported.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <iostream>

#include "core/context.hpp"
#include "core/evalcache.hpp"
#include "core/parallel.hpp"
#include "core/report.hpp"
#include "core/runreport.hpp"
#include "core/surrogate.hpp"
#include "manufacture/corners.hpp"
#include "sizing/eqmodel.hpp"

namespace {
using namespace amsyn;
namespace surr = core::surrogate;

const circuit::Process& nominalProc() { return circuit::defaultProcess(); }

manufacture::ModelFactory cornerFactory() {
  return [](const circuit::Process& p) {
    return sizing::makeTwoStageCornerModel(p, nominalProc(), 5e-12);
  };
}

sizing::SpecSet hardSpecs() {
  sizing::SpecSet s;
  s.atLeast("gain_db", 66.0)
      .atLeast("ugf", 3e6)
      .atLeast("pm", 50.0)
      .atMost("power", 8e-3)
      .minimize("power", 0.3, 1e-3);
  return s;
}

std::vector<double> middlePoint() {
  const auto model = cornerFactory()(nominalProc());
  std::vector<double> x;
  for (const auto& v : model->variables())
    x.push_back(v.logScale && v.lo > 0 ? std::sqrt(v.lo * v.hi) : 0.5 * (v.lo + v.hi));
  return x;
}

bool bitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// The store's stats ride on monotonic process-wide metrics counters, so
/// per-phase numbers are deltas between snapshots.
surr::Store::SurrogateStats statsDelta(const surr::Store::SurrogateStats& before,
                                       const surr::Store::SurrogateStats& after) {
  surr::Store::SurrogateStats d;
  d.observations = after.observations - before.observations;
  d.predictions = after.predictions - before.predictions;
  d.declined = after.declined - before.declined;
  d.pruned = after.pruned - before.pruned;
  d.classes = after.classes;
  return d;
}

/// Reset every cross-run memory (cache + surrogate) so each arm trains and
/// evaluates from scratch.
void resetState() {
  core::cache::EvalCache::instance().clear();
  surr::Store::instance().clear();
}

/// The environment's config with the cache on and screening as requested;
/// a context built from it shares the process cache and store, whose stats
/// the tables read.
core::ContextConfig surrogateConfig(bool screening) {
  core::ContextConfig cfg = core::ContextConfig::fromEnv();
  cfg.evalCacheEnabled = true;
  cfg.surrogateScreening = screening;
  return cfg;
}

struct HuntRun {
  double seconds = 0.0;
  std::vector<double> margins;  ///< hunt then audit margins+values, spec order
};

/// Worst-corner hunt for every constraint, twice (hunt + audit) — the
/// robustSynthesize access pattern at a fixed design.
HuntRun cornerHuntAndAudit(bool screening) {
  resetState();
  core::ExecutionContext ctx(surrogateConfig(screening));
  core::ContextScope scope(ctx);
  const auto factory = cornerFactory();
  const auto specs = hardSpecs();
  const auto x = middlePoint();
  manufacture::VariationSpace space;

  HuntRun run;
  const auto t0 = std::chrono::steady_clock::now();
  for (int phase = 0; phase < 2; ++phase)
    for (const auto& spec : specs.specs()) {
      if (spec.isObjective()) continue;
      const auto wc = manufacture::worstCaseCorner(factory, nominalProc(), space, x, spec);
      run.margins.push_back(wc.margin);
      run.margins.push_back(wc.value);
    }
  run.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return run;
}

struct RobustRun {
  double seconds = 0.0;
  manufacture::RobustResult res;
};

RobustRun robustRun(bool screening) {
  resetState();
  core::ExecutionContext ctx(surrogateConfig(screening));
  core::ContextScope scope(ctx);
  const auto specs = hardSpecs();
  manufacture::VariationSpace space;
  manufacture::RobustOptions opts;
  opts.synthesis.seed = 19;

  RobustRun r;
  const auto t0 = std::chrono::steady_clock::now();
  r.res = manufacture::robustSynthesize(cornerFactory(), nominalProc(), space, specs, opts);
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return r;
}

void writeJson() {
  core::ScopedThreadPool scoped(
      std::max<std::size_t>(2, core::ThreadPool::configuredThreads()));

  std::cout << "=== Surrogate screening (BENCH_surrogate.json) ===\n\n";

  // --- corner hunt + audit with vertex screening ---
  // The hunt phase trains the surrogate (64 vertices per spec, one class
  // across all corners); the audit phase then skips vertices that are
  // confidently not the worst corner.  The found corners/margins must match
  // the unscreened run exactly — screening is argmin-safe by construction
  // and audited offline by tests/surrogate_test.cpp.
  const HuntRun pbase = cornerHuntAndAudit(/*screening=*/false);
  const auto statsBeforeScreen = surr::Store::instance().stats();
  const HuntRun pscreen = cornerHuntAndAudit(/*screening=*/true);
  const auto screenStats = statsDelta(statsBeforeScreen, surr::Store::instance().stats());
  const double evalsAvoided = static_cast<double>(screenStats.pruned);
  const double wallRatio = pbase.seconds / std::max(pscreen.seconds, 1e-12);
  const bool huntIdentical = bitIdentical(pbase.margins, pscreen.margins);

  core::Table p({"corner hunt + audit", "seconds", "notes"});
  p.addRow({"screening off", core::Table::num(pbase.seconds),
            "every vertex evaluated"});
  p.addRow({"screening on", core::Table::num(pscreen.seconds),
            core::Table::num(evalsAvoided) + " vertex evals avoided, wall-time ratio " +
                core::Table::num(wallRatio) + "x"});
  p.print(std::cout);
  std::cout << "wall-time ratio off/on: " << core::Table::num(wallRatio)
            << "x (below 1 = the screen costs more than the evaluations it avoids)"
            << "   hunt results unchanged: " << (huntIdentical ? "yes" : "NO") << "\n\n";

  // --- flow-level: full robust synthesis must be unaffected ---
  // Lifetime residual variance from the synthesis traffic keeps the band
  // honest, so few or no hunt vertices screen here — the check is that
  // the final robust design is unchanged.
  const RobustRun base = robustRun(/*screening=*/false);
  const auto statsBeforeRobust = surr::Store::instance().stats();
  const RobustRun screened = robustRun(/*screening=*/true);
  const auto robustStats = statsDelta(statsBeforeRobust, surr::Store::instance().stats());
  const bool robustXIdentical = bitIdentical(base.res.robust.x, screened.res.robust.x);
  const bool robustVerdictMatch =
      base.res.robustFeasibleAtCorners == screened.res.robustFeasibleAtCorners &&
      base.res.robust.feasible == screened.res.robust.feasible;
  std::cout << "robust synthesis with screening: design unchanged "
            << (robustXIdentical ? "yes" : "NO") << ", corner verdict match "
            << (robustVerdictMatch ? "yes" : "NO") << ", "
            << robustStats.pruned << " hunt vertices screened\n"
            << "(every prune is audited: tests/surrogate_test.cpp re-evaluates the\n"
            << " prune log offline and requires zero false prunes)\n\n";

  core::RunReport report;
  report.name = "surrogate_screening";
  report.addInfo("benchmark", "surrogate_screening");
  report.addValue("pruning_hunt_seconds_off", pbase.seconds)
      .addValue("pruning_hunt_seconds_on", pscreen.seconds)
      .addValue("pruning_speedup", wallRatio)
      .addValue("evals_avoided", evalsAvoided)
      .addValue("pruning_hunt_results_bit_identical", huntIdentical ? 1.0 : 0.0)
      // addRatio: null (not 0) if the screening run made no predictions.
      .addRatio("evals_avoided_fraction", evalsAvoided,
                static_cast<double>(screenStats.predictions))
      .addValue("robust_x_bit_identical", robustXIdentical ? 1.0 : 0.0)
      .addValue("robust_verdict_match", robustVerdictMatch ? 1.0 : 0.0)
      .addValue("robust_hunt_vertices_screened", static_cast<double>(robustStats.pruned))
      .addValue("surrogate_classes", static_cast<double>(robustStats.classes))
      .addValue("surrogate_declined", static_cast<double>(robustStats.declined));
  report.write("BENCH_surrogate.json");
  std::cout << "wrote BENCH_surrogate.json: " << core::Table::num(evalsAvoided)
            << " evals avoided, robust design "
            << (robustXIdentical ? "unchanged" : "CHANGED") << "\n\n";

  resetState();
}

/// Microbenchmark: one surrogate prediction (lazy weight refresh amortized),
/// which bounds the per-vertex cost of the screen.
void BM_SurrogatePredict(benchmark::State& state) {
  resetState();
  core::ExecutionContext ctx(surrogateConfig(/*screening=*/true));
  core::ContextScope scope(ctx);
  const auto model = cornerFactory()(nominalProc());
  const auto x = middlePoint();
  // Train past the maturity threshold so predictions actually fire.
  for (std::size_t i = 0; i < 64; ++i) {
    auto xi = x;
    xi[i % xi.size()] *= 1.0 + 1e-3 * static_cast<double>(i + 1);
    sizing::safeEvaluate(*model, xi);
  }
  const auto cand = sizing::surrogateCandidate(*model, x);
  auto& store = ctx.surrogateStore();
  for (auto _ : state) {
    auto pred = store.predict(*cand, "gain_db");
    benchmark::DoNotOptimize(pred);
  }
  resetState();
}
BENCHMARK(BM_SurrogatePredict)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  writeJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
