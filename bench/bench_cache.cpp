// Evaluation-cache effectiveness benchmark (BENCH_cache.json).
//
// The paper's runtime analysis (section 2.2) is dominated by redundant
// candidate evaluations: corner search re-enumerates the same box vertices
// across specs and in the final audit, and genetic selection re-scores
// duplicate genomes.  The process-wide evaluation cache
// (core/evalcache.hpp) short-circuits those repeats; this benchmark
// quantifies the win on the two workloads and — crucially — re-checks the
// cache's contract while doing so: the measured results must be
// bit-identical with the cache on and off.
//
// Workload 1 (headline): simulation-based worst-case corner hunting at a
// fixed design, hunt + audit (the exact shape robustSynthesize runs).  Full
// simulator evaluations cost hundreds of microseconds; a cache hit costs a
// netlist canonicalization plus a hash lookup, so the audit phase runs at
// near-100% hit rate and the overall wall clock should drop well past the
// 1.3x acceptance bar.
//
// Workload 2 (honest floor): genetic topology selection over the
// equation-model library.  Equation evaluations cost ~1 us — the same order
// as a lookup — so this measures the cache's overhead floor rather than a
// win; the number is reported, not asserted.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <iostream>

#include "core/context.hpp"
#include "core/evalcache.hpp"
#include "core/parallel.hpp"
#include "core/report.hpp"
#include "core/runreport.hpp"
#include "manufacture/corners.hpp"
#include "sizing/eqmodel.hpp"
#include "sizing/simmodel.hpp"
#include "topology/genetic.hpp"
#include "topology/library.hpp"

namespace {
using namespace amsyn;

const circuit::Process& nominalProc() { return circuit::defaultProcess(); }

/// The environment's config with the eval cache switched on or off; a
/// context built from it shares the process cache, so c.stats() sees its
/// traffic.
core::ContextConfig withCache(bool on) {
  core::ContextConfig cfg = core::ContextConfig::fromEnv();
  cfg.evalCacheEnabled = on;
  return cfg;
}

manufacture::ModelFactory simFactory() {
  return [](const circuit::Process& p) -> std::unique_ptr<sizing::PerformanceModel> {
    sizing::SimModelOptions opts;
    opts.measureNoise = false;  // keep a single hunt affordable
    return std::make_unique<sizing::SimulationModel>(
        sizing::twoStageTemplate(p, {5e-12, 2.2, true}), p, opts);
  };
}

std::vector<double> middlePoint() {
  const auto tmpl = sizing::twoStageTemplate(nominalProc(), {5e-12, 2.2, true});
  std::vector<double> x;
  for (const auto& v : tmpl.variables)
    x.push_back(v.logScale && v.lo > 0 ? std::sqrt(v.lo * v.hi) : 0.5 * (v.lo + v.hi));
  return x;
}

sizing::SpecSet cornerSpecs() {
  sizing::SpecSet s;
  s.atLeast("gain_db", 55.0).atLeast("pm", 45.0).atLeast("ugf", 1e6).atMost("power", 1e-2);
  return s;
}

bool bitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Hit rate as a percentage for stdout; "n/a" when there was no traffic at
/// all, so an idle cache never prints as a 0% one.
std::string hitRatePercent(std::uint64_t hits, std::uint64_t misses) {
  if (hits + misses == 0) return "n/a";
  return core::Table::num(100.0 * static_cast<double>(hits) /
                          static_cast<double>(hits + misses)) +
         "%";
}

struct HuntRun {
  double seconds = 0.0;
  std::vector<double> margins;  ///< hunt margins then audit margins, spec order
};

/// Hunt a worst corner per spec at a fixed design, then audit (re-hunt) —
/// the robustSynthesize access pattern, minus the synthesis in between.
HuntRun cornerHuntAndAudit(bool cacheOn) {
  core::cache::EvalCache::instance().clear();
  core::ExecutionContext ctx(withCache(cacheOn));
  core::ContextScope scope(ctx);
  const auto factory = simFactory();
  const auto specs = cornerSpecs();
  const auto x = middlePoint();
  manufacture::VariationSpace space;

  HuntRun run;
  const auto t0 = std::chrono::steady_clock::now();
  for (int phase = 0; phase < 2; ++phase)  // 0 = hunt, 1 = audit
    for (const auto& spec : specs.specs()) {
      const auto wc = manufacture::worstCaseCorner(factory, nominalProc(), space, x, spec);
      run.margins.push_back(wc.margin);
      run.margins.push_back(wc.value);
    }
  run.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return run;
}

struct GeneticRun {
  double seconds = 0.0;
  std::vector<double> x;
  double cost = 0.0;
};

GeneticRun geneticSearch(bool cacheOn) {
  core::cache::EvalCache::instance().clear();
  core::ExecutionContext ctx(withCache(cacheOn));
  core::ContextScope scope(ctx);
  const auto lib = topology::amplifierLibrary(nominalProc(), 5e-12);
  sizing::SpecSet specs;
  specs.atLeast("gain_db", 60.0).atLeast("ugf", 2e6).atLeast("pm", 50.0).minimize("power",
                                                                                  0.3, 1e-3);
  topology::GeneticOptions opts;
  opts.seed = 7;
  opts.generations = 40;
  GeneticRun run;
  const auto t0 = std::chrono::steady_clock::now();
  const auto res = topology::geneticSelectAndSize(lib, specs, opts);
  run.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  run.x = res.x;
  run.cost = res.cost;
  return run;
}

void writeJson() {
  auto& c = core::cache::EvalCache::instance();
  core::ScopedThreadPool scoped(std::max<std::size_t>(2, core::ThreadPool::configuredThreads()));

  std::cout << "=== Evaluation-cache effectiveness (BENCH_cache.json) ===\n\n";

  // --- workload 1: simulation-based corner hunt + audit ---
  const HuntRun off = cornerHuntAndAudit(false);
  const auto statsBefore = c.stats();
  const HuntRun on = cornerHuntAndAudit(true);
  const auto statsAfter = c.stats();

  const std::uint64_t hits = statsAfter.hits - statsBefore.hits;
  const std::uint64_t misses = statsAfter.misses - statsBefore.misses;
  const double speedup = off.seconds / std::max(on.seconds, 1e-12);
  const bool identical = bitIdentical(off.margins, on.margins);

  core::Table t({"corner hunt + audit (sim model)", "seconds", "notes"});
  t.addRow({"cache off", core::Table::num(off.seconds), "every vertex re-simulated"});
  t.addRow({"cache on", core::Table::num(on.seconds),
            "hit rate " + hitRatePercent(hits, misses)});
  t.print(std::cout);
  std::cout << "speedup: " << core::Table::num(speedup)
            << "x   margins bit-identical: " << (identical ? "yes" : "NO") << "\n\n";

  // --- workload 2: genetic selection over microsecond equation models ---
  const GeneticRun goff = geneticSearch(false);
  const auto gBefore = c.stats();
  const GeneticRun gon = geneticSearch(true);
  const auto gAfter = c.stats();
  const std::uint64_t ghits = gAfter.hits - gBefore.hits;
  const std::uint64_t gmisses = gAfter.misses - gBefore.misses;
  const double gSpeedup = goff.seconds / std::max(gon.seconds, 1e-12);
  const bool gIdentical = bitIdentical(goff.x, gon.x) && goff.cost == gon.cost;

  std::cout << "genetic selection (equation models): " << core::Table::num(goff.seconds)
            << " s off, " << core::Table::num(gon.seconds) << " s on ("
            << core::Table::num(gSpeedup) << "x, hit rate "
            << hitRatePercent(ghits, gmisses)
            << "), result identical: " << (gIdentical ? "yes" : "NO") << "\n"
            << "(equation evaluations cost about as much as a lookup — this is the\n"
            << " cache's overhead floor, not its use case)\n\n";

  core::RunReport report;
  report.name = "evaluation_cache";
  report.addInfo("benchmark", "evaluation_cache");
  report.addValue("corner_hunt_seconds_cache_off", off.seconds)
      .addValue("corner_hunt_seconds_cache_on", on.seconds)
      .addValue("speedup", speedup)
      // addRatio emits null (not 0) when hits+misses == 0: "no traffic" must
      // never read as "0% hit rate".
      .addRatio("hit_rate", static_cast<double>(hits), static_cast<double>(hits + misses))
      .addValue("hits", static_cast<double>(hits))
      .addValue("misses", static_cast<double>(misses))
      .addValue("results_bit_identical", identical ? 1.0 : 0.0)
      .addValue("genetic_seconds_cache_off", goff.seconds)
      .addValue("genetic_seconds_cache_on", gon.seconds)
      .addValue("genetic_speedup", gSpeedup)
      .addRatio("genetic_hit_rate", static_cast<double>(ghits),
                static_cast<double>(ghits + gmisses))
      .addValue("genetic_results_bit_identical", gIdentical ? 1.0 : 0.0);
  report.write("BENCH_cache.json");
  std::cout << "wrote BENCH_cache.json: " << core::Table::num(speedup)
            << "x corner-hunt speedup at hit rate " << hitRatePercent(hits, misses)
            << "\n\n";

  c.clear();
}

/// Microbenchmark: the cost of a hit — one canonical key computation plus a
/// sharded lookup — which bounds the cache's overhead on a miss, too.
void BM_CacheHit(benchmark::State& state) {
  core::ExecutionContext ctx(withCache(true));
  core::ContextScope scope(ctx);
  const auto factory = simFactory();
  const auto model = factory(nominalProc());
  const auto x = middlePoint();
  sizing::safeEvaluate(*model, x);  // warm the entry
  for (auto _ : state) {
    auto perf = sizing::safeEvaluate(*model, x);
    benchmark::DoNotOptimize(perf);
  }
}
BENCHMARK(BM_CacheHit)->Unit(benchmark::kMicrosecond);

void BM_SimEvalMiss(benchmark::State& state) {
  core::ExecutionContext ctx(withCache(false));  // every iteration pays the full simulator
  core::ContextScope scope(ctx);
  const auto factory = simFactory();
  const auto model = factory(nominalProc());
  const auto x = middlePoint();
  for (auto _ : state) {
    auto perf = sizing::safeEvaluate(*model, x);
    benchmark::DoNotOptimize(perf);
  }
}
BENCHMARK(BM_SimEvalMiss)->Unit(benchmark::kMicrosecond);

/// A hit on an equation model: its key (no netlist to canonicalize) plus a
/// sharded lookup.  The robust corner flow's TwoStageCornerModel pays this
/// on every hit; BM_EquationEval is what the evaluation itself costs.
void BM_EquationCacheHit(benchmark::State& state) {
  core::ExecutionContext ctx(withCache(true));
  core::ContextScope scope(ctx);
  const auto model = sizing::makeTwoStageCornerModel(nominalProc(), nominalProc(), 5e-12);
  const auto x = model->initialPoint();
  sizing::safeEvaluate(*model, x);  // warm the entry
  for (auto _ : state) {
    auto perf = sizing::safeEvaluate(*model, x);
    benchmark::DoNotOptimize(perf);
  }
}
BENCHMARK(BM_EquationCacheHit)->Unit(benchmark::kMicrosecond);

void BM_EquationEval(benchmark::State& state) {
  const auto model = sizing::makeTwoStageCornerModel(nominalProc(), nominalProc(), 5e-12);
  const auto x = model->initialPoint();
  for (auto _ : state) {
    auto perf = model->evaluate(x);
    benchmark::DoNotOptimize(perf);
  }
}
BENCHMARK(BM_EquationEval)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  writeJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
