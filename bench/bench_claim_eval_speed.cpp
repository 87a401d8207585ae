// Reproduction of the section-2.2 evaluator-cost claim: "The big advantage
// of using design plans is their fast execution speed"; equation-based
// optimization evaluates "(simplified) analytic design equations"; the
// simulation-based subcategory performs "a full SPICE simulation run at
// every iteration ... the drawback are the long run times"; ASTRX/OBLX sits
// in between by evaluating "the linear small-signal characteristics ...
// efficiently using AWE."
//
// One table: microseconds per performance evaluation for each strategy on
// the identical two-stage opamp, plus the implied cost of a 10k-iteration
// annealing run.
// A second table measures the sparse-MNA fast path (sim/solver.hpp): the
// same DC + AC evaluation on a netlist-size family, forced dense vs forced
// sparse, with fill ratios and symbolic-reuse traffic.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>

#include "core/context.hpp"
#include "core/metrics.hpp"
#include "core/parallel.hpp"
#include "core/report.hpp"
#include "core/runreport.hpp"
#include "core/threadpool.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/mna.hpp"
#include "sim/mnasparse.hpp"
#include "sim/solver.hpp"
#include "sizing/eqmodel.hpp"
#include "sizing/relaxed.hpp"
#include "sizing/simmodel.hpp"

namespace {
using namespace amsyn;
using Clock = std::chrono::steady_clock;

template <typename Fn>
double microsecondsPerCall(Fn&& fn, std::size_t calls) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) fn();
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count() /
         static_cast<double>(calls);
}

void printClaim() {
  const auto& proc = circuit::defaultProcess();
  std::cout << "=== Claim (sec. 2.2): evaluation cost — equations << AWE << SPICE ===\n\n";

  sizing::ComposedOpampModel eqModel(sizing::OpampStructure::legacyTwoStage(), proc, 5e-12);
  const auto xEq = eqModel.initialPoint();

  auto relaxedTmpl = sizing::twoStageTemplate(proc, {});
  sizing::RelaxedDcModel relaxedModel(std::move(relaxedTmpl), proc);
  const auto xRelaxed = relaxedModel.initialPoint();

  auto simTmpl = sizing::twoStageTemplate(proc, {});
  sizing::SimulationModel simModel(std::move(simTmpl), proc);
  const std::vector<double> xSim = {60e-6, 20e-6, 20e-6, 150e-6, 60e-6, 3e-12, 20e-6};

  const double usEq = microsecondsPerCall([&] { eqModel.evaluate(xEq); }, 2000);
  const double usRelaxed =
      microsecondsPerCall([&] { relaxedModel.evaluate(xRelaxed); }, 50);
  const double usSim = microsecondsPerCall([&] { simModel.evaluate(xSim); }, 20);

  core::Table t({"evaluator", "us / evaluation", "relative", "10k-iteration run"});
  auto runCost = [](double us) {
    const double s = us * 1e4 / 1e6;
    return core::Table::num(s) + " s";
  };
  t.addRow({"design equations (OPASYN/OPTIMAN)", core::Table::num(usEq), "1x",
            runCost(usEq)});
  t.addRow({"relaxed-dc + AWE (ASTRX/OBLX)", core::Table::num(usRelaxed),
            core::Table::num(usRelaxed / usEq) + "x", runCost(usRelaxed)});
  t.addRow({"full simulation (FRIDGE)", core::Table::num(usSim),
            core::Table::num(usSim / usEq) + "x", runCost(usSim)});
  t.print(std::cout);

  std::cout << "\nreading: every step down the table buys generality (no hand-derived\n"
               "equations; exact device behavior) at the evaluation-cost ordering the\n"
               "paper describes; AWE's skip of the nonlinear DC solve is what made the\n"
               "ASTRX/OBLX middle road practical inside an annealer.\n\n";
}

void writeSparseClaim(core::RunReport& report);

/// Machine-readable record: microseconds per evaluation for each evaluator,
/// plus the wall time of a batched evaluation sweep (the shape every parallel
/// loop in amsyn reduces to) at one thread and at the configured pool width.
void writeJson() {
  const auto& proc = circuit::defaultProcess();

  sizing::ComposedOpampModel eqModel(sizing::OpampStructure::legacyTwoStage(), proc, 5e-12);
  const auto xEq = eqModel.initialPoint();
  auto relaxedTmpl = sizing::twoStageTemplate(proc, {});
  sizing::RelaxedDcModel relaxedModel(std::move(relaxedTmpl), proc);
  const auto xRelaxed = relaxedModel.initialPoint();
  auto simTmpl = sizing::twoStageTemplate(proc, {});
  sizing::SimulationModel simModel(std::move(simTmpl), proc);
  const std::vector<double> xSim = {60e-6, 20e-6, 20e-6, 150e-6, 60e-6, 3e-12, 20e-6};

  const double usEq = microsecondsPerCall([&] { eqModel.evaluate(xEq); }, 2000);
  const double usRelaxed =
      microsecondsPerCall([&] { relaxedModel.evaluate(xRelaxed); }, 50);
  const double usSim = microsecondsPerCall([&] { simModel.evaluate(xSim); }, 10);

  // Batched sweep: the relaxed-dc evaluator is stateless, so a fixed batch
  // can be scored concurrently — identical work at any thread count.
  constexpr std::size_t kBatch = 64;
  auto batchSeconds = [&](std::size_t threads) {
    core::ScopedThreadPool scoped(threads);
    const auto t0 = Clock::now();
    core::parallelFor(kBatch, [&](std::size_t) { relaxedModel.evaluate(xRelaxed); });
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const std::size_t threads =
      std::max<std::size_t>(2, core::ThreadPool::configuredThreads());
  const double s1 = batchSeconds(1);
  const double sn = batchSeconds(threads);

  // Shared run-report schema (core/runreport.hpp): historical keys plus the
  // registry snapshot — LU factor/reuse split, Newton iterations, and the
  // failure histogram accumulated by the evaluations above.
  core::RunReport report;
  report.name = "evaluation_speed";
  report.addInfo("benchmark", "evaluation_speed");
  report.addValue("us_per_eval_equations", usEq)
      .addValue("us_per_eval_relaxed_awe", usRelaxed)
      .addValue("us_per_eval_full_simulation", usSim)
      .addValue("batch_size", static_cast<double>(kBatch))
      .addValue("batch_seconds_1_thread", s1)
      .addValue("threads", static_cast<double>(threads))
      .addValue("batch_seconds_n_threads", sn)
      .addValue("batch_speedup", s1 / std::max(sn, 1e-12));
  writeSparseClaim(report);
  report.write("BENCH_eval_speed.json");
  std::cout << "wrote BENCH_eval_speed.json: batch of " << kBatch << " relaxed-dc evals "
            << s1 << " s at 1 thread, " << sn << " s at " << threads << " threads\n\n";
}

/// RC ladder driven by a unit AC source, a diode every eighth tap so the DC
/// solve stays a real Newton loop.  MNA size ~= segments + 2: the circuit
/// family every extracted interconnect evaluation looks like, at sizes the
/// dense kernel's O(n^3) cannot keep up with.
circuit::Netlist ladderNetlist(std::size_t segments) {
  circuit::Netlist net;
  net.addVSource("V1", "t0", "0", 1.0, 1.0);
  for (std::size_t i = 0; i < segments; ++i) {
    const std::string a = "t" + std::to_string(i);
    const std::string b = "t" + std::to_string(i + 1);
    net.addResistor("R" + std::to_string(i), a, b, 100.0 + static_cast<double>(i % 7));
    net.addCapacitor("C" + std::to_string(i), b, "0", 1e-12);
    if (i % 8 == 3) net.addDiode("D" + std::to_string(i), b, "0", 1e-15);
  }
  return net;
}

/// One "performance evaluation" of a netlist: DC operating point plus a
/// 19-point AC sweep — the inner loop of every simulation-based sizing run.
double evalSeconds(const sim::Mna& mna, const std::string& outNode, std::size_t calls,
                   sim::SolverMode mode) {
  core::ContextConfig cfg = core::ContextConfig::fromEnv();
  cfg.solver = mode;
  core::ExecutionContext ctx(cfg);
  core::ContextScope scope(ctx);
  const auto freqs = sim::logspace(1e3, 1e9, 3);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < calls; ++i) {
    const auto op = sim::dcOperatingPoint(mna);
    const auto sweep = sim::acAnalysis(mna, op, outNode, freqs);
    benchmark::DoNotOptimize(sweep.points.data());
  }
  return std::chrono::duration<double>(Clock::now() - t0).count() /
         static_cast<double>(calls);
}

/// Dense-vs-sparse table + BENCH_eval_speed.json keys for the sparse-MNA
/// fast path: per-size timings, speedups, factor fill, and the symbolic
/// cache traffic of the sparse legs.
void writeSparseClaim(core::RunReport& report) {
  const auto& proc = circuit::defaultProcess();
  std::cout << "=== Sparse-MNA fast path: forced dense vs forced sparse ===\n\n";

  struct SizeCase {
    std::string label;
    circuit::Netlist net;
    std::string outNode;
    std::size_t calls;
  };
  std::vector<SizeCase> cases;
  cases.push_back({"opamp_tb", sizing::buildTwoStageOpamp({}, proc), "out", 40});
  for (const std::size_t segs : {std::size_t{16}, std::size_t{64}, std::size_t{256}})
    cases.push_back({"ladder_" + std::to_string(segs), ladderNetlist(segs),
                     "t" + std::to_string(segs), segs >= 256 ? 3u : (segs >= 64 ? 10u : 30u)});

  const auto& reg = core::metrics::Registry::instance();
  const auto& sc = sim::sparseCounters();

  core::Table t({"netlist", "n", "dense s/eval", "sparse s/eval", "speedup", "fill"});
  double logSum = 0.0;
  double largestSpeedup = 0.0;
  std::uint64_t hits0 = reg.total(sc.symbolicHits), analyses0 = reg.total(sc.analyses),
                refactors0 = reg.total(sc.refactors);
  for (const auto& sc_ : cases) {
    const sim::Mna mna(sc_.net, proc);

    const double sDense = evalSeconds(mna, sc_.outNode, sc_.calls, sim::SolverMode::Dense);
    const double sSparse =
        evalSeconds(mna, sc_.outNode, sc_.calls, sim::SolverMode::Sparse);

    // Factor fill of the DC Jacobian pattern under the dense-compatible
    // (natural) ordering: nnz(L+U+D) / n^2.
    sim::SparseMna sp(mna);
    num::VecD x0(mna.size(), proc.vdd / 2);
    sp.assemble(x0, {}, true, nullptr);
    num::SparseLuD lu;
    const double fill =
        lu.factor(sp.csc()) == num::SparseLuStatus::Ok ? lu.fillRatio() : 1.0;

    const double speedup = sDense / std::max(sSparse, 1e-12);
    logSum += std::log(speedup);
    largestSpeedup = std::max(largestSpeedup, speedup);
    t.addRow({sc_.label, core::Table::num(static_cast<double>(mna.size())),
              core::Table::num(sDense), core::Table::num(sSparse),
              core::Table::num(speedup) + "x", core::Table::num(fill)});
    report.addValue("dense_s_per_eval_" + sc_.label, sDense)
        .addValue("sparse_s_per_eval_" + sc_.label, sSparse)
        .addValue("sparse_speedup_" + sc_.label, speedup)
        .addValue("sparse_fill_ratio_" + sc_.label, fill)
        .addValue("mna_size_" + sc_.label, static_cast<double>(mna.size()));
  }
  t.print(std::cout);

  const double geomean = std::exp(logSum / static_cast<double>(cases.size()));
  const std::uint64_t hits = reg.total(sc.symbolicHits) - hits0;
  const std::uint64_t analyses = reg.total(sc.analyses) - analyses0;
  const std::uint64_t refactors = reg.total(sc.refactors) - refactors0;
  report.addValue("sparse_speedup_geomean", geomean)
      .addValue("sparse_speedup_largest", largestSpeedup)
      .addValue("sparse_symbolic_hits", static_cast<double>(hits))
      .addValue("sparse_analyses", static_cast<double>(analyses))
      .addValue("sparse_refactors", static_cast<double>(refactors));
  std::cout << "\ngeomean speedup " << core::Table::num(geomean) << "x; largest "
            << core::Table::num(largestSpeedup)
            << "x.  symbolic cache over the sparse legs: " << hits << " hits, "
            << analyses << " analyses, " << refactors
            << " refactors — every Newton iteration and AC point past the first "
               "is a numeric replay.\n\n";
}

void BM_EquationEval(benchmark::State& state) {
  const auto& proc = circuit::defaultProcess();
  sizing::ComposedOpampModel model(sizing::OpampStructure::legacyTwoStage(), proc, 5e-12);
  const auto x = model.initialPoint();
  for (auto _ : state) {
    const auto p = model.evaluate(x);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_EquationEval);

void BM_RelaxedDcAweEval(benchmark::State& state) {
  const auto& proc = circuit::defaultProcess();
  auto tmpl = sizing::twoStageTemplate(proc, {});
  sizing::RelaxedDcModel model(std::move(tmpl), proc);
  const auto x = model.initialPoint();
  for (auto _ : state) {
    const auto p = model.evaluate(x);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_RelaxedDcAweEval)->Unit(benchmark::kMicrosecond);

void BM_FullSimulationEval(benchmark::State& state) {
  const auto& proc = circuit::defaultProcess();
  auto tmpl = sizing::twoStageTemplate(proc, {});
  sizing::SimulationModel model(std::move(tmpl), proc);
  const std::vector<double> x = {60e-6, 20e-6, 20e-6, 150e-6, 60e-6, 3e-12, 20e-6};
  for (auto _ : state) {
    const auto p = model.evaluate(x);
    benchmark::DoNotOptimize(p);
  }
}
BENCHMARK(BM_FullSimulationEval)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  printClaim();
  writeJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
