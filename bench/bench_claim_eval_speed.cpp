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
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>

#include "core/parallel.hpp"
#include "core/report.hpp"
#include "core/runreport.hpp"
#include "core/threadpool.hpp"
#include "numeric/rng.hpp"
#include "sizing/cost.hpp"
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

/// A fixed seeded set of design points spread over the model's box.  The
/// equation row is timed over these rather than at one point: repeating
/// one point lets the branch predictor learn its unity-gain bisection's
/// decisions, so one point reads well below the cost of a realistic mix.
constexpr std::size_t kEqPoints = 4096;
std::vector<std::vector<double>> seededPoints(const sizing::PerformanceModel& model) {
  num::Rng rng(0x22e9a1);
  std::vector<std::vector<double>> xs(kEqPoints);
  for (auto& x : xs)
    for (const auto& v : model.variables()) {
      const double u = rng.uniform();
      x.push_back(v.logScale && v.lo > 0 ? v.lo * std::pow(v.hi / v.lo, u)
                                         : v.lo + u * (v.hi - v.lo));
    }
  return xs;
}

/// Microseconds per evaluate over two passes of the seeded points.
double equationMicroseconds(const sizing::ComposedOpampModel& model) {
  const auto xs = seededPoints(model);
  std::size_t next = 0;
  return microsecondsPerCall([&] { model.evaluate(xs[next++ % xs.size()]); }, 2 * xs.size());
}

void printClaim() {
  const auto& proc = circuit::defaultProcess();
  std::cout << "=== Claim (sec. 2.2): evaluation cost — equations << AWE << SPICE ===\n\n";

  sizing::ComposedOpampModel eqModel(sizing::OpampStructure::legacyTwoStage(), proc, 5e-12);

  auto relaxedTmpl = sizing::twoStageTemplate(proc, {});
  sizing::RelaxedDcModel relaxedModel(std::move(relaxedTmpl), proc);
  const auto xRelaxed = relaxedModel.initialPoint();

  auto simTmpl = sizing::twoStageTemplate(proc, {});
  sizing::SimulationModel simModel(std::move(simTmpl), proc);
  const std::vector<double> xSim = {60e-6, 20e-6, 20e-6, 150e-6, 60e-6, 3e-12, 20e-6};

  const double usEq = equationMicroseconds(eqModel);
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

/// Machine-readable record: microseconds per evaluation for each evaluator,
/// plus the wall time of a batched evaluation sweep (the shape every parallel
/// loop in amsyn reduces to) at one thread and at the configured pool width.
void writeJson() {
  const auto& proc = circuit::defaultProcess();

  sizing::ComposedOpampModel eqModel(sizing::OpampStructure::legacyTwoStage(), proc, 5e-12);
  auto relaxedTmpl = sizing::twoStageTemplate(proc, {});
  sizing::RelaxedDcModel relaxedModel(std::move(relaxedTmpl), proc);
  const auto xRelaxed = relaxedModel.initialPoint();
  auto simTmpl = sizing::twoStageTemplate(proc, {});
  sizing::SimulationModel simModel(std::move(simTmpl), proc);
  const std::vector<double> xSim = {60e-6, 20e-6, 20e-6, 150e-6, 60e-6, 3e-12, 20e-6};

  const double usEq = equationMicroseconds(eqModel);
  const double usRelaxed =
      microsecondsPerCall([&] { relaxedModel.evaluate(xRelaxed); }, 50);
  const double usSim = microsecondsPerCall([&] { simModel.evaluate(xSim); }, 10);

  // Batched sweep: the relaxed-dc evaluator is stateless, so a fixed batch
  // can be scored concurrently — identical work at any thread count.  The
  // calling thread scores indices too: `workers` workers make workers + 1
  // threads, and 0 workers is the serial arm.
  constexpr std::size_t kBatch = 64;
  auto batchSeconds = [&](std::size_t workers) {
    core::ScopedThreadPool scoped(workers);
    const auto t0 = Clock::now();
    core::parallelFor(kBatch, [&](std::size_t) { relaxedModel.evaluate(xRelaxed); });
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  const std::size_t workers =
      std::max<std::size_t>(2, core::ThreadPool::configuredThreads());
  const std::size_t threads = workers + 1;
  const double s1 = batchSeconds(0);
  const double sn = batchSeconds(workers);

  // Shared run-report schema (core/runreport.hpp): historical keys plus the
  // registry snapshot — LU factor/reuse split, Newton iterations, and the
  // failure-reason counters accumulated by the evaluations above.
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
  report.write("BENCH_eval_speed.json");
  std::cout << "wrote BENCH_eval_speed.json: batch of " << kBatch << " relaxed-dc evals "
            << s1 << " s at 1 thread (0 workers + caller), " << sn << " s at " << threads
            << " threads (" << workers << " workers + caller)\n\n";
}

void BM_EquationEval(benchmark::State& state) {
  const auto& proc = circuit::defaultProcess();
  sizing::ComposedOpampModel model(sizing::OpampStructure::legacyTwoStage(), proc, 5e-12);
  const auto xs = seededPoints(model);
  std::size_t next = 0;
  for (auto _ : state) {
    const auto p = model.evaluate(xs[next]);
    benchmark::DoNotOptimize(p);
    next = next + 1 == xs.size() ? 0 : next + 1;
  }
}
BENCHMARK(BM_EquationEval);

/// The compiled cost over the same model and points: what the annealer and
/// Nelder-Mead pay per evaluation, spec scoring included.
void BM_CostEval(benchmark::State& state) {
  const auto& proc = circuit::defaultProcess();
  sizing::ComposedOpampModel model(sizing::OpampStructure::legacyTwoStage(), proc, 5e-12);
  sizing::SpecSet specs;
  specs.atLeast("gain_db", 70.0)
      .atLeast("ugf", 5e6)
      .atLeast("pm", 60.0)
      .atMost("power", 2e-3)
      .minimize("area", 1.0, 1e-9);
  const sizing::CostFunction cost(model, specs);
  const auto xs = seededPoints(model);
  std::size_t next = 0;
  for (auto _ : state) {
    const double c = cost(xs[next]);
    benchmark::DoNotOptimize(c);
    next = next + 1 == xs.size() ? 0 : next + 1;
  }
}
BENCHMARK(BM_CostEval);

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
