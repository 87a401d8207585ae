// Job-deadline overhead benchmark (BENCH_robustness.json).
//
// The job deadline (core/resilience.hpp, checked by the flow engine at every
// stage boundary) must be effectively free when nothing goes wrong.  The
// claim: deadline-check overhead < 1%.  Arming a wall-clock deadline adds a
// strided monotonic-clock read to EvalBudget::consume()
// (kDeadlineCheckStride = 64 charges per read).  We run the same fixed set
// of full simulator evaluations with no deadline and with a far-future
// deadline and report the ratio.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>

#include "circuit/process.hpp"
#include "core/evalstatus.hpp"
#include "core/parallel.hpp"
#include "core/report.hpp"
#include "core/runreport.hpp"
#include "sim/fault.hpp"
#include "sizing/perfmodel.hpp"
#include "sizing/simmodel.hpp"

namespace {
using namespace amsyn;

const circuit::Process& nominalProc() { return circuit::defaultProcess(); }

std::vector<double> middlePoint(const sizing::CircuitTemplate& tmpl) {
  std::vector<double> x;
  for (const auto& v : tmpl.variables)
    x.push_back(v.logScale && v.lo > 0 ? std::sqrt(v.lo * v.hi) : 0.5 * (v.lo + v.hi));
  return x;
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds for `evals` full simulator evaluations, deadline armed or not.
double timedEvaluations(std::size_t evals, bool armDeadline) {
  sizing::SimModelOptions opts;
  opts.measureNoise = false;
  if (armDeadline)
    opts.deadlineNs = core::EvalBudget::nowNs() + 3'600'000'000'000LL;  // +1h
  const auto tmpl = sizing::twoStageTemplate(nominalProc(), {5e-12, 2.2, true});
  sizing::SimulationModel model(tmpl, nominalProc(), opts);
  const auto x = middlePoint(tmpl);
  const double t0 = nowSeconds();
  for (std::size_t i = 0; i < evals; ++i) {
    auto perf = sizing::safeEvaluate(model, x);
    benchmark::DoNotOptimize(perf);
  }
  return nowSeconds() - t0;
}

void writeJson() {
  core::ScopedThreadPool scoped(
      std::max<std::size_t>(2, core::ThreadPool::configuredThreads()));

  std::cout << "=== Job-deadline overhead (BENCH_robustness.json) ===\n\n";

  // Interleaved min-of-N: per-arm wall clock on a shared box is noisy at
  // this scale, and min-of-repeats is the standard noise-robust estimator
  // of the true cost.  BM_ConsumeWork* below pins the per-charge number.
  constexpr std::size_t kEvals = 400;
  constexpr int kRepeats = 5;
  (void)timedEvaluations(kEvals / 8, false);  // warm-up (page cache, pool)
  double plain = timedEvaluations(kEvals, false);
  double armed = timedEvaluations(kEvals, true);
  for (int r = 1; r < kRepeats; ++r) {
    plain = std::min(plain, timedEvaluations(kEvals, false));
    armed = std::min(armed, timedEvaluations(kEvals, true));
  }
  const double overhead = armed / std::max(plain, 1e-12) - 1.0;

  core::Table t({"simulator evaluations (x" + std::to_string(kEvals) + ")",
                 "seconds", "notes"});
  t.addRow({"no deadline", core::Table::num(plain), "plain work-unit budget"});
  t.addRow({"deadline armed", core::Table::num(armed),
            "strided clock read every 64 charges"});
  t.print(std::cout);
  std::cout << "deadline-check overhead: " << core::Table::num(overhead * 100)
            << "% (claim: < 1%)\n\n";

  core::RunReport report;
  report.name = "robustness";
  report.addInfo("benchmark", "robustness");
  report.addValue("eval_seconds_no_deadline", plain)
      .addValue("eval_seconds_deadline_armed", armed)
      .addValue("deadline_overhead_fraction", overhead);
  report.write("BENCH_robustness.json");
  std::cout << "wrote BENCH_robustness.json: " << core::Table::num(overhead * 100)
            << "% deadline overhead\n\n";
}

/// Microbenchmark: one budget charge through the consumeWork hook, the
/// innermost cost the deadline machinery can add to a Newton iteration.
void BM_ConsumeWorkPlain(benchmark::State& state) {
  core::EvalBudget budget;
  for (auto _ : state) benchmark::DoNotOptimize(sim::consumeWork(&budget));
}
BENCHMARK(BM_ConsumeWorkPlain);

void BM_ConsumeWorkDeadlineArmed(benchmark::State& state) {
  core::EvalBudget budget;
  budget.setDeadlineNs(core::EvalBudget::nowNs() + 3'600'000'000'000LL);
  for (auto _ : state) benchmark::DoNotOptimize(sim::consumeWork(&budget));
}
BENCHMARK(BM_ConsumeWorkDeadlineArmed);

}  // namespace

int main(int argc, char** argv) {
  writeJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
