// Reproduction of the section-2.2 manufacturability claim: extending
// ASTRX/OBLX with worst-case corner search "has been successful in several
// test cases but does increase the CPU time required (e.g., by roughly
// 4X-10X)" (the paper's ref [31]).
//
// We run nominal-only synthesis and the cutting-plane corner-aware loop on
// the same spec set and compare model-evaluation counts from one run and
// the wall-time ratio over repeated runs, then
// confirm the nominal design actually fails at its worst corner while the
// robust one survives.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <iostream>
#include <mutex>
#include <vector>

#include "core/context.hpp"
#include "core/parallel.hpp"
#include "core/report.hpp"
#include "core/runreport.hpp"
#include "core/threadpool.hpp"
#include "manufacture/corners.hpp"
#include "manufacture/yield.hpp"
#include "numeric/stats.hpp"
#include "sizing/eqmodel.hpp"

namespace {
using namespace amsyn;

const circuit::Process& nominalProc() { return circuit::defaultProcess(); }

manufacture::ModelFactory factory() {
  return [](const circuit::Process& p) {
    return sizing::makeTwoStageCornerModel(p, nominalProc(), 5e-12);
  };
}

sizing::SpecSet robustSpecs() {
  sizing::SpecSet s;
  s.atLeast("gain_db", 66.0)
      .atLeast("ugf", 3e6)
      .atLeast("pm", 50.0)
      .atMost("power", 8e-3)
      .minimize("power", 0.3, 1e-3);
  return s;
}

/// One corner-aware synthesis in its own execution context, so runs at
/// different pool widths are measured alike.
struct CountedRun {
  double seconds = 0.0;
  manufacture::RobustResult res;
};

/// A one-worker pool whose worker is parked for the scope.  parallelFor runs
/// indices on the calling thread *and* the pool's workers, so a plain
/// width-1 pool still evaluates the corner hunts' vertices on two threads
/// while the nominal anneal runs on one.  With the worker parked the caller
/// runs every index (and drains the queued helper tasks itself), so the
/// phase wall times compare serial CPU.
class SerialPool {
 public:
  SerialPool() {
    scoped_.pool().submit([this] {
      std::unique_lock<std::mutex> lk(mu_);
      parked_ = true;
      cv_.notify_all();
      cv_.wait(lk, [this] { return released_; });
    });
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [this] { return parked_; });
  }
  ~SerialPool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }
  SerialPool(const SerialPool&) = delete;
  SerialPool& operator=(const SerialPool&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
  core::ScopedThreadPool scoped_{1};  // last: joined before mu_/cv_ go away
};

CountedRun countedRun() {
  core::ExecutionContext ctx(core::ContextConfig::fromEnv());
  core::ContextScope scope(ctx);
  manufacture::RobustOptions opts;
  opts.synthesis.seed = 19;
  CountedRun r;
  const auto t0 = std::chrono::steady_clock::now();
  r.res = manufacture::robustSynthesize(factory(), nominalProc(), manufacture::VariationSpace{},
                                        robustSpecs(), opts);
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return r;
}

CountedRun serialRun() {
  SerialPool pool;
  return countedRun();
}

CountedRun parallelRun(std::size_t threads) {
  core::ScopedThreadPool pool(threads);
  return countedRun();
}

double evaluationRatio(const manufacture::RobustResult& res) {
  return res.robustEvaluations / std::max(res.nominalEvaluations, 1.0);
}

double timeRatio(const manufacture::RobustResult& res) {
  return res.cornerSearchSeconds / std::max(res.nominalSeconds, 1e-12);
}

/// The nominal phase lasts about 10 ms, so one run's corner-to-nominal time
/// ratio moves by 2x between runs.  The claim reports the median over this
/// many serial runs, each in a fresh context.
constexpr int kTimingRuns = 5;

struct TimeRatios {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

TimeRatios summarize(const std::vector<double>& ratios) {
  const auto [lo, hi] = std::minmax_element(ratios.begin(), ratios.end());
  return {num::percentile(ratios, 50.0), *lo, *hi};
}

/// The claim table, from the serial runs: the paper states its premium in
/// CPU time, which a serial run's wall time tracks.
void printClaim(const CountedRun& run, const TimeRatios& ratios) {
  std::cout << "=== Claim (sec. 2.2): corner-aware synthesis costs ~4x-10x CPU ===\n\n";
  const auto specs = robustSpecs();
  const manufacture::VariationSpace space;
  const auto& res = run.res;

  core::Table t({"run", "feasible", "power (mW)", "model evals"});
  t.addRow({"nominal only", res.nominal.feasible ? "yes" : "NO",
            core::Table::num(res.nominal.performance.at("power") * 1e3),
            core::Table::num(res.nominalEvaluations)});
  t.addRow({"corner-aware (cutting-plane)", res.robustFeasibleAtCorners ? "yes" : "NO",
            core::Table::num(res.robust.performance.at("power") * 1e3),
            core::Table::num(res.robustEvaluations)});
  t.print(std::cout);

  std::cout << "\nCPU (evaluation) ratio robust/nominal: "
            << core::Table::num(evaluationRatio(res)) << "x   (paper: roughly 4x-10x)\n";
  std::cout << "wall-time ratio corner search/nominal sizing (serial): "
            << core::Table::num(ratios.median) << "x median ("
            << core::Table::num(ratios.min) << "-" << core::Table::num(ratios.max)
            << "x over " << kTimingRuns << " runs)\n";
  std::cout << "active corners accumulated: " << res.activeCorners << " over "
            << res.rounds << " cutting-plane rounds\n\n";

  // Does the nominal design actually need the protection?  Hunt its worst
  // corner for each constraint.
  std::cout << "worst-corner audit of the NOMINAL design:\n";
  core::Table audit({"spec", "nominal value", "worst-corner value", "margin"});
  std::vector<sizing::Spec> constraints;
  for (const auto& spec : specs.specs())
    if (!spec.isObjective()) constraints.push_back(spec);
  const auto worst =
      manufacture::worstCaseCorners(factory(), nominalProc(), space, res.nominal.x, constraints);
  const auto nom = factory()(nominalProc())->evaluate(res.nominal.x);
  for (std::size_t i = 0; i < constraints.size(); ++i) {
    const auto& wc = worst[i];
    audit.addRow({constraints[i].describe(), core::Table::num(nom.at(constraints[i].performance)),
                  core::Table::num(wc.value),
                  core::Table::num(wc.margin) + (wc.margin < 0 ? "  <-- fails" : "")});
  }
  audit.print(std::cout);

  // Yield comparison under global variation.
  manufacture::YieldOptions yopts;
  yopts.samples = 300;
  const auto yNom =
      manufacture::yieldMonteCarlo(factory(), nominalProc(), res.nominal.x, specs, yopts);
  const auto yRob =
      manufacture::yieldMonteCarlo(factory(), nominalProc(), res.robust.x, specs, yopts);
  std::cout << "\nMonte-Carlo yield (300 samples, global corners): nominal "
            << core::Table::num(yNom.yield.estimate * 100) << "%, robust "
            << core::Table::num(yRob.yield.estimate * 100) << "%\n\n";
}

/// Machine-readable record: the premium (evaluation counts from the first
/// serial run, the phase wall-time ratio's median and range over all of
/// them) plus a scaling record — the
/// identical synthesis at the configured pool width.  The parallel loops
/// are deterministic by construction, so besides the timings we record
/// whether the two widths really did produce the same design.
void writeJson(const CountedRun& serial, const TimeRatios& ratios, const CountedRun& parallel,
               std::size_t threads) {
  const bool identical = serial.res.robust.x == parallel.res.robust.x &&
                         serial.res.robust.cost == parallel.res.robust.cost &&
                         serial.res.activeCorners == parallel.res.activeCorners;

  // Shared run-report schema (core/runreport.hpp): the caller-supplied
  // values keep their historical keys, and the registry/span sections ride
  // along — per-phase wall times, LU factor/reuse split, failure histogram.
  core::RunReport report;
  report.name = "corner_aware_synthesis";
  report.addInfo("benchmark", "corner_aware_synthesis");
  report.addValue("seconds_1_thread", serial.seconds)
      .addValue("threads", static_cast<double>(threads))
      .addValue("seconds_n_threads", parallel.seconds)
      .addValue("speedup", serial.seconds / std::max(parallel.seconds, 1e-12))
      .addValue("results_bit_identical", identical ? 1.0 : 0.0)
      .addValue("robust_evaluations", serial.res.robustEvaluations)
      .addValue("nominal_evaluations", serial.res.nominalEvaluations)
      .addValue("evaluation_ratio", evaluationRatio(serial.res))
      .addValue("active_corners", static_cast<double>(serial.res.activeCorners))
      // The section-2.2 claim, measured directly: corner-search phase wall
      // time over nominal-sizing phase wall time (paper: roughly 4x-10x).
      .addValue("nominal_sizing_seconds", serial.res.nominalSeconds)
      .addValue("corner_search_seconds", serial.res.cornerSearchSeconds)
      .addValue("corner_to_nominal_time_ratio", ratios.median)
      .addValue("corner_to_nominal_time_ratio_min", ratios.min)
      .addValue("corner_to_nominal_time_ratio_max", ratios.max);
  report.write("BENCH_corners.json");
  std::cout << "wrote BENCH_corners.json: " << serial.seconds << " s at 1 thread, "
            << parallel.seconds << " s at " << threads
            << " threads, identical=" << (identical ? "yes" : "NO") << "\n\n";
}

void BM_NominalSynthesis(benchmark::State& state) {
  const auto specs = robustSpecs();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto model = factory()(nominalProc());
    sizing::SynthesisOptions opts;
    opts.seed = seed++;
    const auto res = sizing::synthesize(*model, specs, opts);
    benchmark::DoNotOptimize(res.cost);
  }
}
BENCHMARK(BM_NominalSynthesis)->Unit(benchmark::kMillisecond);

void BM_RobustSynthesis(benchmark::State& state) {
  const auto specs = robustSpecs();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    manufacture::RobustOptions opts;
    opts.synthesis.seed = seed++;
    const auto res = manufacture::robustSynthesize(factory(), nominalProc(),
                                                   manufacture::VariationSpace{}, specs,
                                                   opts);
    benchmark::DoNotOptimize(res.robustEvaluations);
  }
}
BENCHMARK(BM_RobustSynthesis)->Unit(benchmark::kMillisecond)->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  const std::size_t threads =
      std::max<std::size_t>(2, core::ThreadPool::configuredThreads());
  const CountedRun serial = serialRun();
  std::vector<double> ratios{timeRatio(serial.res)};
  for (int run = 1; run < kTimingRuns; ++run) {
    const CountedRun again = serialRun();
    if (again.res.robust.x != serial.res.robust.x ||
        again.res.robust.cost != serial.res.robust.cost) {
      std::cerr << "bench_claim_corners: serial run " << run + 1
                << " produced a different design than run 1\n";
      return 1;
    }
    ratios.push_back(timeRatio(again.res));
  }
  const TimeRatios summary = summarize(ratios);
  const CountedRun parallel = parallelRun(threads);
  printClaim(serial, summary);
  writeJson(serial, summary, parallel, threads);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
