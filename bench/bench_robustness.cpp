// Job-deadline overhead benchmark (BENCH_robustness.json).
//
// The job deadline (core/resilience.hpp) must be effectively free when
// nothing goes wrong.  The flow engine checks it at every stage boundary
// and threads it into VerifyStage's core::measureAmplifier calls, where an
// armed deadline adds a strided monotonic-clock read to Deadline::consume()
// (kDeadlineCheckStride = 64 charges per read).  The claim: deadline-check
// overhead < 1%.  A wall-clock ratio of two timed runs cannot resolve 1% on
// a shared host, so the claim is checked against a bound built from
// measured parts: the charges one measurement makes (from the
// sim.newton_iterations and sim.ac_points counters, one charge each), times
// the armed-minus-unarmed cost of one charge, over the measured seconds per
// measurement.  The timed ratio of measureAmplifier calls with a null and a
// far-future deadline is reported next to it.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <limits>
#include <utility>

#include "circuit/process.hpp"
#include "core/flow.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "core/resilience.hpp"
#include "core/runreport.hpp"
#include "sim/fault.hpp"
#include "sizing/simmodel.hpp"

namespace {
using namespace amsyn;

const circuit::Process& nominalProc() { return circuit::defaultProcess(); }

/// The two-stage testbench at the geometric middle of its design box.
const circuit::Netlist& benchNetlist() {
  static const circuit::Netlist net = [] {
    const auto tmpl = sizing::twoStageTemplate(nominalProc(), {5e-12, 2.2, true});
    std::vector<double> x;
    for (const auto& v : tmpl.variables)
      x.push_back(v.logScale && v.lo > 0 ? std::sqrt(v.lo * v.hi) : 0.5 * (v.lo + v.hi));
    return tmpl.build(x);
  }();
  return net;
}

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds for `n` verify measurements, with a far-future deadline armed
/// or with none (the null pointer every caller outside a flow passes).
double timedMeasurements(std::size_t n, bool armDeadline) {
  core::Deadline farFuture(3'600'000);  // +1h
  core::Deadline* deadline = armDeadline ? &farFuture : nullptr;
  const double t0 = nowSeconds();
  for (std::size_t i = 0; i < n; ++i) {
    auto perf = core::measureAmplifier(benchNetlist(), nominalProc(), deadline);
    benchmark::DoNotOptimize(perf);
  }
  return nowSeconds() - t0;
}

/// Deadline charges per verify measurement: one per Newton iteration and
/// one per AC frequency point, read off the counters the simulator keeps.
double chargesPerMeasurement(std::size_t n) {
  const auto& reg = core::metrics::registry();
  const auto charges = [&] {
    return reg.total("sim.newton_iterations") + reg.total("sim.ac_points");
  };
  const std::uint64_t before = charges();
  for (std::size_t i = 0; i < n; ++i) {
    auto perf = core::measureAmplifier(benchNetlist(), nominalProc());
    benchmark::DoNotOptimize(perf);
  }
  return static_cast<double>(charges() - before) / static_cast<double>(n);
}

/// Seconds per charge through the Newton loop's hook, unarmed and armed:
/// min of five interleaved loops of 10^6 charges each.
std::pair<double, double> secondsPerCharge() {
  constexpr int kCharges = 1'000'000;
  core::Deadline unarmed;
  core::Deadline farFuture(3'600'000);  // +1h
  const auto loop = [](core::Deadline& deadline) {
    const double t0 = nowSeconds();
    for (int i = 0; i < kCharges; ++i) benchmark::DoNotOptimize(sim::consumeWork(&deadline));
    return (nowSeconds() - t0) / kCharges;
  };
  double plain = std::numeric_limits<double>::infinity(), armed = plain;
  for (int r = 0; r < 5; ++r) {
    plain = std::min(plain, loop(unarmed));
    armed = std::min(armed, loop(farFuture));
  }
  return {plain, armed};
}

void writeJson() {
  std::cout << "=== Job-deadline overhead (BENCH_robustness.json) ===\n\n";

  // Interleaved min-of-N: per-arm wall clock on a shared box is noisy at
  // this scale, and min-of-repeats is the standard noise-robust estimator
  // of the true cost.
  constexpr std::size_t kEvals = 2000;
  constexpr int kRepeats = 5;
  (void)timedMeasurements(kEvals / 8, false);  // warm-up (page cache)
  double plain = timedMeasurements(kEvals, false);
  double armed = timedMeasurements(kEvals, true);
  for (int r = 1; r < kRepeats; ++r) {
    plain = std::min(plain, timedMeasurements(kEvals, false));
    armed = std::min(armed, timedMeasurements(kEvals, true));
  }
  const double overhead = armed / std::max(plain, 1e-12) - 1.0;

  const double charges = chargesPerMeasurement(kEvals / 8);
  const auto [unarmedCharge, armedCharge] = secondsPerCharge();
  const double perCharge = std::max(0.0, armedCharge - unarmedCharge);
  const double bound = charges * perCharge / std::max(plain / kEvals, 1e-12);

  core::Table t({"measureAmplifier calls (x" + std::to_string(kEvals) + ")",
                 "seconds", "notes"});
  t.addRow({"no deadline", core::Table::num(plain), "null deadline pointer"});
  t.addRow({"deadline armed", core::Table::num(armed),
            "strided clock read every 64 charges"});
  t.print(std::cout);
  std::cout << "charges per measurement: " << core::Table::num(charges)
            << "; one charge: " << core::Table::num(unarmedCharge * 1e9) << " ns unarmed, "
            << core::Table::num(armedCharge * 1e9) << " ns armed\n";
  std::cout << "deadline-check overhead bound: " << core::Table::num(bound * 100)
            << "% (claim: < 1%; " << (bound < 0.01 ? "holds" : "FAILS") << ")\n";
  std::cout << "timed ratio (noise-limited): " << core::Table::num(overhead * 100) << "%\n\n";

  core::RunReport report;
  report.name = "robustness";
  report.addInfo("benchmark", "robustness");
  report.addValue("eval_seconds_no_deadline", plain)
      .addValue("eval_seconds_deadline_armed", armed)
      .addValue("deadline_overhead_fraction", overhead)
      .addValue("deadline_overhead_bound_fraction", bound);
  report.write("BENCH_robustness.json");
  std::cout << "wrote BENCH_robustness.json: " << core::Table::num(bound * 100)
            << "% deadline overhead bound\n\n";
}

}  // namespace

int main(int argc, char** argv) {
  writeJson();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
