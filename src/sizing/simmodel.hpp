// Simulation-based performance evaluation (FRIDGE [22] style): every
// optimizer iteration builds the netlist from the design vector and runs the
// simulator — DC operating point, AC sweep and noise.  Slew and swing are
// read off the operating point (tail current over Cc, output-stage
// overdrives), the same closed forms an equation model uses, so no
// large-signal analysis runs.  Orders of magnitude slower per iteration
// than the equation models (bench/bench_claim_eval_speed quantifies this),
// but introduces no modeling error and makes new circuit schematics cheap to
// bring up: exactly the trade the paper describes in section 2.2.
#pragma once

#include <atomic>
#include <functional>

#include "circuit/netlist.hpp"
#include "circuit/process.hpp"
#include "sizing/opamp.hpp"
#include "sizing/perfmodel.hpp"

namespace amsyn::sizing {

struct SimModelOptions {
  double fStart = 1.0;
  double fStop = 1e9;
  std::size_t pointsPerDecade = 6;
  bool measureNoise = true;
  double noiseSpotFrequency = 1e4;  ///< Hz for the "noise_nv" spot value
  /// Declare the design infeasible when the DC output sits at a supply rail
  /// (the latched solution of a feedback-biased open-loop bench).
  bool outputMustBeInterior = true;
  double interiorMargin = 0.15;  ///< volts from either rail
  /// Per-evaluation work budget in Newton-iteration units (0 = unlimited).
  /// An evaluation that exhausts it returns whatever it measured so far,
  /// marked infeasible with budget_exhausted — deterministically, because
  /// work units are counted, not wall clock.
  std::uint64_t workBudget = 0;
  /// Optional cooperative cancel flag shared by every evaluation (e.g. a
  /// whole-run abort).  Checked at the same points as the budget.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional absolute wall-clock deadline (monotonic ns per
  /// core::EvalBudget::nowNs(); 0 = none) armed on every evaluation's
  /// budget.  An evaluation past the deadline stops at the next strided
  /// cancel point and reports deadline_expired.  Wall-clock truncation is
  /// not reproducible, so a deadline — like `cancel` — makes evaluations
  /// uncacheable (cacheKey returns nullopt).
  std::int64_t deadlineNs = 0;
};

/// Generic netlist-producing template: design vector -> testbench netlist.
/// The output node is where gain/noise are measured; the input source must
/// carry the AC stimulus.
struct CircuitTemplate {
  std::vector<DesignVariable> variables;
  std::function<circuit::Netlist(const std::vector<double>&)> build;
  std::string outputNode = "out";
};

class SimulationModel : public PerformanceModel {
 public:
  SimulationModel(CircuitTemplate tmpl, const circuit::Process& proc,
                  SimModelOptions opts = {});

  const std::vector<DesignVariable>& variables() const override {
    return tmpl_.variables;
  }

  /// Performances: gain_db, ugf, pm, power, noise_nv (when enabled), swing,
  /// area (gate area), slew (I(M5) / Cc).  Total: a failed
  /// analysis reports {"_infeasible": 1, "_status": <reason>} (see
  /// kEvalStatusKey) with whatever it could compute, and an exception
  /// anywhere inside becomes bad_topology (netlist construction) or
  /// internal_error instead of escaping into the optimizer.
  Performance evaluate(const std::vector<double>& x) const override;

  /// Canonical candidate key (core/evalcache.hpp): digest of the
  /// *canonicalized* testbench netlist built at x (so template device/node
  /// declaration order is irrelevant), the process, every evaluator option,
  /// and the quantized design vector.  Evaluations wired to an external
  /// cancel flag are wall-clock-dependent and return nullopt (never
  /// cached); a deterministic work budget is part of the key instead.
  std::optional<core::cache::Digest128> cacheKey(
      const std::vector<double>& x) const override;

  /// Number of full simulator invocations so far (for the Fig. 1 runtime
  /// comparison).  Cache hits do not reach evaluate(), so with the
  /// evaluation cache enabled this counts *misses* (real simulator work).
  std::size_t evaluations() const { return evals_.load(std::memory_order_relaxed); }

 private:
  CircuitTemplate tmpl_;
  const circuit::Process& proc_;
  SimModelOptions opts_;
  /// Atomic: evaluate() runs concurrently under core/parallel.hpp loops.
  mutable std::atomic<std::size_t> evals_{0};
};

/// Ready-made template: two-stage opamp with widths/cc/ibias as variables.
/// Variables: w1, w3, w5, w6, w7, cc, ibias (w8 tracks w5 at the reference
/// current ratio; lengths fixed at 2 um).
CircuitTemplate twoStageTemplate(const circuit::Process& proc, const OpampTestbench& tb);

}  // namespace amsyn::sizing
