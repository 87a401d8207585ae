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
  SimulationModel(CircuitTemplate tmpl, const circuit::Process& proc);

  const std::vector<DesignVariable>& variables() const override {
    return tmpl_.variables;
  }

  /// Performances: gain_db, ugf, pm, power, noise_nv (input-referred spot
  /// noise), swing, area (gate area), slew (I(M5) / Cc); gain, ugf and pm
  /// come from sim::amplifierSweep().  A DC output at a supply rail (the
  /// latched solution of a feedback-biased open-loop bench) is an
  /// infeasible design with no reason code.  Total: a failed
  /// analysis reports {"_infeasible": 1, "_status": <reason>} (see
  /// kEvalStatusKey) with whatever it could compute, and an exception
  /// anywhere inside becomes bad_topology (netlist construction) or
  /// internal_error instead of escaping into the optimizer.
  Performance evaluate(const std::vector<double>& x) const override;

  /// Number of full simulator invocations so far (for the Fig. 1 runtime
  /// comparison).
  std::size_t evaluations() const { return evals_.load(std::memory_order_relaxed); }

 private:
  CircuitTemplate tmpl_;
  const circuit::Process& proc_;
  /// Atomic: evaluate() runs concurrently under core/parallel.hpp loops.
  mutable std::atomic<std::size_t> evals_{0};
};

/// Ready-made template: two-stage opamp with widths/cc/ibias as variables.
/// Variables: w1, w3, w5, w6, w7, cc, ibias (w8 tracks w5 at the reference
/// current ratio; lengths fixed at 2 um).
CircuitTemplate twoStageTemplate(const circuit::Process& proc, const OpampTestbench& tb);

}  // namespace amsyn::sizing
