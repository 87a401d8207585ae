// Equation-based performance models (OPASYN [8] / OPTIMAN [10] style):
// first-order design equations evaluated in microseconds.  One library of
// equations serves every amplifier: ComposedOpampModel derives a
// structure's performances from per-block contributions (hierarchical
// equation library over the composed block space of sizing/blocks.hpp).
// Design variables are bias currents, overdrive voltages, and the
// compensation capacitor; device widths follow from W/L = 2 I / (kp Vov^2),
// so every design point maps onto the netlist buildComposedOpamp stitches.
#pragma once

#include <memory>

#include "circuit/process.hpp"
#include "sizing/blocks.hpp"
#include "sizing/perfmodel.hpp"

namespace amsyn::sizing {

/// Composed equation-based performance model for one block structure.
/// Variables are the structure's variables(); performances are the standard
/// amplifier set (gain_db, ugf, pm, slew, power, area, swing, noise_nv).
/// The model owns its process, so libraries holding it may be memoized and
/// outlive the caller's process instance.
class ComposedOpampModel : public PerformanceModel {
 public:
  ComposedOpampModel(const OpampStructure& s, const circuit::Process& proc, double loadCap);

  const std::vector<DesignVariable>& variables() const override { return vars_; }
  Performance evaluate(const std::vector<double>& x) const override;
  std::optional<core::cache::Digest128> cacheKey(
      const std::vector<double>& x) const override;
  /// Closed-form equations evaluate in 1.2-1.5 us (legacy two-stage,
  /// Release, bench_claim_eval_speed on a 4-vCPU Xeon VM) — the same order
  /// as a cache transaction — so caching them is pure overhead (the
  /// BENCH_cache genetic workload measures exactly this floor).
  EvalCost evalCost() const override { return EvalCost::Cheap; }

  /// Evaluate a *frozen geometry* under this model's process: device sizes
  /// are mapped from `x` at `geometryProc` (the nominal process a designer
  /// tapes out) and the electricals are re-derived at this model's process.
  /// That is the physically correct object for corner and yield analysis —
  /// a fab varies kp/Vt/Vdd/T around fixed masks.  Two-stage structures
  /// re-derive every current and overdrive from the geometry; the
  /// single-stage family's equations read them from `x` directly.
  /// evaluate(x) maps the geometry at the model's own process.
  Performance evaluate(const std::vector<double>& x,
                       const circuit::Process& geometryProc) const;

  const OpampStructure& structure() const { return s_; }

 private:
  OpampStructure s_;
  circuit::Process proc_;
  double loadCap_;
  std::vector<DesignVariable> vars_;
  core::cache::Hasher128 keyPrefix_;  ///< tag+name+process+loadCap, mixed once
};

/// Corner model: design points live in the legacy two-stage structure's
/// electrical variable space, are mapped to geometry at the *nominal*
/// process (that is what the designer tapes out), and evaluated under the
/// corner process.  Use in manufacture::ModelFactory lambdas:
///   [&](const Process& corner) {
///     return makeTwoStageCornerModel(corner, nominalProcess, cl); }
std::unique_ptr<PerformanceModel> makeTwoStageCornerModel(const circuit::Process& corner,
                                                          const circuit::Process& nominal,
                                                          double loadCap);

}  // namespace amsyn::sizing
