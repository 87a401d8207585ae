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
#include <optional>
#include <span>

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
  /// Always the slot path: out = values(x, process()).
  bool evaluateAmplifier(const std::vector<double>& x, AmplifierValues& out) const override;

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

  /// The values evaluate(x, geometryProc) reports, in slot order.  Throws
  /// std::invalid_argument on a wrong-dimension x.
  AmplifierValues values(const std::vector<double>& x,
                         const circuit::Process& geometryProc) const;

  const OpampStructure& structure() const { return s_; }
  const circuit::Process& process() const { return proc_; }
  double loadCap() const { return loadCap_; }

 private:
  OpampStructure s_;
  circuit::Process proc_;
  double loadCap_;
  std::vector<DesignVariable> vars_;
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

/// Corner models evaluated together at one design point: the models must
/// all come from makeTwoStageCornerModel with bit-identical nominal
/// processes, so one geometry serves every lane.  evaluate() maps the
/// geometry once, derives each lane's electricals, solves the unity-gain
/// crossings in lock step (groups of up to three lanes; a lone lane takes
/// the serial solve), then each lane's phase margin and performances.
/// Lane k's values equal models[k]->evaluate(x) bit for bit.
///
/// Each lane bisects exactly as the serial solve would: it decides steps
/// outside its own certified crossing band without the exact `magnitude >
/// 1` test, runs the test inside it, and stops at its own bitwise fixed
/// point.  UgfLanes.* holds every lane bit-equal to the plain bisection.
class TwoStageCornerBatch {
 public:
  /// Empty unless every model is a two-stage corner model and all share one
  /// nominal process bit for bit.  The batch refers to the models, which
  /// must outlive it.
  static std::optional<TwoStageCornerBatch> of(std::span<const PerformanceModel* const> models);

  /// out[k] = the values of models[k]->evaluate(x), one per model.
  /// Throws what evaluate throws (std::invalid_argument on a wrong-dimension
  /// x) before writing anything.
  void evaluate(const std::vector<double>& x, std::span<AmplifierValues> out) const;

 private:
  std::vector<const PerformanceModel*> lanes_;
};

/// safeEvaluate(*models[k], x) for every k, bit for bit and with the same
/// failure tallies: one TwoStageCornerBatch pass when the models form one,
/// else (or when the pass throws) one safeEvaluate per model.
std::vector<Performance> safeEvaluateAll(std::span<const PerformanceModel* const> models,
                                         const std::vector<double>& x);

}  // namespace amsyn::sizing
