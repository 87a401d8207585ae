// Test-only reference: the hand-written equation models and OTA template
// amsyn started from (OPASYN [8] / OPTIMAN [10] style), kept verbatim so
// the differential suites can prove the composed block space
// (sizing::ComposedOpampModel, sizing::buildComposedOpamp) reproduces them
// bit for bit.  Nothing in the library links this; only tests do.
#pragma once

#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/process.hpp"
#include "sizing/opamp.hpp"
#include "sizing/perfmodel.hpp"

namespace amsyn::reference {

/// Two-stage Miller opamp, equation-based.
/// Variables: i5, i7 (stage currents), vov1, vov3, vov5, vov6 (overdrives),
/// cc (compensation).  Performances: gain_db, ugf, pm, slew, power, area,
/// swing, noise_nv.
class TwoStageEquationModel : public sizing::PerformanceModel {
 public:
  TwoStageEquationModel(const circuit::Process& proc, double loadCap);

  const std::vector<sizing::DesignVariable>& variables() const override { return vars_; }
  sizing::Performance evaluate(const std::vector<double>& x) const override;
  sizing::EvalCost evalCost() const override { return sizing::EvalCost::Cheap; }

  /// Map a design point to device sizes for simulation / layout.
  sizing::TwoStageParams toParams(const std::vector<double>& x) const;

 private:
  circuit::Process proc_;
  double loadCap_;
  std::vector<sizing::DesignVariable> vars_;
};

/// Five-transistor OTA (single-stage): NMOS pair M1/M2, PMOS mirror M3/M4,
/// NMOS tail M5, bias diode M8.
struct OtaParams {
  double w1 = 40e-6;
  double w3 = 20e-6;
  double w5 = 20e-6;
  double w8 = 10e-6;
  double l = 2e-6;
  double ibias = 20e-6;

  double activeArea() const;
};

circuit::Netlist buildOta(const OtaParams& p, const circuit::Process& proc,
                          const sizing::OpampTestbench& tb = {});

/// Five-transistor OTA, equation-based.
/// Variables: i5, vov1, vov3, vov5.  Performances as the two-stage model.
class OtaEquationModel : public sizing::PerformanceModel {
 public:
  OtaEquationModel(const circuit::Process& proc, double loadCap);

  const std::vector<sizing::DesignVariable>& variables() const override { return vars_; }
  sizing::Performance evaluate(const std::vector<double>& x) const override;
  sizing::EvalCost evalCost() const override { return sizing::EvalCost::Cheap; }

  OtaParams toParams(const std::vector<double>& x) const;

 private:
  circuit::Process proc_;
  double loadCap_;
  std::vector<sizing::DesignVariable> vars_;
};

/// Evaluate a fixed two-stage geometry under an arbitrary process instance
/// (the hand-written corner path: geometry at nominal, electricals at the
/// corner).
sizing::Performance evaluateTwoStageGeometry(const sizing::TwoStageParams& p,
                                             const circuit::Process& proc, double loadCap);

}  // namespace amsyn::reference
