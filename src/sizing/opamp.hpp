// Circuit template for the classic CMOS amplifier every surveyed synthesis
// system cut its teeth on: the two-stage Miller-compensated opamp.  Its
// parameter block serves the simulation-based evaluators and the layout
// generators; the equation models size the same devices through the
// composed block space (sizing/blocks.hpp), whose legacy two-stage netlist
// is this template's device for device.
#pragma once

#include <string>

#include "circuit/netlist.hpp"
#include "circuit/process.hpp"

namespace amsyn::sizing {

/// Device sizes for the two-stage opamp (M2 = M1, M4 = M3 by symmetry):
///   M1/M2  NMOS input pair          M3/M4  PMOS mirror load
///   M5     NMOS tail source         M8     NMOS bias diode
///   M6     PMOS output driver       M7     NMOS output sink
///   Cc     Miller capacitor (farads)
struct TwoStageParams {
  double w1 = 50e-6;
  double w3 = 20e-6;
  double w5 = 20e-6;
  double w6 = 100e-6;
  double w7 = 40e-6;
  double w8 = 10e-6;
  double l = 2e-6;       ///< channel length, all devices
  double cc = 3e-12;
  double ibias = 20e-6;  ///< reference current into the bias diode

  /// Total active gate area plus an estimate for Cc (m^2).
  double activeArea(const circuit::Process& proc) const;
};

struct OpampTestbench {
  double loadCap = 5e-12;
  double vicm = 2.2;      ///< input common-mode voltage
  bool dcFeedback = true; ///< huge-RC feedback to pin the DC operating point
};

/// Build the open-loop AC test bench netlist around a two-stage opamp:
/// supplies, bias source, load, and (optionally) the R-C feedback trick that
/// fixes the DC operating point while leaving AC >= 1 Hz open loop.
/// Node names: "inp" (AC input), "inn", "out", "no1" (stage-1 output).
circuit::Netlist buildTwoStageOpamp(const TwoStageParams& p, const circuit::Process& proc,
                                    const OpampTestbench& tb = {});

// --- shared sub-netlists ---------------------------------------------------
// The composed-topology builder (sizing/blocks.hpp) stitches the same
// supply, bias and testbench fixtures around generated cores; sharing the
// device sequences keeps the composed legacy two-stage byte-identical to
// buildTwoStageOpamp above.

/// VDD supply plus the bias reference pushing `ibias` into "nbias" (the
/// NMOS bias-diode rail).  `pmosDiode` flips the reference for a PMOS bias
/// diode hanging from vdd: the source then pulls `ibias` out of "nbias".
void addOpampSupplies(circuit::Netlist& net, const circuit::Process& proc, double ibias,
                      bool pmosDiode = false);

/// The open-loop AC bench: AC stimulus on "inp", DC feedback (or a fixed
/// "inn" drive), and the load capacitor on "out".
void addOpampTestbench(circuit::Netlist& net, const OpampTestbench& tb);

/// Capacitor area estimate at ~1 fF/um^2 (m^2 per farad) — the same figure
/// TwoStageParams::activeArea folds in for Cc.
double opampCapArea(double farads);

}  // namespace amsyn::sizing
