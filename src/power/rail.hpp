// RAIL power-grid synthesis (Stanisic et al. [58,60]; Fig. 3 of the paper):
// cast mixed-signal power distribution as an optimization over wire widths
// against dc, ac/transient, and electromigration constraints, with the whole
// grid + package evaluated electrically (AWE) at every step.  The paper's
// Fig. 3 shows RAIL re-designing the IBM data-channel grid to meet "a
// demanding set of dc, ac and transient performance constraints
// automatically" — bench/bench_fig3_rail_grid reproduces that flow on the
// synthetic data-channel chip.
#pragma once

#include "power/grid.hpp"

namespace amsyn::power {

struct RailConstraints {
  double maxDcDropVolts = 0.15;
  double maxSpikeVolts = 0.30;         ///< at any supply node
  double maxAnalogSpikeVolts = 0.10;   ///< coupled into analog blocks
  double maxEmStress = 1.0;            ///< current density / limit
};

struct RailOptions {
  double widenFactor = 1.35;
  double minWidth = 1e-6;
  double maxWidth = 250e-6;   ///< power trunks of hundreds of um are normal
  std::size_t maxIterations = 48;
  /// Spike mitigation: supply spikes are limited by package L di/dt, which
  /// metal width cannot fix; RAIL places bypass capacitance instead.
  double decapBoostFactor = 1.7;
  double maxDecapPerBlock = 20e-9;
};

struct RailResult {
  GridAnalysis initial;
  GridAnalysis final;
  bool constraintsMet = false;
  std::size_t iterations = 0;
  std::vector<double> widths;     ///< final per-wire widths
  double addedDecapFarads = 0.0;  ///< synthesized bypass capacitance
};

/// Check an analysis against the constraints.
bool meets(const GridAnalysis& a, const RailConstraints& c);

/// Width-optimize the grid in place.  Strategy: widen the wires responsible
/// for the worst violated constraint (EM-stressed wires, then high-current
/// wires for IR/spike) until everything holds, then optionally narrow
/// low-current wires while constraints keep holding.
RailResult synthesizePowerGrid(PowerGrid& grid, const RailConstraints& constraints,
                               const circuit::Process& proc, const RailOptions& opts = {});

/// Digital-style reference grid: a uniform width chosen for connectivity
/// and average IR drop only (the paper: digital schemes "focus on
/// connectivity, pad-to-pin ohmic drop, and electromigration"), ignoring
/// transient spikes and analog victims.  The Fig. 3 bench compares this
/// baseline against the RAIL result.
void applyUniformWidth(PowerGrid& grid, double widthMeters);

}  // namespace amsyn::power
