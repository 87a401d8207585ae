// Synthetic CMOS process description.  Every tool in amsyn reads technology
// data through this one struct, mirroring how era tools (IDAC, OASYS, KOAN)
// isolated process knowledge so designs could retarget.  Default values model
// a generic 0.8 um double-metal CMOS similar to the processes the surveyed
// systems were demonstrated on.
#pragma once

#include <cstdint>

#include "core/digest.hpp"

namespace amsyn::circuit {

/// Electrical + lithographic process parameters.  Lengths in meters unless
/// noted; layout rules in integer lambda (the geometry grid is lambda/4).
struct Process {
  // --- supplies / environment ---
  double vdd = 5.0;
  double temperature = 300.15;  ///< K

  // --- MOS level-1 parameters (NMOS / PMOS) ---
  double kpN = 120e-6;   ///< uA/V^2 transconductance factor, NMOS
  double kpP = 40e-6;    ///< PMOS
  double vt0N = 0.75;    ///< zero-bias threshold, NMOS (V)
  double vt0P = -0.85;   ///< PMOS (V, negative)
  double lambdaN = 0.06; ///< channel-length modulation at L = 1 um (1/V); scales ~1/L
  double lambdaP = 0.09;
  double gammaN = 0.45;  ///< body-effect coefficient (sqrt(V))
  double gammaP = 0.40;
  double phiF2 = 0.65;   ///< 2*phi_F surface potential (V)
  double cox = 2.1e-3;   ///< gate-oxide capacitance (F/m^2)
  double covPerW = 3.0e-10;  ///< gate-drain/source overlap cap per width (F/m)
  double cjArea = 3.0e-4;    ///< junction cap per area (F/m^2)
  double cjPerim = 2.5e-10;  ///< junction sidewall cap per perimeter (F/m)
  double kfN = 3e-26;    ///< flicker-noise coefficient, NMOS
  double kfP = 1e-26;
  double afExp = 1.0;    ///< flicker-noise current exponent

  // --- matching (Pelgrom) coefficients ---
  double avt = 12e-9;    ///< sigma(dVT) = avt / sqrt(W*L)  (V*m)
  double abeta = 0.02e-6;///< sigma(dBeta/Beta) = abeta / sqrt(W*L) (m)

  // --- minimum feature sizes ---
  double minL = 0.8e-6;  ///< minimum channel length (m)
  double minW = 1.6e-6;  ///< minimum channel width (m)
  double lambda = 0.4e-6;///< layout lambda (m); geometry grid is lambda/4

  // --- interconnect electricals ---
  double rsPoly = 25.0;    ///< sheet resistance (ohm/sq)
  double rsMetal1 = 0.07;
  double rsMetal2 = 0.04;
  double rsDiff = 50.0;
  double rContact = 8.0;   ///< ohms per contact/via cut
  double caPoly = 6.0e-5;  ///< area cap to substrate (F/m^2)
  double caMetal1 = 3.0e-5;
  double caMetal2 = 2.0e-5;
  double cfPoly = 4.0e-11; ///< fringe cap per edge length (F/m)
  double cfMetal1 = 5.0e-11;
  double cfMetal2 = 4.5e-11;
  double ccAdjacent = 6.0e-11;  ///< same-layer coupling per length at min spacing (F/m)
  double jMaxMetal = 1.0e9;     ///< electromigration current-density limit (A/m^2-ish, per unit width*thickness lump)
  double metalThickness = 0.8e-6;

  // --- layout design rules, in lambda ---
  int ruleMinWidth = 3;       ///< min wire width
  int ruleMinSpacing = 3;     ///< min same-layer spacing
  int ruleContactSize = 2;
  int ruleGateExtension = 2;  ///< poly past diffusion
  int ruleDiffContactEnclosure = 1;
  int ruleWellEnclosure = 5;

  /// Boltzmann * T (J), used in noise computations.
  double kT() const { return 1.380649e-23 * temperature; }
};

/// The default process used by all examples, tests, and benches.
const Process& defaultProcess();

/// Mix every electrical/lithographic Process parameter into `h` in a fixed
/// field order (corner instances differ from nominal in exactly these).
void hashProcess(core::Hasher128& h, const Process& p);

}  // namespace amsyn::circuit
