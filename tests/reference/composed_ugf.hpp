// Test-only reference: the composed two-stage family's unity-gain crossing
// and phase margin exactly as sizing::ComposedOpampModel first computed
// them — the same equations, solved by the plain 80-step bisection with no
// early exit and no filtered steps.  The UGF differential suite in
// tests/composed_topology_test.cpp requires the library's solve to match it
// bit for bit.  Nothing in the library links this; only tests do.
#pragma once

#include <vector>

#include "circuit/process.hpp"
#include "sizing/blocks.hpp"

namespace amsyn::reference {

struct UgfSolve {
  double ugf = 0.0;
  double pm = 0.0;
  // Intermediate terms, so tests can show which regime a point exercised.
  double av0 = 0.0;  ///< dc loop gain av1 * av2
  double z = 0.0;    ///< plain-Miller zero (0 for the nulled variant)
  double p1 = 0.0;   ///< dominant pole, the bisection's lower end (Hz)
  /// The zero's frequency: |z|, or 1/|zInv| for the nulled variant (Hz).
  double zeroHz = 0.0;
  /// magnitude() at the bisection's upper end, 1e13 Hz.
  double ceilingMagnitude = 0.0;
  /// First step that leaves (lo, hi) bit-unchanged, where an early-exit
  /// solve stops (80: none does).
  int fixedPointStep = 80;
};

/// Two-stage structures only (s.secondStage): geometry mapped from `x` at
/// `geometryProc`, electricals at `proc`, load `loadCap` — the arguments of
/// ComposedOpampModel(s, proc, loadCap).evaluate(x, geometryProc).
UgfSolve composedTwoStageUgf(const sizing::OpampStructure& s, const circuit::Process& proc,
                             double loadCap, const std::vector<double>& x,
                             const circuit::Process& geometryProc);

}  // namespace amsyn::reference
