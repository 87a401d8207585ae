// DC operating-point analysis: damped Newton-Raphson with
// gmin stepping and source stepping as continuation fallbacks (the standard
// SPICE convergence ladder).  Every entry point is total: a failed solve
// returns a DcResult carrying a core::EvalStatus reason code instead of
// throwing, so optimization loops treat bad candidates as infeasible data.
#pragma once

#include <string>

#include "core/evalstatus.hpp"
#include "core/resilience.hpp"
#include "sim/mna.hpp"

namespace amsyn::sim {

struct DcOptions {
  std::size_t maxIterations = 200;
  double absTol = 1e-9;     ///< residual current tolerance (A)
  double vAbsTol = 1e-6;    ///< voltage update tolerance (V)
  double maxStep = 0.5;     ///< Newton update clamp per unknown (V or A)
  bool allowGminStepping = true;
  bool allowSourceStepping = true;
  /// Optional job deadline, charged one unit per Newton iteration and
  /// shared by all analyses of one measurement.  Expiry aborts the
  /// continuation ladder with EvalStatus::DeadlineExpired.
  core::Deadline* deadline = nullptr;
};

struct DcResult {
  bool converged = false;
  /// Why the solve failed (Ok when converged).  SingularJacobian/NanDetected
  /// mean every continuation rung died that way; DeadlineExpired means the
  /// ladder was cut short.
  core::EvalStatus status = core::EvalStatus::DcNoConvergence;
  num::VecD x;               ///< solution vector (see Mna layout)
  std::size_t iterations = 0;
  std::string strategy;      ///< "newton", "gmin", or "source"
};

/// Solve for the DC operating point.
DcResult dcOperatingPoint(const Mna& mna, const DcOptions& opts = {});

/// Solve with a warm start (used by the sizing loop).
DcResult dcOperatingPoint(const Mna& mna, const num::VecD& x0, const DcOptions& opts = {});

/// Starting vector with every node voltage at `nodeVoltage` and all branch
/// currents at zero.  Feedback-biased amplifier testbenches have a second,
/// latched DC solution near the rails; starting Newton mid-rail steers it to
/// the balanced operating point.
num::VecD flatStart(const Mna& mna, double nodeVoltage);

}  // namespace amsyn::sim
