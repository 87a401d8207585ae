#include "sim/dc.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/metrics.hpp"
#include "core/trace.hpp"
#include "sim/fault.hpp"
#include "sim/stats.hpp"

namespace amsyn::sim {

using core::EvalStatus;

namespace {

/// How one damped Newton solve ended.
enum class NewtonOutcome {
  Converged,
  NoConvergence,  ///< iteration limit hit with finite iterates
  Singular,       ///< LU factorization failed
  Nan,            ///< NaN/Inf in residual or update — bailed immediately
  Deadline,       ///< the job deadline passed (or an injected stop)
};

bool allFinite(const num::VecD& v) {
  for (double e : v)
    if (!std::isfinite(e)) return false;
  return true;
}

/// One damped Newton solve at fixed (sourceScale, gmin).  Returns the
/// outcome and leaves the iterate in x.  Charges the deadline once per
/// iteration.  A NaN/Inf residual or update aborts right away — burning the
/// remaining maxIterations on poisoned iterates cannot recover and only
/// wastes the time the continuation ladder still needs.
NewtonOutcome newtonSolve(const Mna& mna, num::VecD& x, double sourceScale, double gmin,
                          const DcOptions& opts, std::size_t& iterationsOut) {
  FaultInjector& inj = FaultInjector::threadLocal();
  if (inj.takeDcNewtonFailure()) return NewtonOutcome::Singular;

  const std::size_t n = mna.size();
  num::MatrixD jac;
  num::VecD f(n);
  for (std::size_t it = 0; it < opts.maxIterations; ++it) {
    if (!consumeWork(opts.deadline)) return NewtonOutcome::Deadline;
    AssemblyOptions aopt;
    aopt.sourceScale = sourceScale;
    aopt.gmin = gmin;

    mna.assemble(x, aopt, &jac, &f);
    if (inj.takeResidualPoison())
      f[0] = std::numeric_limits<double>::quiet_NaN();
    if (!allFinite(f)) return NewtonOutcome::Nan;
    num::VecD dx;
    try {
      dx = num::LUD(jac).solve(f);
    } catch (const std::runtime_error&) {
      return NewtonOutcome::Singular;  // let the continuation ladder retry
    }
    if (!allFinite(dx)) return NewtonOutcome::Nan;
    // Damped update with per-unknown clamping (SPICE-style voltage limiting).
    double maxDx = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double step = -dx[i];
      step = std::clamp(step, -opts.maxStep, opts.maxStep);
      x[i] += step;
      maxDx = std::max(maxDx, std::abs(step));
    }
    ++iterationsOut;
    static const auto cIters =
        core::metrics::registry().counter("sim.newton_iterations");
    core::metrics::add(cIters);
    if (maxDx < opts.vAbsTol) {
      // Confirm with the residual at the accepted point.
      mna.assemble(x, aopt, nullptr, &f);
      const double r = num::normInf(f);
      if (!std::isfinite(r)) return NewtonOutcome::Nan;
      if (r < opts.absTol) return NewtonOutcome::Converged;
    }
  }
  return NewtonOutcome::NoConvergence;
}

/// Reason code for a ladder that died with this outcome.
EvalStatus outcomeStatus(NewtonOutcome o) {
  switch (o) {
    case NewtonOutcome::Singular: return EvalStatus::SingularJacobian;
    case NewtonOutcome::Nan: return EvalStatus::NanDetected;
    case NewtonOutcome::Deadline: return EvalStatus::DeadlineExpired;
    default: return EvalStatus::DcNoConvergence;
  }
}

}  // namespace

DcResult dcOperatingPoint(const Mna& mna, const DcOptions& opts) {
  return dcOperatingPoint(mna, num::VecD(mna.size(), 0.0), opts);
}

num::VecD flatStart(const Mna& mna, double nodeVoltage) {
  num::VecD x(mna.size(), 0.0);
  for (std::size_t i = 0; i < mna.nodeUnknowns(); ++i) x[i] = nodeVoltage;
  return x;
}

DcResult dcOperatingPoint(const Mna& mna, const num::VecD& x0, const DcOptions& opts) {
  AMSYN_SPAN("dc_solve");
  static const auto cSolves = core::metrics::registry().counter("sim.dc_solves");
  core::metrics::add(cSolves);
  DcResult res;
  res.x = x0;
  if (res.x.size() != mna.size()) res.x.assign(mna.size(), 0.0);
  const num::VecD start = res.x;  // continuation rungs restart from here

  auto succeed = [&](const char* strategy, DcStrategy tally) {
    res.converged = true;
    res.status = EvalStatus::Ok;
    res.strategy = strategy;
    recordDcStrategy(tally);
  };

  // Rung 1: plain Newton with a small safety gmin.
  NewtonOutcome out = newtonSolve(mna, res.x, 1.0, 1e-12, opts, res.iterations);
  if (out == NewtonOutcome::Converged) {
    succeed("newton", DcStrategy::Newton);
    return res;
  }
  res.status = outcomeStatus(out);  // remember the most recent failure mode
  if (out == NewtonOutcome::Deadline) {
    recordEvalFailure(res.status);
    return res;  // the ladder shares the deadline; nothing left to climb with
  }

  // Rung 2: gmin stepping — start heavily damped, relax geometrically.
  if (opts.allowGminStepping) {
    res.x = start;
    bool ok = true;
    for (double gmin = 1e-2; gmin >= 1e-12; gmin *= 1e-2) {
      out = newtonSolve(mna, res.x, 1.0, gmin, opts, res.iterations);
      if (out != NewtonOutcome::Converged) {
        ok = false;
        break;
      }
    }
    if (ok) out = newtonSolve(mna, res.x, 1.0, 1e-12, opts, res.iterations);
    if (ok && out == NewtonOutcome::Converged) {
      succeed("gmin", DcStrategy::Gmin);
      return res;
    }
    res.status = outcomeStatus(out);
    if (out == NewtonOutcome::Deadline) {
      recordEvalFailure(res.status);
      return res;
    }
  }

  // Rung 3: source stepping — ramp all independent sources from 10%.
  if (opts.allowSourceStepping) {
    res.x = start;
    bool ok = true;
    for (double scale : {0.1, 0.25, 0.5, 0.75, 0.9, 1.0}) {
      out = newtonSolve(mna, res.x, scale, 1e-9, opts, res.iterations);
      if (out != NewtonOutcome::Converged) {
        ok = false;
        break;
      }
    }
    if (ok) out = newtonSolve(mna, res.x, 1.0, 1e-12, opts, res.iterations);
    if (ok && out == NewtonOutcome::Converged) {
      succeed("source", DcStrategy::Source);
      return res;
    }
    res.status = outcomeStatus(out);
  }

  res.converged = false;
  recordEvalFailure(res.status);
  return res;
}

}  // namespace amsyn::sim
