// ASTRX/OBLX-style "dc-free biasing" formulation [23]: instead of solving
// the nonlinear DC operating point at every optimizer iteration (the
// expensive part of simulation-based sizing), the node voltages become
// optimization variables and Kirchhoff's current law becomes a penalty term.
// The annealer then relaxes the circuit into bias while it sizes it, and the
// linear small-signal characteristics are evaluated with AWE [61] on the
// Jacobian at the current (not-yet-converged) bias point.
#pragma once

#include "circuit/process.hpp"
#include "sizing/perfmodel.hpp"
#include "sizing/simmodel.hpp"

namespace amsyn::sizing {

class RelaxedDcModel : public PerformanceModel {
 public:
  RelaxedDcModel(CircuitTemplate tmpl, const circuit::Process& proc);

  const std::vector<DesignVariable>& variables() const override { return vars_; }

  /// Performances: gain_db, ugf, pm, power, area plus the special
  /// "_dc_residual" (normalized KCL violation) which the cost function must
  /// drive to zero — SpecSet users add
  /// `atMost("_dc_residual", tol, bigWeight)`.
  Performance evaluate(const std::vector<double>& x) const override;

  /// Initial point: template middle + node voltages from an actual DC solve
  /// (a fair warm start, as ASTRX does with its dc estimator).
  std::vector<double> initialPoint() const override;

  std::size_t templateDimension() const { return tmpl_.variables.size(); }

 private:
  CircuitTemplate tmpl_;
  const circuit::Process& proc_;
  std::vector<DesignVariable> vars_;
  std::size_t stateSize_ = 0;
};

}  // namespace amsyn::sizing
