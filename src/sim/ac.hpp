// Small-signal AC analysis: solve (G + j w C) x = b over a frequency sweep,
// where (G, C, b) are the linearization produced by Mna::acMatrices at a DC
// operating point.
#pragma once

#include <complex>
#include <optional>
#include <string>
#include <vector>

#include "core/evalstatus.hpp"
#include "sim/dc.hpp"
#include "sim/mna.hpp"

namespace amsyn::sim {

struct AcPoint {
  double frequency = 0.0;                  ///< Hz
  std::complex<double> value{0.0, 0.0};    ///< output-node phasor
};

struct AcSweep {
  /// Ok, or why the sweep stopped early (SingularJacobian at some frequency,
  /// NanDetected in a solution, BudgetExhausted).  `points` then holds the
  /// frequencies solved before the failure; measurement helpers treat a
  /// short sweep as "no crossing found".
  core::EvalStatus status = core::EvalStatus::Ok;
  std::vector<AcPoint> points;

  double magnitudeDb(std::size_t i) const;
  double phaseDeg(std::size_t i) const;  ///< unwrapped phase in degrees
};

/// Logarithmic frequency grid.
std::vector<double> logspace(double fStart, double fStop, std::size_t pointsPerDecade);

/// Frequency-domain solver bound to one (netlist, operating point) pair.
/// Holds the linearized (G, C, b) triple and caches the factorization of
/// A(w) = G + j w C, re-factoring only when the requested frequency differs
/// from the cached one — A's values are a pure function of w once (G, C)
/// are fixed.  Repeated spot analyses, the forward + adjoint solves of the
/// noise analysis, and duplicate sweep points all share one factorization.
/// Traffic is recorded in sim/stats.hpp.
class AcSolver {
 public:
  AcSolver(const Mna& mna, const DcResult& op);

  /// Solve A(w) x = rhs at frequency f (Hz).
  num::VecC solve(double frequency, const num::VecC& rhs);

  /// Solve A(w)^T x = rhs (adjoint analyses, e.g. noise).
  num::VecC solveTransposed(double frequency, const num::VecC& rhs);

  /// RHS built from the netlist's independent-source AC magnitudes.
  num::VecC stimulus() const;

  std::size_t size() const { return n_; }

 private:
  const num::LUC& factorAt(double frequency);

  num::MatrixD g_, c_;
  num::VecD b_;
  std::size_t n_ = 0;
  double cachedFrequency_ = 0.0;
  std::optional<num::LUC> lu_;
};

/// AC sweep of the voltage at `outputNode`.  The stimulus is whatever AC
/// magnitudes are present on the netlist's sources.  A singular linearized
/// system or a non-finite solution ends the sweep early with the reason in
/// AcSweep::status instead of throwing.  The optional budget is charged one
/// unit per frequency point.
AcSweep acAnalysis(const Mna& mna, const DcResult& op, const std::string& outputNode,
                   const std::vector<double>& frequencies,
                   core::EvalBudget* budget = nullptr);

/// Single-frequency transfer to an output node.
std::complex<double> acTransfer(const Mna& mna, const DcResult& op,
                                const std::string& outputNode, double frequency);

}  // namespace amsyn::sim
