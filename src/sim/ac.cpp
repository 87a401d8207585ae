#include "sim/ac.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/metrics.hpp"
#include "core/trace.hpp"
#include "sim/fault.hpp"
#include "sim/stats.hpp"

namespace amsyn::sim {

AcSolver::AcSolver(const Mna& mna, const DcResult& op) {
  if (!op.converged) throw std::invalid_argument("AcSolver: operating point not converged");
  n_ = mna.size();
  mna.acMatrices(op.x, g_, c_, b_);
}

const num::LUC& AcSolver::factorAt(double frequency) {
  if (lu_ && frequency == cachedFrequency_) {
    recordLuReuse();
    return *lu_;
  }
  if (FaultInjector::threadLocal().takeLuFailure())
    throw std::runtime_error("injected singular LU");
  const double w = 2.0 * M_PI * frequency;
  num::MatrixC a(n_, n_);
  for (std::size_t i = 0; i < n_; ++i)
    for (std::size_t j = 0; j < n_; ++j) a(i, j) = {g_(i, j), w * c_(i, j)};
  lu_.emplace(std::move(a));
  cachedFrequency_ = frequency;
  recordLuFactorization();
  return *lu_;
}

num::VecC AcSolver::solve(double frequency, const num::VecC& rhs) {
  return factorAt(frequency).solve(rhs);
}

num::VecC AcSolver::solveTransposed(double frequency, const num::VecC& rhs) {
  return factorAt(frequency).solveTransposed(rhs);
}

num::VecC AcSolver::stimulus() const {
  num::VecC rhs(n_);
  for (std::size_t i = 0; i < n_; ++i) rhs[i] = b_[i];
  return rhs;
}

double AcSweep::magnitudeDb(std::size_t i) const {
  return 20.0 * std::log10(std::max(std::abs(points.at(i).value), 1e-30));
}

double AcSweep::phaseDeg(std::size_t i) const {
  // Unwrap from the start of the sweep so phase margins read correctly.
  double prev = std::arg(points.at(0).value);
  double acc = prev;
  for (std::size_t k = 1; k <= i; ++k) {
    double ph = std::arg(points.at(k).value);
    while (ph - prev > M_PI) ph -= 2.0 * M_PI;
    while (ph - prev < -M_PI) ph += 2.0 * M_PI;
    acc = ph;
    prev = ph;
  }
  return acc * 180.0 / M_PI;
}

std::vector<double> logspace(double fStart, double fStop, std::size_t pointsPerDecade) {
  if (fStart <= 0 || fStop <= fStart || pointsPerDecade == 0)
    throw std::invalid_argument("logspace: bad range");
  std::vector<double> fs;
  const double decades = std::log10(fStop / fStart);
  const std::size_t n = static_cast<std::size_t>(std::ceil(decades * pointsPerDecade)) + 1;
  for (std::size_t i = 0; i < n; ++i)
    fs.push_back(fStart * std::pow(10.0, decades * static_cast<double>(i) /
                                             static_cast<double>(n - 1)));
  return fs;
}

AcSweep acAnalysis(const Mna& mna, const DcResult& op, const std::string& outputNode,
                   const std::vector<double>& frequencies, core::Deadline* deadline) {
  if (!op.converged) throw std::invalid_argument("acAnalysis: operating point not converged");
  AMSYN_SPAN("ac_sweep");
  static const auto cSweeps = core::metrics::registry().counter("sim.ac_sweeps");
  static const auto cPoints = core::metrics::registry().counter("sim.ac_points");
  core::metrics::add(cSweeps);
  const auto outNode = mna.netlist().findNode(outputNode);
  if (!outNode) throw std::invalid_argument("acAnalysis: unknown node " + outputNode);
  const std::size_t outIdx = mna.nodeIndex(*outNode);
  if (outIdx == static_cast<std::size_t>(-1))
    throw std::invalid_argument("acAnalysis: output is ground");

  AcSolver solver(mna, op);
  const num::VecC rhs = solver.stimulus();

  AcSweep sweep;
  sweep.points.reserve(frequencies.size());
  for (double f : frequencies) {
    if (!consumeWork(deadline)) {
      sweep.status = core::EvalStatus::DeadlineExpired;
      break;
    }
    num::VecC x;
    try {
      x = solver.solve(f, rhs);
    } catch (const std::runtime_error&) {
      // Singular (G + jwC) at this frequency: a pathological candidate, not
      // a programming error.  Return what was solved with the reason.
      sweep.status = core::EvalStatus::SingularJacobian;
      break;
    }
    if (!std::isfinite(x[outIdx].real()) || !std::isfinite(x[outIdx].imag())) {
      sweep.status = core::EvalStatus::NanDetected;
      break;
    }
    sweep.points.push_back({f, x[outIdx]});
  }
  if (sweep.status != core::EvalStatus::Ok) recordEvalFailure(sweep.status);
  core::metrics::add(cPoints, sweep.points.size());
  return sweep;
}

std::complex<double> acTransfer(const Mna& mna, const DcResult& op,
                                const std::string& outputNode, double frequency) {
  const AcSweep sweep = acAnalysis(mna, op, outputNode, {frequency});
  if (sweep.points.empty()) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    return {nan, nan};  // status already tallied by acAnalysis
  }
  return sweep.points.at(0).value;
}

}  // namespace amsyn::sim
