#include "sim/noise.hpp"

#include <cmath>
#include <complex>
#include <stdexcept>

#include "core/metrics.hpp"
#include "core/trace.hpp"
#include "sim/ac.hpp"
#include "sim/fault.hpp"
#include "sim/stats.hpp"

namespace amsyn::sim {

using circuit::Device;
using circuit::DeviceType;
using circuit::NodeId;

NoiseResult noiseAnalysis(const Mna& mna, const DcResult& op, const std::string& outputNode,
                          const std::vector<double>& frequencies,
                          core::Deadline* deadline) {
  if (!op.converged) throw std::invalid_argument("noiseAnalysis: op not converged");
  AMSYN_SPAN("noise_analysis");
  static const auto cRuns =
      core::metrics::registry().counter("sim.noise_analyses");
  core::metrics::add(cRuns);
  const auto outNode = mna.netlist().findNode(outputNode);
  if (!outNode || *outNode == circuit::kGround)
    throw std::invalid_argument("noiseAnalysis: bad output node " + outputNode);
  const std::size_t outIdx = mna.nodeIndex(*outNode);

  const std::size_t n = mna.size();
  const auto mosOps = mna.mosOperatingPoints(op.x);
  // One solver per analysis: the forward and adjoint solves at each
  // frequency share a single LU factorization.
  AcSolver solver(mna, op);
  const num::VecC rhs = solver.stimulus();

  NoiseResult res;
  for (double f : frequencies) {
    if (!consumeWork(deadline)) {
      res.status = core::EvalStatus::DeadlineExpired;
      recordEvalFailure(res.status);
      return res;
    }
    // Forward solve: output phasor under the netlist's AC stimulus (for
    // input referral).  A singular linearized system at some frequency is a
    // property of the candidate, not a bug: stop with the reason attached.
    num::VecC xf, xa;
    num::VecC e(n, std::complex<double>{0.0, 0.0});
    e[outIdx] = 1.0;
    try {
      xf = solver.solve(f, rhs);
      // Adjoint solve: transfer from a unit current injected at any node
      // pair to the output voltage is (xa[a] - xa[b]).
      xa = solver.solveTransposed(f, e);
    } catch (const std::runtime_error&) {
      res.status = core::EvalStatus::SingularJacobian;
      recordEvalFailure(res.status);
      return res;
    }
    const double gainMag = std::abs(xf[outIdx]);

    auto h2 = [&](NodeId from, NodeId to) {
      std::complex<double> hv = 0.0;
      if (from != circuit::kGround) hv += xa[mna.nodeIndex(from)];
      if (to != circuit::kGround) hv -= xa[mna.nodeIndex(to)];
      return std::norm(hv);
    };

    double psd = 0.0;
    std::size_t mosIdx = 0;
    for (const Device& d : mna.netlist().devices()) {
      switch (d.type) {
        case DeviceType::Resistor:
          psd += h2(d.nodes[0], d.nodes[1]) * 4.0 * mna.process().kT() / d.value;
          break;
        case DeviceType::Mos: {
          const auto& opInfo = mosOps.at(mosIdx++).second;
          // Channel noise flows drain -> source.
          psd += h2(d.nodes[0], d.nodes[2]) *
                 circuit::mosNoisePsd(d.mos, mna.process(), opInfo, f);
          break;
        }
        default:
          break;
      }
    }

    NoisePoint pt;
    pt.frequency = f;
    pt.outputPsd = psd;
    pt.inputReferredPsd = gainMag > 1e-12 ? psd / (gainMag * gainMag) : 0.0;
    res.points.push_back(pt);
  }
  return res;
}

}  // namespace amsyn::sim
