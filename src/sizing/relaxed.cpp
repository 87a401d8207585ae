#include "sizing/relaxed.hpp"

#include <cmath>
#include <complex>

#include "awe/awe.hpp"
#include "circuit/canonical.hpp"
#include "sim/dc.hpp"
#include "sim/mna.hpp"
#include "sim/stats.hpp"

namespace amsyn::sizing {

RelaxedDcModel::RelaxedDcModel(CircuitTemplate tmpl, const circuit::Process& proc,
                               RelaxedDcOptions opts)
    : tmpl_(std::move(tmpl)), proc_(proc), opts_(opts) {
  // Determine the MNA state size from a probe netlist at the template's
  // middle point; the template must keep node/branch ordering fixed across
  // design points (ours do: they build the same devices in the same order).
  std::vector<double> mid;
  for (const auto& v : tmpl_.variables)
    mid.push_back(v.logScale && v.lo > 0 ? std::sqrt(v.lo * v.hi) : 0.5 * (v.lo + v.hi));
  circuit::Netlist probe = tmpl_.build(mid);
  sim::Mna mna(probe, proc_);
  stateSize_ = mna.size();

  vars_ = tmpl_.variables;
  for (std::size_t i = 0; i < mna.nodeUnknowns(); ++i)
    vars_.push_back(DesignVariable{"v_" + probe.nodeName(static_cast<circuit::NodeId>(i + 1)),
                                   -0.5, proc_.vdd + 0.5, false, 0.03});
  for (std::size_t i = mna.nodeUnknowns(); i < stateSize_; ++i)
    vars_.push_back(DesignVariable{"i_branch" + std::to_string(i - mna.nodeUnknowns()),
                                   -opts_.branchCurrentLimit, opts_.branchCurrentLimit,
                                   false, 0.02});
}

std::vector<double> RelaxedDcModel::initialPoint() const {
  std::vector<double> x;
  for (const auto& v : tmpl_.variables)
    x.push_back(v.logScale && v.lo > 0 ? std::sqrt(v.lo * v.hi) : 0.5 * (v.lo + v.hi));
  circuit::Netlist net = tmpl_.build(x);
  sim::Mna mna(net, proc_);
  const auto op = sim::dcOperatingPoint(mna, sim::flatStart(mna, proc_.vdd / 2));
  if (op.converged) {
    for (double v : op.x) x.push_back(v);
  } else {
    for (std::size_t i = 0; i < stateSize_; ++i)
      x.push_back(i < mna.nodeUnknowns() ? proc_.vdd / 2 : 0.0);
  }
  return x;
}

std::optional<core::cache::Digest128> RelaxedDcModel::cacheKey(
    const std::vector<double>& x) const {
  if (x.size() < tmpl_.variables.size()) return std::nullopt;
  circuit::Netlist net;
  try {
    net = tmpl_.build({x.begin(), x.begin() + tmpl_.variables.size()});
  } catch (...) {
    return std::nullopt;  // evaluate() classifies unbuildable candidates
  }
  core::cache::Hasher128 h;
  h.mixString("relaxed-dc");
  h.mixDigest(circuit::canonicalNetlistDigest(net));
  circuit::hashProcess(h, proc_);
  h.mixString(tmpl_.outputNode);
  h.mixDouble(opts_.residualScale);
  h.mix(opts_.aweOrder);
  h.mixDouble(opts_.branchCurrentLimit);
  h.mixDoubles(x);
  return h.digest();
}

Performance RelaxedDcModel::evaluate(const std::vector<double>& x) const {
  Performance perf;
  const std::size_t nt = tmpl_.variables.size();
  const std::vector<double> sizes(x.begin(), x.begin() + nt);
  const num::VecD state(x.begin() + nt, x.end());

  circuit::Netlist net = tmpl_.build(sizes);
  sim::Mna mna(net, proc_);
  if (state.size() != mna.size()) {
    markInfeasible(perf, core::EvalStatus::BadTopology);
    sim::recordEvalFailure(core::EvalStatus::BadTopology);
    return perf;
  }

  // KCL residual penalty (the "dc-free" trick).
  num::VecD f;
  mna.assemble(state, {}, nullptr, &f);
  perf["_dc_residual"] = num::normInf(f) / opts_.residualScale;

  perf["area"] = net.totalGateArea();

  // Power from the supply branch currents in the relaxed state.
  double power = 0.0;
  const auto& devs = net.devices();
  for (std::size_t k = 0; k < devs.size(); ++k)
    if (devs[k].type == circuit::DeviceType::VSource && devs[k].value > 0)
      power += devs[k].value * std::abs(state[mna.branchIndex(k)]);
  perf["power"] = power;

  // Slew estimate: tail current over the compensation cap, read from the
  // (relaxed) operating point — the same proxy the simulation model uses.
  {
    double itail = 0.0, cc = 0.0;
    for (const auto& [name, mop] : mna.mosOperatingPoints(state))
      if (name == "M5") itail = std::abs(mop.ids);
    for (const auto& d : devs)
      if (d.name == "CC") cc = d.value;
    if (itail > 0 && cc > 0) perf["slew"] = itail / cc;
  }

  // Small-signal characteristics from AWE on the Jacobian at this state.
  const auto outNode = net.findNode(tmpl_.outputNode);
  if (!outNode) {
    markInfeasible(perf, core::EvalStatus::BadTopology);
    sim::recordEvalFailure(core::EvalStatus::BadTopology);
    return perf;
  }
  try {
    num::MatrixD g, c;
    num::VecD b;
    mna.acMatrices(state, g, c, b);
    const auto model = awe::aweLinearSystem(g, c, b, mna.nodeIndex(*outNode), opts_.aweOrder);
    const double dcGain = std::abs(model.pr.evaluate({0.0, 0.0}));
    perf["gain_db"] = 20.0 * std::log10(std::max(dcGain, 1e-12));

    // UGF and phase margin from the reduced model on a log grid.
    double ugf = 0.0, phaseAtUgf = 0.0;
    double prevMag = dcGain, prevF = 0.0;
    for (double f10 = 0; f10 <= 10.0; f10 += 0.05) {
      const double freq = std::pow(10.0, f10);
      const std::complex<double> h =
          model.pr.evaluate({0.0, 2.0 * M_PI * freq});
      const double mag = std::abs(h);
      if (prevMag >= 1.0 && mag < 1.0) {
        ugf = prevF > 0 ? std::sqrt(prevF * freq) : freq;
        phaseAtUgf = std::arg(h) * 180.0 / M_PI;
        break;
      }
      prevMag = mag;
      prevF = freq;
    }
    if (ugf > 0.0) {
      perf["ugf"] = ugf;
      perf["pm"] = 180.0 + phaseAtUgf;
    } else {
      markInfeasible(perf, core::EvalStatus::NoAcCrossing);
      sim::recordEvalFailure(core::EvalStatus::NoAcCrossing);
    }
  } catch (const std::exception&) {
    // AWE blew up on this state (singular moment matrix, over-ordered
    // Hankel system): infeasible data with the reason attached.
    markInfeasible(perf, core::EvalStatus::SingularJacobian);
    sim::recordEvalFailure(core::EvalStatus::SingularJacobian);
  }
  return perf;
}

}  // namespace amsyn::sizing
