#include "sizing/simmodel.hpp"

#include <cmath>

#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/measure.hpp"
#include "sim/noise.hpp"
#include "sim/stats.hpp"

namespace amsyn::sizing {

using core::EvalStatus;

namespace {
constexpr double kNoiseSpotFrequency = 1e4;  ///< Hz for the "noise_nv" spot value
/// Declare the design infeasible when the DC output sits at a supply rail
/// (the latched solution of a feedback-biased open-loop bench).
constexpr double kInteriorMargin = 0.15;  ///< volts from either rail
}  // namespace

SimulationModel::SimulationModel(CircuitTemplate tmpl, const circuit::Process& proc)
    : tmpl_(std::move(tmpl)), proc_(proc) {}

Performance SimulationModel::evaluate(const std::vector<double>& x) const {
  ++evals_;
  Performance perf;

  // A candidate that cannot even be built into a netlist is bad topology,
  // distinct from a numerical failure downstream.
  circuit::Netlist net;
  try {
    net = tmpl_.build(x);
  } catch (...) {
    markInfeasible(perf, EvalStatus::BadTopology);
    sim::recordEvalFailure(EvalStatus::BadTopology);
    return perf;
  }

  try {
    sim::Mna mna(net, proc_);

    // Mid-rail start: feedback-biased benches latch when started from zero.
    const auto op = sim::dcOperatingPoint(mna, sim::flatStart(mna, proc_.vdd / 2));
    if (!op.converged) {
      markInfeasible(perf, op.status);  // dc already tallied the failure
      return perf;
    }
    const double vout = mna.nodeVoltage(op.x, *net.findNode(tmpl_.outputNode));
    if (vout < kInteriorMargin || vout > proc_.vdd - kInteriorMargin) {
      perf["_infeasible"] = 1.0;  // output stuck at a rail (latched bias):
      return perf;                // a bad circuit, not an eval failure
    }

    perf["power"] = sim::staticPower(mna, op);
    perf["area"] = net.totalGateArea();

    const auto sweep = sim::acAnalysis(mna, op, tmpl_.outputNode, sim::amplifierSweep());
    if (sweep.status != EvalStatus::Ok) {
      markInfeasible(perf, sweep.status);
      return perf;
    }
    perf["gain_db"] = sim::dcGainDb(sweep);
    const auto ugf = sim::unityGainFrequency(sweep);
    const auto pm = sim::phaseMarginDeg(sweep);
    if (!ugf || !pm) {
      markInfeasible(perf, EvalStatus::NoAcCrossing);
      sim::recordEvalFailure(EvalStatus::NoAcCrossing);
      return perf;
    }
    perf["ugf"] = *ugf;
    perf["pm"] = *pm;

    // Output swing estimated from the output-stage overdrives: the stage is
    // linear while its devices remain saturated.
    double swingLo = 0.0, swingHi = proc_.vdd;
    const auto ops = mna.mosOperatingPoints(op.x);
    for (const auto& [name, mop] : ops) {
      if (name == "M6") swingHi = proc_.vdd - std::max(0.0, mop.vov);
      if (name == "M7") swingLo = std::max(0.0, mop.vov);
      if (name == "M4") swingHi = std::min(swingHi, proc_.vdd - std::max(0.0, mop.vov));
    }
    perf["swing"] = std::max(0.0, swingHi - swingLo);

    const auto nz = sim::noiseAnalysis(mna, op, tmpl_.outputNode, {kNoiseSpotFrequency});
    if (nz.status != EvalStatus::Ok) {
      markInfeasible(perf, nz.status);
      return perf;
    }
    perf["noise_nv"] = std::sqrt(nz.points.at(0).inputReferredPsd) * 1e9;

    // Slew rate: the classic tail-current estimate I(tail) / Cc from the
    // operating point, when the template exposes them.
    double itail = 0.0, cc = 0.0;
    for (const auto& [name, mop] : ops)
      if (name == "M5") itail = std::abs(mop.ids);
    for (const auto& d : net.devices())
      if (d.name == "CC") cc = d.value;
    if (itail > 0 && cc > 0) perf["slew"] = itail / cc;
  } catch (...) {
    // Anything the analyses threw (bad node names from a malformed template,
    // allocation failure, ...) is contained at this boundary; bad_alloc is
    // classified apart so OOM is never misfiled as an internal error.
    const EvalStatus st = core::classifyCurrentException();
    markInfeasible(perf, st);
    sim::recordEvalFailure(st);
  }

  return perf;
}

CircuitTemplate twoStageTemplate(const circuit::Process& proc, const OpampTestbench& tb) {
  CircuitTemplate t;
  t.variables = {
      {"w1", proc.minW, 800e-6, true},
      {"w3", proc.minW, 400e-6, true},
      {"w5", proc.minW, 400e-6, true},
      {"w6", proc.minW, 1600e-6, true},
      {"w7", proc.minW, 800e-6, true},
      {"cc", 0.2e-12, 2e-11, true},
      {"ibias", 2e-6, 200e-6, true},
  };
  t.outputNode = "out";
  t.build = [&proc, tb](const std::vector<double>& x) {
    TwoStageParams p;
    p.w1 = x[0];
    p.w3 = x[1];
    p.w5 = x[2];
    p.w6 = x[3];
    p.w7 = x[4];
    p.cc = x[5];
    p.ibias = x[6];
    p.w8 = p.w5 / 4.0;  // mirror ratio 4: tail carries 4x the reference
    p.l = 2e-6;
    return buildTwoStageOpamp(p, proc, tb);
  };
  return t;
}

}  // namespace amsyn::sizing
