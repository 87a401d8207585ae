#include "sizing/simmodel.hpp"

#include <cmath>

#include "circuit/canonical.hpp"
#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/measure.hpp"
#include "sim/noise.hpp"
#include "sim/stats.hpp"

namespace amsyn::sizing {

using core::EvalStatus;

SimulationModel::SimulationModel(CircuitTemplate tmpl, const circuit::Process& proc,
                                 SimModelOptions opts)
    : tmpl_(std::move(tmpl)), proc_(proc), opts_(opts) {}

std::optional<core::cache::Digest128> SimulationModel::cacheKey(
    const std::vector<double>& x) const {
  // An external cancel flag or wall-clock deadline can truncate an
  // evaluation at a wall-clock-dependent point; such payloads are not
  // reproducible, so never cached.
  if (opts_.cancel || opts_.deadlineNs != 0) return std::nullopt;
  circuit::Netlist net;
  try {
    net = tmpl_.build(x);
  } catch (...) {
    // Let evaluate() run and classify the bad-topology failure itself; an
    // unbuildable candidate is not worth a cache entry.
    return std::nullopt;
  }
  core::cache::Hasher128 h;
  h.mixString("sim-model");
  h.mixDigest(circuit::canonicalNetlistDigest(net));
  circuit::hashProcess(h, proc_);
  h.mixString(tmpl_.outputNode);
  h.mixDouble(opts_.fStart).mixDouble(opts_.fStop);
  h.mix(opts_.pointsPerDecade);
  h.mix(opts_.measureNoise ? 1u : 0u);
  h.mixDouble(opts_.noiseSpotFrequency);
  h.mix(opts_.outputMustBeInterior ? 1u : 0u);
  h.mixDouble(opts_.interiorMargin);
  h.mix(opts_.workBudget);
  h.mixDoubles(x);
  return h.digest();
}

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

  // One deterministic work budget funds every analysis of this evaluation
  // (Newton iterations in DC, solves per AC/noise frequency);
  // the job deadline, when armed, rides on the same budget.
  core::EvalBudget budget(opts_.workBudget, opts_.cancel);
  if (opts_.deadlineNs != 0) budget.setDeadlineNs(opts_.deadlineNs);

  try {
    sim::Mna mna(net, proc_);
    sim::DcOptions dopts;
    dopts.budget = &budget;

    // Mid-rail start: feedback-biased benches latch when started from zero.
    const auto op = sim::dcOperatingPoint(mna, sim::flatStart(mna, proc_.vdd / 2), dopts);
    if (!op.converged) {
      markInfeasible(perf, op.status);  // dc already tallied the failure
      return perf;
    }
    if (opts_.outputMustBeInterior) {
      const double vout = mna.nodeVoltage(op.x, *net.findNode(tmpl_.outputNode));
      if (vout < opts_.interiorMargin || vout > proc_.vdd - opts_.interiorMargin) {
        perf["_infeasible"] = 1.0;  // output stuck at a rail (latched bias):
        return perf;                // a bad circuit, not an eval failure
      }
    }

    perf["power"] = sim::staticPower(mna, op);
    perf["area"] = net.totalGateArea();

    const auto freqs = sim::logspace(opts_.fStart, opts_.fStop, opts_.pointsPerDecade);
    const auto sweep = sim::acAnalysis(mna, op, tmpl_.outputNode, freqs, &budget);
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

    if (opts_.measureNoise) {
      const auto nz = sim::noiseAnalysis(mna, op, tmpl_.outputNode,
                                         {opts_.noiseSpotFrequency}, &budget);
      if (nz.status != EvalStatus::Ok) {
        markInfeasible(perf, nz.status);
        return perf;
      }
      perf["noise_nv"] = std::sqrt(nz.points.at(0).inputReferredPsd) * 1e9;
    }

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
