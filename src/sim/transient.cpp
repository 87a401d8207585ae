#include "sim/transient.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "core/metrics.hpp"
#include "core/trace.hpp"
#include "sim/fault.hpp"
#include "sim/stats.hpp"

namespace amsyn::sim {

using circuit::Device;
using circuit::DeviceType;
using circuit::MosOp;
using circuit::NodeId;

namespace {

/// Update the companion-state map from a freshly accepted solution.
/// Keys: (deviceIndex << 3) | slot, slots: 0-4 MOS caps, 6 inductor, 7 cap.
void refreshCompanions(const Mna& mna, const num::VecD& x, double /*h*/, bool trapezoidal,
                       const std::map<std::size_t, CompanionState>& prev, double hUsed,
                       std::map<std::size_t, CompanionState>& out) {
  const auto& devs = mna.netlist().devices();
  auto v = [&](NodeId nd) { return mna.nodeVoltage(x, nd); };

  for (std::size_t k = 0; k < devs.size(); ++k) {
    const Device& d = devs[k];
    switch (d.type) {
      case DeviceType::Capacitor: {
        const std::size_t key = (k << 3) | 7;
        const double vNow = v(d.nodes[0]) - v(d.nodes[1]);
        double iNow = 0.0;
        if (auto it = prev.find(key); it != prev.end()) {
          const CompanionState& st = it->second;
          iNow = trapezoidal ? 2.0 * d.value / hUsed * (vNow - st.prevV) - st.prevI
                             : d.value / hUsed * (vNow - st.prevV);
        }
        out[key] = CompanionState{vNow, iNow};
        break;
      }
      case DeviceType::Inductor: {
        const std::size_t key = (k << 3) | 6;
        const std::size_t br = mna.branchIndex(k);
        const double iNow = x[br];
        const double vNow = v(d.nodes[0]) - v(d.nodes[1]);
        // prevV stores current, prevI stores voltage (see mna.cpp).
        out[key] = CompanionState{iNow, vNow};
        break;
      }
      case DeviceType::Mos: {
        const MosOp op = circuit::evalMos(d.mos, mna.process(), v(d.nodes[0]), v(d.nodes[1]),
                                          v(d.nodes[2]), v(d.nodes[3]));
        const struct {
          NodeId a, b;
          double cap;
          std::size_t slot;
        } caps[5] = {{d.nodes[1], d.nodes[2], op.cgs, 0},
                     {d.nodes[1], d.nodes[0], op.cgd, 1},
                     {d.nodes[1], d.nodes[3], op.cgb, 2},
                     {d.nodes[0], d.nodes[3], op.cdb, 3},
                     {d.nodes[2], d.nodes[3], op.csb, 4}};
        for (const auto& cc : caps) {
          const std::size_t key = (k << 3) | cc.slot;
          const double vNow = v(cc.a) - v(cc.b);
          double iNow = 0.0;
          if (auto it = prev.find(key); it != prev.end()) {
            const CompanionState& st = it->second;
            iNow = trapezoidal ? 2.0 * cc.cap / hUsed * (vNow - st.prevV) - st.prevI
                               : cc.cap / hUsed * (vNow - st.prevV);
          }
          out[key] = CompanionState{vNow, iNow};
        }
        break;
      }
      default:
        break;
    }
  }
}

/// LU factorization cache keyed on the Jacobian's values.  Linear circuits
/// (and quasi-linear stretches of nonlinear ones) assemble the identical
/// Jacobian at every Newton iteration and every timestep of a fixed-h
/// sweep: the companion conductances depend only on (h, integration
/// method), so only the RHS moves.  Re-factoring is then pure waste — an
/// O(n^2) value comparison replaces the O(n^3) factorization.
struct JacobianCache {
  num::MatrixD values;  ///< the matrix behind `lu`
  std::optional<num::LUD> lu;
};

/// How one timestep's Newton iteration ended.  Failed (singular or NaN)
/// steps feed the step-halving retry loop; Budget aborts the whole sweep.
enum class StepOutcome { Converged, Failed, Budget };

bool allFinite(const num::VecD& v) {
  for (double e : v)
    if (!std::isfinite(e)) return false;
  return true;
}

StepOutcome newtonStep(const Mna& mna, num::VecD& x, const AssemblyOptions& aopt,
                       const TransientOptions& opts, JacobianCache& cache) {
  const std::size_t n = mna.size();
  num::VecD f(n);
  for (std::size_t it = 0; it < opts.maxNewton; ++it) {
    if (!consumeWork(opts.budget)) return StepOutcome::Budget;

    num::MatrixD jac(n, n);
    mna.assemble(x, aopt, &jac, &f);
    // A poisoned iterate never recovers; bail to the halving loop now
    // instead of burning the remaining maxNewton iterations on NaNs.
    if (!allFinite(f)) return StepOutcome::Failed;
    if (cache.lu && cache.values.data() == jac.data()) {
      recordLuReuse();
    } else {
      try {
        if (FaultInjector::threadLocal().takeLuFailure())
          throw std::runtime_error("injected singular LU");
        cache.values = jac;
        cache.lu.emplace(std::move(jac));
      } catch (const std::runtime_error&) {
        cache.lu.reset();
        return StepOutcome::Failed;
      }
      recordLuFactorization();
    }
    const num::VecD dx = cache.lu->solve(f);
    if (!allFinite(dx)) return StepOutcome::Failed;
    double maxDx = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double step = std::clamp(-dx[i], -1.0, 1.0);
      x[i] += step;
      maxDx = std::max(maxDx, std::abs(step));
    }
    if (maxDx < opts.vAbsTol) {
      mna.assemble(x, aopt, nullptr, &f);
      const double r = num::normInf(f);
      if (!std::isfinite(r)) return StepOutcome::Failed;
      if (r < opts.absTol) return StepOutcome::Converged;
    }
  }
  return StepOutcome::Failed;
}

}  // namespace

TransientResult transientAnalysis(const Mna& mna, const DcResult& op,
                                  const TransientOptions& opts) {
  AMSYN_SPAN("transient");
  static const auto cSolves =
      core::metrics::registry().counter("sim.tran_solves");
  core::metrics::add(cSolves);
  TransientResult res;
  if (!op.converged) {
    // A bad starting bias is infeasible data, not a programming error: the
    // optimizer sees an empty, incomplete waveform with the reason attached.
    res.status = op.status == core::EvalStatus::Ok ? core::EvalStatus::DcNoConvergence
                                                   : op.status;
    recordEvalFailure(res.status);
    return res;
  }
  res.time.push_back(0.0);
  res.states.push_back(op.x);

  std::map<std::size_t, CompanionState> companions;
  // Seed companion states from the DC solution (zero element currents).
  refreshCompanions(mna, op.x, opts.tStep, false, {}, opts.tStep, companions);

  double t = 0.0;
  num::VecD x = op.x;
  bool firstStep = true;
  JacobianCache jacCache;  // persists across timesteps: fixed-h sweeps of
                           // linear circuits factor once, then only solve

  while (t < opts.tStop - 1e-18) {
    double h = std::min(opts.tStep, opts.tStop - t);
    bool accepted = false;
    for (std::size_t attempt = 0; attempt <= opts.maxHalvings; ++attempt) {
      AssemblyOptions aopt;
      aopt.time = t + h;
      aopt.timestep = h;
      aopt.trapezoidal = opts.trapezoidal && !firstStep;
      aopt.gmin = 1e-12;
      aopt.companions = &companions;

      num::VecD xTry = x;
      const StepOutcome out = newtonStep(mna, xTry, aopt, opts, jacCache);
      if (out == StepOutcome::Budget) {
        res.completed = false;
        res.status = budgetStopStatus(opts.budget);
        recordEvalFailure(res.status);
        return res;  // partial waveform up to the last accepted point
      }
      if (out == StepOutcome::Converged) {
        std::map<std::size_t, CompanionState> next;
        refreshCompanions(mna, xTry, h, aopt.trapezoidal, companions, h, next);
        companions = std::move(next);
        x = std::move(xTry);
        t += h;
        res.time.push_back(t);
        res.states.push_back(x);
        static const auto cSteps =
            core::metrics::registry().counter("sim.tran_steps");
        core::metrics::add(cSteps);
        accepted = true;
        firstStep = false;
        break;
      }
      h *= 0.5;  // halve and retry
    }
    if (!accepted) {
      res.completed = false;
      res.status = core::EvalStatus::DcNoConvergence;
      recordEvalFailure(res.status);
      return res;  // give up; caller sees partial waveform
    }
  }
  res.completed = true;
  res.status = core::EvalStatus::Ok;
  return res;
}

std::vector<double> TransientResult::nodeWaveform(const Mna& mna,
                                                  const std::string& node) const {
  const auto id = mna.netlist().findNode(node);
  if (!id) throw std::invalid_argument("nodeWaveform: unknown node " + node);
  std::vector<double> out;
  out.reserve(states.size());
  for (const auto& x : states) out.push_back(mna.nodeVoltage(x, *id));
  return out;
}

}  // namespace amsyn::sim
