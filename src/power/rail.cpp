#include "power/rail.hpp"

#include <algorithm>
#include <numeric>
#include <cmath>

namespace amsyn::power {

bool meets(const GridAnalysis& a, const RailConstraints& c) {
  return a.worstDcDropVolts <= c.maxDcDropVolts && a.worstSpikeVolts <= c.maxSpikeVolts &&
         a.worstAnalogSpikeVolts <= c.maxAnalogSpikeVolts &&
         a.worstEmStressRatio <= c.maxEmStress;
}

void applyUniformWidth(PowerGrid& grid, double widthMeters) {
  for (auto& w : grid.wires()) w.widthMeters = widthMeters;
}

namespace {

constexpr double kWidenFactor = 1.35;
constexpr double kMinWidth = 1e-6;
constexpr double kMaxWidth = 250e-6;  ///< power trunks of hundreds of um are normal
constexpr std::size_t kMaxIterations = 48;
/// Spike mitigation: each spike-violating round adds this factor's excess
/// over 1 of a load's own decoupling capacitance, times the round number.
constexpr double kDecapBoostFactor = 1.7;

/// Per-wire DC current magnitudes at the present widths.
std::vector<double> wireCurrents(const PowerGrid& grid, const circuit::Process& proc) {
  const num::VecD v = grid.dcSolve();
  std::vector<double> out;
  out.reserve(grid.wires().size());
  for (const auto& w : grid.wires())
    out.push_back(std::abs(v[w.a] - v[w.b]) / w.resistance(proc));
  return out;
}

}  // namespace

RailResult synthesizePowerGrid(PowerGrid& grid, const RailConstraints& constraints,
                               const circuit::Process& proc, double maxDecapPerBlock) {
  RailResult result;
  result.initial = grid.analyze();

  GridAnalysis current = result.initial;
  for (std::size_t it = 0; it < kMaxIterations && !meets(current, constraints); ++it) {
    ++result.iterations;
    const auto currents = wireCurrents(grid, proc);

    if (current.worstEmStressRatio > constraints.maxEmStress) {
      // Widen every over-stressed wire directly to its compliant width.
      for (std::size_t i = 0; i < grid.wires().size(); ++i) {
        auto& w = grid.wires()[i];
        const double limit = proc.jMaxMetal * w.widthMeters * proc.metalThickness;
        if (currents[i] > 0.8 * limit) {
          const double needed = currents[i] / (proc.jMaxMetal * proc.metalThickness) * 1.25;
          w.widthMeters = std::clamp(std::max(needed, w.widthMeters * kWidenFactor),
                                     kMinWidth, kMaxWidth);
        }
      }
    } else if (current.worstSpikeVolts > constraints.maxSpikeVolts ||
               current.worstAnalogSpikeVolts > constraints.maxAnalogSpikeVolts) {
      // Spikes are dominated by package L di/dt: synthesize bypass
      // capacitance at the switching aggressors (and at analog victims when
      // the coupled spike is the violation).
      const bool analogViolated =
          current.worstAnalogSpikeVolts > constraints.maxAnalogSpikeVolts;
      const double decapBudget =
          maxDecapPerBlock * static_cast<double>(grid.spec().loads.size());
      for (std::size_t l = 0; l < grid.spec().loads.size(); ++l) {
        const auto& load = grid.spec().loads[l];
        const bool aggressor = load.peakCurrent > 0.0;
        const bool victim = analogViolated && load.analog;
        if (!aggressor && !victim) continue;
        if (grid.totalAddedDecap() >= decapBudget) break;
        grid.addDecap(l, load.decouplingCap * (kDecapBoostFactor - 1.0) * (it + 1.0));
      }
    } else {
      // IR drop / spike: widen the wires carrying the most current (they
      // dominate the resistive path from pad to victim).
      std::vector<std::size_t> idx(grid.wires().size());
      std::iota(idx.begin(), idx.end(), std::size_t{0});
      std::sort(idx.begin(), idx.end(),
                [&](std::size_t a, std::size_t b) { return currents[a] > currents[b]; });
      const std::size_t top = std::max<std::size_t>(1, idx.size() / 4);
      for (std::size_t k = 0; k < top; ++k) {
        auto& w = grid.wires()[idx[k]];
        w.widthMeters =
            std::clamp(w.widthMeters * kWidenFactor, kMinWidth, kMaxWidth);
      }
    }
    current = grid.analyze();
  }

  // Area-recovery pass: narrow lightly-loaded wires while constraints hold.
  if (meets(current, constraints)) {
    const auto currents = wireCurrents(grid, proc);
    std::vector<std::size_t> idx(grid.wires().size());
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    std::sort(idx.begin(), idx.end(),
              [&](std::size_t a, std::size_t b) { return currents[a] < currents[b]; });
    for (std::size_t k : idx) {
      auto& w = grid.wires()[k];
      const double saved = w.widthMeters;
      w.widthMeters = std::max(kMinWidth, w.widthMeters / kWidenFactor);
      if (w.widthMeters == saved) continue;
      if (!meets(grid.analyze(), constraints)) w.widthMeters = saved;  // revert
    }
    current = grid.analyze();
  }

  result.final = current;
  result.constraintsMet = meets(current, constraints);
  result.addedDecapFarads = grid.totalAddedDecap();
  for (const auto& w : grid.wires()) result.widths.push_back(w.widthMeters);
  return result;
}

}  // namespace amsyn::power
