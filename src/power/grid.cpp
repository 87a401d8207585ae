#include "power/grid.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "awe/awe.hpp"

namespace amsyn::power {

using geom::Coord;
using geom::Point;

PowerGrid::PowerGrid(const PowerGridSpec& spec, const circuit::Process& proc)
    : spec_(spec), proc_(proc) {
  if (spec.rows < 2 || spec.cols < 2)
    throw std::invalid_argument("PowerGrid: need at least a 2x2 mesh");
  if (spec.pads.empty()) throw std::invalid_argument("PowerGrid: no supply pads");

  // Mesh nodes.
  for (int r = 0; r < spec.rows; ++r)
    for (int c = 0; c < spec.cols; ++c) {
      const Coord x =
          spec.chip.x0 + spec.chip.width() * static_cast<Coord>(c) / (spec.cols - 1);
      const Coord y =
          spec.chip.y0 + spec.chip.height() * static_cast<Coord>(r) / (spec.rows - 1);
      nodes_.push_back({x, y});
    }
  auto nodeId = [&](int r, int c) { return static_cast<std::size_t>(r) * spec.cols + c; };

  // Mesh wires (lengths in meters via the process lambda).
  const double quarter = proc.lambda / 4.0;
  for (int r = 0; r < spec.rows; ++r)
    for (int c = 0; c < spec.cols; ++c) {
      if (c + 1 < spec.cols) {
        GridWire w;
        w.a = nodeId(r, c);
        w.b = nodeId(r, c + 1);
        w.lengthMeters = static_cast<double>(nodes_[w.b].x - nodes_[w.a].x) * quarter;
        wires_.push_back(w);
      }
      if (r + 1 < spec.rows) {
        GridWire w;
        w.a = nodeId(r, c);
        w.b = nodeId(r + 1, c);
        w.lengthMeters = static_cast<double>(nodes_[w.b].y - nodes_[w.a].y) * quarter;
        wires_.push_back(w);
      }
    }

  for (const auto& p : spec.pads) padNode_.push_back(nearestNode(p.location));
  for (const auto& l : spec.loads) loadNode_.push_back(nearestNode(l.rect.center()));
  extraDecap_.assign(spec.loads.size(), 0.0);
}

void PowerGrid::addDecap(std::size_t loadIndex, double farads) {
  extraDecap_.at(loadIndex) += farads;
}

double PowerGrid::totalAddedDecap() const {
  double total = 0.0;
  for (double d : extraDecap_) total += d;
  return total;
}

std::size_t PowerGrid::nearestNode(Point p) const {
  std::size_t best = 0;
  Coord bestD = std::numeric_limits<Coord>::max();
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const Coord d = std::abs(nodes_[i].x - p.x) + std::abs(nodes_[i].y - p.y);
    if (d < bestD) {
      bestD = d;
      best = i;
    }
  }
  return best;
}

num::VecD PowerGrid::dcSolve() const {
  const std::size_t n = nodes_.size();
  num::MatrixD g(n, n);
  num::VecD b(n, 0.0);
  for (const auto& w : wires_) {
    const double cond = 1.0 / w.resistance(proc_);
    g(w.a, w.a) += cond;
    g(w.b, w.b) += cond;
    g(w.a, w.b) -= cond;
    g(w.b, w.a) -= cond;
  }
  for (std::size_t p = 0; p < padNode_.size(); ++p) {
    const double cond = 1.0 / std::max(spec_.pads[p].packageR, 1e-6);
    g(padNode_[p], padNode_[p]) += cond;
    b[padNode_[p]] += cond * spec_.vdd;
  }
  for (std::size_t l = 0; l < loadNode_.size(); ++l)
    b[loadNode_[l]] -= spec_.loads[l].avgCurrent;
  return num::solveDense(g, b);
}

void PowerGrid::buildMnaMatrices(num::MatrixD& g, num::MatrixD& c) const {
  // Unknowns: node voltages (small-signal about vdd) + one branch current
  // per pad through the package R + L.
  const std::size_t n = nodes_.size();
  const std::size_t total = n + padNode_.size();
  g = num::MatrixD(total, total);
  c = num::MatrixD(total, total);

  for (const auto& w : wires_) {
    const double cond = 1.0 / w.resistance(proc_);
    g(w.a, w.a) += cond;
    g(w.b, w.b) += cond;
    g(w.a, w.b) -= cond;
    g(w.b, w.a) -= cond;
    // Wire ground capacitance, split between endpoints.
    const double cw = w.lengthMeters * w.widthMeters * proc_.caMetal2 +
                      2.0 * w.lengthMeters * proc_.cfMetal2;
    c(w.a, w.a) += cw / 2.0;
    c(w.b, w.b) += cw / 2.0;
  }
  for (std::size_t l = 0; l < loadNode_.size(); ++l)
    c(loadNode_[l], loadNode_[l]) += spec_.loads[l].decouplingCap + extraDecap_[l];

  for (std::size_t p = 0; p < padNode_.size(); ++p) {
    const std::size_t br = n + p;
    const std::size_t nd = padNode_[p];
    // Branch current i flows supply -> node.  KCL at the node: -i leaves.
    g(nd, br) -= 1.0;
    // Branch equation: -v_node - R i - sL i = 0.
    g(br, nd) -= 1.0;
    g(br, br) -= std::max(spec_.pads[p].packageR, 1e-6);
    c(br, br) -= spec_.pads[p].packageL;
  }
}

GridAnalysis PowerGrid::analyze() const {
  GridAnalysis a;

  // --- DC drop + electromigration ---
  const num::VecD v = dcSolve();
  for (std::size_t l = 0; l < loadNode_.size(); ++l) {
    const double drop = spec_.vdd - v[loadNode_[l]];
    a.worstDcDropVolts = std::max(a.worstDcDropVolts, drop);
    if (spec_.loads[l].analog) a.worstAnalogDcDropVolts = std::max(a.worstAnalogDcDropVolts, drop);
  }
  for (const auto& w : wires_) {
    const double i = std::abs(v[w.a] - v[w.b]) / w.resistance(proc_);
    const double limit = proc_.jMaxMetal * w.widthMeters * proc_.metalThickness;
    a.worstEmStressRatio = std::max(a.worstEmStressRatio, i / std::max(limit, 1e-18));
    a.metalAreaM2 += w.lengthMeters * w.widthMeters;
  }

  // --- transient spikes via AWE ---
  num::MatrixD g, c;
  buildMnaMatrices(g, c);
  for (std::size_t d = 0; d < spec_.loads.size(); ++d) {
    const auto& agg = spec_.loads[d];
    if (agg.peakCurrent <= 0.0) continue;
    num::VecD b(g.rows(), 0.0);
    b[loadNode_[d]] = 1.0;
    // Victims: the aggressor's own node plus every analog node.
    std::vector<std::size_t> victims{loadNode_[d]};
    std::vector<bool> victimAnalog{false};
    for (std::size_t l = 0; l < spec_.loads.size(); ++l)
      if (spec_.loads[l].analog) {
        victims.push_back(loadNode_[l]);
        victimAnalog.push_back(true);
      }
    for (std::size_t k = 0; k < victims.size(); ++k) {
      try {
        const auto model = awe::aweLinearSystem(g, c, b, victims[k], 3);
        // Current-step response bounds the pulse response; sample within
        // and just beyond the spike.
        double worst = 0.0;
        for (double t : {0.5 * agg.spikeDuration, agg.spikeDuration, 2.0 * agg.spikeDuration})
          worst = std::max(worst, std::abs(model.stepResponse(t)) * agg.peakCurrent);
        a.worstSpikeVolts = std::max(a.worstSpikeVolts, worst);
        if (victimAnalog[k]) a.worstAnalogSpikeVolts = std::max(a.worstAnalogSpikeVolts, worst);
      } catch (const std::exception&) {
        // AWE failure on a degenerate configuration: treat as unconstrained
        // worst case so the optimizer reacts.
        a.worstSpikeVolts = std::max(a.worstSpikeVolts, spec_.vdd);
      }
    }
  }
  a.solved = true;
  return a;
}

}  // namespace amsyn::power
