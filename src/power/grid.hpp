// Mixed-signal power-grid electrical modeling — the analysis half of RAIL
// (Stanisic, Verghese, Rutenbar, Carley & Allstot [58,60]).  The grid,
// package parasitics and block loads become one linear network; RAIL's key
// idea is evaluating that entire network *during layout* with AWE [61]
// instead of full simulation, fast enough to sit inside a synthesis loop.
//
// The model: a rows x cols mesh of metal wires over the chip; supply pads
// connect through a package branch (R + L); each functional block draws a
// DC current, switching (digital) blocks add triangular current spikes, and
// every block contributes decoupling capacitance at its nearest grid node.
#pragma once

#include <string>
#include <vector>

#include "circuit/process.hpp"
#include "geom/rect.hpp"
#include "numeric/matrix.hpp"

namespace amsyn::power {

struct BlockLoad {
  std::string name;
  geom::Rect rect;            ///< placement (quarter-lambda units)
  double avgCurrent = 0.0;    ///< DC draw (A)
  double peakCurrent = 0.0;   ///< switching spike amplitude (A), digital only
  double spikeDuration = 2e-9;///< spike width (s)
  double decouplingCap = 50e-12;
  bool analog = false;        ///< sensitive supply consumer
};

struct PowerPad {
  geom::Point location;
  double packageR = 0.5;     ///< ohms
  double packageL = 5e-9;    ///< henries
};

struct PowerGridSpec {
  geom::Rect chip;
  int rows = 5;
  int cols = 5;
  std::vector<PowerPad> pads;
  std::vector<BlockLoad> loads;
  double vdd = 5.0;
};

/// One mesh segment with its assigned width.
struct GridWire {
  std::size_t a = 0, b = 0;   ///< node indices
  double lengthMeters = 0.0;
  double widthMeters = 2e-6;

  double resistance(const circuit::Process& proc) const {
    return proc.rsMetal2 * lengthMeters / widthMeters;
  }
};

/// Analysis results against the constraints RAIL manages.
struct GridAnalysis {
  double worstDcDropVolts = 0.0;        ///< max IR drop at any node
  double worstAnalogDcDropVolts = 0.0;  ///< max at analog blocks only
  double worstSpikeVolts = 0.0;         ///< worst transient dip (AWE estimate)
  double worstAnalogSpikeVolts = 0.0;   ///< spike coupled into analog nodes
  double worstEmStressRatio = 0.0;      ///< max (current density / limit)
  double metalAreaM2 = 0.0;             ///< total wire metal area
  bool solved = false;
};

/// Discretized grid: nodes, wires, load/pad attachment.
class PowerGrid {
 public:
  PowerGrid(const PowerGridSpec& spec, const circuit::Process& proc);

  std::size_t nodeCount() const { return nodes_.size(); }
  const std::vector<GridWire>& wires() const { return wires_; }
  std::vector<GridWire>& wires() { return wires_; }
  const PowerGridSpec& spec() const { return spec_; }

  /// Add synthesized bypass capacitance at a block's supply node (RAIL
  /// places decoupling when metal alone cannot tame L di/dt spikes).
  void addDecap(std::size_t loadIndex, double farads);
  double totalAddedDecap() const;

  /// Node a block/pad attaches to.
  std::size_t nearestNode(geom::Point p) const;

  /// DC solve: node voltages under average currents (pads ideal at vdd
  /// behind their package resistance).
  num::VecD dcSolve() const;

  /// Full analysis: DC drop, AWE transient spike, electromigration stress.
  GridAnalysis analyze() const;

 private:
  void buildMnaMatrices(num::MatrixD& g, num::MatrixD& c) const;

  PowerGridSpec spec_;
  const circuit::Process& proc_;
  std::vector<geom::Point> nodes_;
  std::vector<GridWire> wires_;
  std::vector<std::size_t> padNode_;   // per pad
  std::vector<std::size_t> loadNode_;  // per load
  std::vector<double> extraDecap_;     // per load, synthesized bypass
};

}  // namespace amsyn::power
