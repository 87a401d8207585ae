// Procedural device-level module generators (the paper's earliest cell-
// layout strategy, ref [32], and the primitive supplier for every macrocell
// tool after it: KOAN deliberately kept "a very small library of device
// generators" and moved optimization into the placer).
//
// All geometry is produced on the quarter-lambda integer grid
// (1 Coord = lambda/4).  The local origin is the lower-left corner of the
// generated master.
#pragma once

#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/process.hpp"
#include "geom/layout.hpp"

namespace amsyn::layout {

/// Quarter-lambda per lambda.
inline constexpr geom::Coord kQuarter = 4;

/// Convert meters to quarter-lambda grid units for a given process.
geom::Coord toGrid(double meters, const circuit::Process& proc);

/// Generate one MOS device master folded into `fingers` gates (KOAN's
/// dynamic fold move re-generates), with a bulk tie strip below it.  Net
/// names are attached to the pins so the placer and router can work from
/// the master alone.  Terminals: drain, gate, source, bulk net names.
geom::CellMaster generateMos(const std::string& name, const circuit::MosParams& mos,
                             const std::string& drainNet, const std::string& gateNet,
                             const std::string& sourceNet, const std::string& bulkNet,
                             const circuit::Process& proc, int fingers = 1);

/// Generate a merged diffusion stack: devices[i] and devices[i+1] share a
/// diffusion region carrying `sharedNet[i]`.  All devices must be the same
/// type and (near-)equal width — the stack extractor guarantees this.
struct StackedDevice {
  std::string name;
  circuit::MosParams mos;
  std::string leftNet;   ///< diffusion net on the left of the gate
  std::string gateNet;
  std::string rightNet;  ///< diffusion net on the right
  std::string bulkNet;
};
geom::CellMaster generateMosStack(const std::string& name,
                                  const std::vector<StackedDevice>& devices,
                                  const circuit::Process& proc);

/// Poly serpentine resistor sized from the process sheet resistance.
geom::CellMaster generateResistor(const std::string& name, double ohms,
                                  const std::string& netA, const std::string& netB,
                                  const circuit::Process& proc);

/// Metal1/metal2 parallel-plate capacitor.
geom::CellMaster generateCapacitor(const std::string& name, double farads,
                                   const std::string& netTop, const std::string& netBottom,
                                   const circuit::Process& proc);

}  // namespace amsyn::layout
