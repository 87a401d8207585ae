// System assembly (section 3.2 of the paper): floorplan a mixed-signal chip
// with the WRIGHT substrate-aware annealer, globally route its signals with
// WREN under SNR constraints, and synthesize the power grid with RAIL.  It
// exits 0 only when the floorplan is overlap-free, every signal routes, the
// sensitive signal meets its SNR budget and the grid meets every constraint.
//
// Build & run:  cmake --build build && ./build/examples/mixed_signal_chip
#include <algorithm>
#include <iostream>

#include "core/report.hpp"
#include "layout/system/floorplan.hpp"
#include "layout/system/wren.hpp"
#include "power/rail.hpp"

int main() {
  using namespace amsyn;
  const auto& proc = circuit::defaultProcess();

  // --- the chip: a data-channel-like mix of digital and analog blocks ---
  std::vector<layout::Block> blocks = {
      {"dsp", 8000, 6000, 10.0, 0.0},   // digital signal processor (noisy)
      {"ctrl", 5000, 4000, 6.0, 0.0},   // digital control (noisy)
      {"adc", 4000, 4000, 0.0, 8.0},    // analog front-end (sensitive)
      {"vco", 3000, 3000, 0.0, 5.0},    // timing recovery VCO (sensitive)
      {"rom", 4000, 3000, 0.0, 0.0},
  };
  std::vector<layout::BlockNet> nets = {
      {"bus", {"dsp", "ctrl", "rom"}},
      {"sample", {"adc", "dsp"}},
      {"clk", {"vco", "dsp", "ctrl"}},
  };

  // --- WRIGHT floorplan: substrate noise in the cost ---
  layout::FloorplanOptions fpOpts;
  fpOpts.noiseWeight = 4.0;
  fpOpts.seed = 5;
  const auto fp = layout::wrightFloorplan(blocks, nets, fpOpts);
  std::cout << "floorplan: " << fp.chipBox.width() / 4 << " x " << fp.chipBox.height() / 4
            << " lambda, substrate-noise figure " << fp.substrateNoise
            << (fp.overlapFree ? " (legal)" : " (OVERLAPS!)") << "\n";
  for (const auto& b : fp.blocks)
    std::cout << "  " << b.name << " at (" << b.rect.x0 / 4 << ", " << b.rect.y0 / 4
              << ") lambda\n";

  // --- WREN global routing with an SNR budget on the sensitive signal ---
  const auto graph = layout::channelGraphFromFloorplan(fp);
  std::vector<layout::GlobalNet> gnets = {
      {"clk", layout::WireClass::Noisy,
       {fp.block("vco").rect.center(), fp.block("dsp").rect.center(),
        fp.block("ctrl").rect.center()}, 0.0},
      {"sample", layout::WireClass::Sensitive,
       {fp.block("adc").rect.center(), fp.block("dsp").rect.center()}, 2.0},
  };
  const auto routed = layout::wrenGlobalRoute(graph, gnets);
  std::cout << "\nWREN: channel graph " << graph.nodes.size() << " junctions / "
            << graph.edges.size() << " channels\n";
  std::cout << "  sample net coupling: raw " << routed.couplingRaw.at("sample")
            << ", after constraint mapping " << routed.couplingMitigated.at("sample")
            << " (budget 2.0, " << (routed.snrMet.at("sample") ? "met" : "VIOLATED")
            << ")\n";
  std::cout << "  channel directives issued: " << routed.directives.size() << "\n";

  // --- RAIL power grid over the same floorplan ---
  power::PowerGridSpec spec;
  spec.chip = fp.chipBox;
  spec.rows = 6;
  spec.cols = 6;
  spec.vdd = proc.vdd;
  spec.pads = {{{fp.chipBox.x0, fp.chipBox.y0}, 0.5, 5e-9},
               {{fp.chipBox.x1, fp.chipBox.y1}, 0.5, 5e-9}};
  for (const auto& b : blocks) {
    power::BlockLoad load;
    load.name = b.name;
    load.rect = fp.block(b.name).rect;
    load.avgCurrent = b.isDigital() ? 40e-3 : 6e-3;
    load.peakCurrent = b.isDigital() ? 200e-3 : 0.0;
    load.decouplingCap = 200e-12;
    load.analog = b.isAnalog();
    spec.loads.push_back(load);
  }
  power::PowerGrid grid(spec, proc);
  power::applyUniformWidth(grid, 2e-6);
  power::RailConstraints cons;
  const auto rail = power::synthesizePowerGrid(grid, cons, proc);

  core::Table t({"grid metric", "constraint", "before", "after RAIL"});
  t.addRow({"worst IR drop (mV)", "<= 150", core::Table::num(rail.initial.worstDcDropVolts * 1e3),
            core::Table::num(rail.final.worstDcDropVolts * 1e3)});
  t.addRow({"worst spike (mV)", "<= 300", core::Table::num(rail.initial.worstSpikeVolts * 1e3),
            core::Table::num(rail.final.worstSpikeVolts * 1e3)});
  t.addRow({"analog spike (mV)", "<= 100",
            core::Table::num(rail.initial.worstAnalogSpikeVolts * 1e3),
            core::Table::num(rail.final.worstAnalogSpikeVolts * 1e3)});
  t.addRow({"EM stress (x limit)", "<= 1", core::Table::num(rail.initial.worstEmStressRatio),
            core::Table::num(rail.final.worstEmStressRatio)});
  t.addRow({"metal area (mm^2)", "-", core::Table::num(rail.initial.metalAreaM2 * 1e6),
            core::Table::num(rail.final.metalAreaM2 * 1e6)});
  std::cout << "\n";
  t.print(std::cout);
  std::cout << "\nRAIL " << (rail.constraintsMet ? "met every constraint" : "FAILED")
            << " in " << rail.iterations << " iterations; synthesized bypass capacitance "
            << rail.addedDecapFarads * 1e9 << " nF\n";
  const bool allRouted = std::all_of(routed.routed.begin(), routed.routed.end(),
                                     [](const auto& net) { return net.second; });
  const bool ok =
      fp.overlapFree && allRouted && routed.snrMet.at("sample") && rail.constraintsMet;
  return ok ? 0 : 1;
}
