// Ablation studies over amsyn's own design choices (DESIGN.md section 4):
// the quantitative justification for the mechanisms the surveyed tools
// introduced.  Each ablation switches one mechanism off and measures what
// the paper says it buys:
//   1. device stacking [43,45]      -> cell area & wiring
//   2. symmetric-pair placement     -> symmetry error of the diff pair
//   3. OAC-style warm starts [25]   -> evaluations to re-solve nearby specs
//   4. feasibility push (penalty-gap closing) -> spec satisfaction
//   5. RAIL bypass synthesis        -> supply spike with metal-only sizing
#include <benchmark/benchmark.h>

#include <iostream>

#include "core/celllayout.hpp"
#include "layout/cell/modgen.hpp"
#include "core/report.hpp"
#include "power/rail.hpp"
#include "sizing/database.hpp"
#include "sizing/eqmodel.hpp"
#include "sizing/opamp.hpp"
#include "sizing/pulse.hpp"

namespace {
using namespace amsyn;
const circuit::Process& proc() { return circuit::defaultProcess(); }

void ablationStacking() {
  std::cout << "--- ablation 1: device stacking (refs [43],[45]) ---\n";
  const auto net = sizing::buildTwoStageOpamp(sizing::TwoStageParams{}, proc(), {});
  core::CellLayoutOptions on, off;
  on.useStacking = true;
  on.annealPlacement = false;
  off.useStacking = false;
  off.annealPlacement = false;
  const auto rOn = core::layoutCell(net, proc(), on);
  const auto rOff = core::layoutCell(net, proc(), off);
  core::Table t({"stacking", "area (klambda^2)", "wire (lambda)", "devices merged"});
  t.addRow({"on", core::Table::num(rOn.areaLambda2 / 1e3),
            core::Table::num(rOn.wirelengthLambda), std::to_string(rOn.stackedDevices)});
  t.addRow({"off", core::Table::num(rOff.areaLambda2 / 1e3),
            core::Table::num(rOff.wirelengthLambda), std::to_string(rOff.stackedDevices)});
  t.print(std::cout);
  std::cout << "\n";
}

void ablationSymmetry() {
  std::cout << "--- ablation 2: symmetric-pair placement cost term ---\n";
  std::vector<layout::PlacementComponent> comps;
  circuit::MosParams mp{circuit::MosType::Nmos, 20e-6, 2e-6, 1};
  for (int i = 0; i < 2; ++i) {
    layout::PlacementComponent c;
    c.name = i == 0 ? "M1" : "M2";
    c.variants = {layout::generateMos(c.name, mp, i == 0 ? "n1" : "n2",
                                      i == 0 ? "inp" : "inn", "tail", "0", proc())};
    c.symmetryPeer = i == 0 ? "M2" : "M1";
    comps.push_back(std::move(c));
  }
  {
    layout::PlacementComponent c;
    c.name = "M5";
    c.variants = {layout::generateMos("M5", mp, "tail", "nb", "0", "0", proc())};
    comps.push_back(std::move(c));
  }
  core::Table t({"symmetry weight", "symmetry error", "area (klambda^2)"});
  for (double w : {0.0, 2.0, 8.0}) {
    layout::PlacerOptions opts;
    opts.symmetryWeight = w;
    opts.seed = 11;
    const auto p = layout::placeCells(comps, opts);
    t.addRow({core::Table::num(w), core::Table::num(p.symmetryError),
              core::Table::num(static_cast<double>(p.boundingBox.area()) / 1e3)});
  }
  t.print(std::cout);
  std::cout << "\n";
}

void ablationWarmStart() {
  std::cout << "--- ablation 3: OAC-style design-database warm starts [25] ---\n";
  sizing::ComposedOpampModel model(sizing::OpampStructure::legacyTwoStage(), proc(), 5e-12);
  auto specsAt = [](double gain, double ugf) {
    sizing::SpecSet s;
    s.atLeast("gain_db", gain).atLeast("ugf", ugf).atLeast("pm", 55).minimize("power", 0.5,
                                                                              1e-3);
    return s;
  };
  // Cold: each spec solved from scratch.
  std::size_t coldEvals = 0;
  for (double ugf : {3e6, 3.3e6, 3.6e6}) {
    sizing::SynthesisOptions opts;
    opts.seed = 21;
    const auto r = sizing::synthesize(model, specsAt(66, ugf), opts);
    coldEvals += r.evaluations;
  }
  // Warm: database reuse across the sweep.
  sizing::DesignDatabase db;
  std::size_t warmEvals = 0;
  for (double ugf : {3e6, 3.3e6, 3.6e6}) {
    sizing::SynthesisOptions opts;
    opts.seed = 21;
    const auto r =
        sizing::synthesizeWithDatabase(db, model, specsAt(66, ugf), "pt", opts);
    warmEvals += r.evaluations;
  }
  core::Table t({"strategy", "total evaluations (3-point spec sweep)"});
  t.addRow({"cold start each time", std::to_string(coldEvals)});
  t.addRow({"database warm start", std::to_string(warmEvals)});
  t.print(std::cout);
  std::cout << "\n";
}

void ablationFeasibilityPush() {
  std::cout << "--- ablation 4: feasibility push (penalty-gap closing) ---\n";
  sizing::PulseDetectorModel model(proc());
  sizing::SpecSet specs;
  specs.atMost("peaking_us", 1.5)
      .atLeast("counting_khz", 200.0)
      .atMost("noise_e", 1000.0)
      .atLeast("gain_v_fc", 20.0)
      .atMost("gain_v_fc", 23.0)
      .atLeast("range_v", 1.0)
      .minimize("power", 1.0, 1e-3);
  core::Table t({"feasibility push", "feasible", "power (mW)"});
  for (bool push : {false, true}) {
    sizing::SynthesisOptions opts;
    opts.seed = 11;
    opts.feasibilityPush = push;
    const auto r = sizing::synthesize(model, specs, opts);
    t.addRow({push ? "on" : "off", r.feasible ? "yes" : "NO",
              core::Table::num(r.performance.at("power") * 1e3)});
  }
  t.print(std::cout);
  std::cout << "\n";
}

void ablationBypass() {
  std::cout << "--- ablation 5: RAIL bypass-capacitance synthesis ---\n";
  power::PowerGridSpec spec;
  spec.chip = geom::Rect::fromSize(0, 0, 20000, 20000);
  spec.rows = 6;
  spec.cols = 6;
  spec.vdd = 5.0;
  spec.pads = {{{0, 0}, 0.5, 5e-9}, {{20000, 20000}, 0.5, 5e-9}};
  spec.loads = {{"dsp", geom::Rect::fromSize(1000, 1000, 8000, 8000), 60e-3, 300e-3,
                 2e-9, 400e-12, false},
                {"adc", geom::Rect::fromSize(1000, 12000, 5000, 6000), 8e-3, 0.0, 2e-9,
                 200e-12, true}};
  core::Table t({"bypass synthesis", "constraints met", "worst spike (mV)",
                 "added decap (nF)"});
  for (bool bypass : {false, true}) {
    power::PowerGrid grid(spec, proc());
    power::applyUniformWidth(grid, 2e-6);
    const power::RailConstraints cons;
    const auto r = bypass ? power::synthesizePowerGrid(grid, cons, proc())
                          : power::synthesizePowerGrid(grid, cons, proc(), 0.0);  // metal only
    t.addRow({bypass ? "on" : "off", r.constraintsMet ? "yes" : "NO",
              core::Table::num(r.final.worstSpikeVolts * 1e3),
              core::Table::num(r.addedDecapFarads * 1e9)});
  }
  t.print(std::cout);
  std::cout << "\npackage L di/dt sets the spike floor; without bypass synthesis no\n"
               "amount of metal can meet the transient constraint — the reason RAIL\n"
               "treats power distribution as more than a wire-sizing problem.\n\n";
}

void BM_AssembleFullSystem(benchmark::State& state) {
  // End-to-end cell flow as the macro-benchmark.
  const auto net = sizing::buildTwoStageOpamp(sizing::TwoStageParams{}, proc(), {});
  for (auto _ : state) {
    core::CellLayoutOptions opts;
    opts.annealPlacement = false;
    const auto r = core::layoutCell(net, proc(), opts);
    benchmark::DoNotOptimize(r.areaLambda2);
  }
}
BENCHMARK(BM_AssembleFullSystem)->Unit(benchmark::kMillisecond)->Iterations(5);

}  // namespace

int main(int argc, char** argv) {
  std::cout << "=== amsyn design-choice ablations ===\n\n";
  ablationStacking();
  ablationSymmetry();
  ablationWarmStart();
  ablationFeasibilityPush();
  ablationBypass();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
