// Reproduction of the paper's **Figure 2**: "KOAN/ANAGRAM II Cell Layouts.
// Six layouts of the identical CMOS opamp are shown.  The two middle layouts
// are automatic, the rest manual.  The automatic layouts compare favorably
// to the manual ones."
//
// We regenerate the experiment: the identical two-stage CMOS opamp is laid
// out six ways — four deterministic "manual-style" variants (row orderings
// with/without stacking/folding, the procedural strategy of ref [32]) and
// two KOAN/ANAGRAM-style automatic runs (annealed placement + maze routing,
// different seeds) — and compared on the quantitative axes a layout
// photograph encodes: area, wirelength, routing completion and diffusion
// merging.  Each layout is also audited by the design-rule checker, which
// reports its spacing and width violations.
#include <benchmark/benchmark.h>

#include <iostream>

#include "core/celllayout.hpp"
#include "core/report.hpp"
#include "layout/cell/drc.hpp"
#include "sizing/opamp.hpp"

namespace {
using namespace amsyn;

circuit::Netlist theOpamp() {
  sizing::TwoStageParams p;  // the identical opamp for all six layouts
  return sizing::buildTwoStageOpamp(p, circuit::defaultProcess(), {});
}

struct LayoutRun {
  std::string name;
  bool automatic = false;
  core::CellLayoutResult result;
};

LayoutRun runLayout(const std::string& name, bool anneal, bool stacking,
                    std::uint64_t seed) {
  core::CellLayoutOptions opts;
  opts.annealPlacement = anneal;
  opts.useStacking = stacking;
  opts.seed = seed;
  LayoutRun run;
  run.name = name;
  run.automatic = anneal;
  run.result = core::layoutCell(theOpamp(), circuit::defaultProcess(), opts);
  return run;
}

void printFigure2() {
  std::cout << "=== Figure 2: six layouts of the identical CMOS opamp ===\n";
  std::cout << "(paper: 4 manual + 2 automatic KOAN/ANAGRAM II; the automatic layouts\n";
  std::cout << " 'compare favorably to the manual ones')\n\n";

  std::vector<LayoutRun> runs;
  runs.push_back(runLayout("manual-1 (row, stacked)", false, true, 1));
  runs.push_back(runLayout("manual-2 (row, flat)", false, false, 1));
  runs.push_back(runLayout("auto-1 (KOAN/ANAGRAM)", true, true, 3));
  runs.push_back(runLayout("auto-2 (KOAN/ANAGRAM)", true, true, 17));
  runs.push_back(runLayout("manual-3 (row, stacked)", false, true, 2));
  runs.push_back(runLayout("manual-4 (row, flat)", false, false, 2));

  core::Table t({"layout", "area (klambda^2)", "wire (lambda)", "routed", "stacked",
                 "DRC spacing/width"});
  double manualArea = 0, autoArea = 0, manualWire = 0, autoWire = 0;
  std::size_t nManual = 0, nAuto = 0;
  for (const auto& r : runs) {
    std::size_t spacing = 0, width = 0;
    for (const auto& v : layout::checkDesignRules(r.result.layout, circuit::defaultProcess()))
      ++(v.kind == layout::DrcViolation::Kind::Spacing ? spacing : width);
    t.addRow({r.name, core::Table::num(r.result.areaLambda2 / 1e3),
              core::Table::num(r.result.wirelengthLambda),
              r.result.routing.allRouted ? "yes" : "NO",
              std::to_string(r.result.stackedDevices),
              std::to_string(spacing) + "/" + std::to_string(width)});
    if (r.automatic) {
      autoArea += r.result.areaLambda2;
      autoWire += r.result.wirelengthLambda;
      ++nAuto;
    } else {
      manualArea += r.result.areaLambda2;
      manualWire += r.result.wirelengthLambda;
      ++nManual;
    }
  }
  t.print(std::cout);

  std::cout << "\nautomatic / manual area ratio: "
            << core::Table::num(autoArea / nAuto / (manualArea / nManual))
            << "   wire ratio: "
            << core::Table::num(autoWire / nAuto / (manualWire / nManual)) << "\n";
  std::cout << "(a ratio near or below 1 reproduces the paper's 'compare favorably')\n\n";
}

void BM_KoanPlacement(benchmark::State& state) {
  const auto net = theOpamp();
  std::uint64_t seed = 1;
  for (auto _ : state) {
    core::CellLayoutOptions opts;
    opts.annealPlacement = true;
    opts.seed = seed++;
    const auto r = core::layoutCell(net, circuit::defaultProcess(), opts);
    benchmark::DoNotOptimize(r.areaLambda2);
  }
}
BENCHMARK(BM_KoanPlacement)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_RowLayoutAndRoute(benchmark::State& state) {
  const auto net = theOpamp();
  for (auto _ : state) {
    core::CellLayoutOptions opts;
    opts.annealPlacement = false;
    const auto r = core::layoutCell(net, circuit::defaultProcess(), opts);
    benchmark::DoNotOptimize(r.areaLambda2);
  }
}
BENCHMARK(BM_RowLayoutAndRoute)->Unit(benchmark::kMillisecond)->Iterations(5);

}  // namespace

int main(int argc, char** argv) {
  printFigure2();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
