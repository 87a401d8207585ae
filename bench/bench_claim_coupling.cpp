// Reproduction of the section-3.2 coupling claims: constraint-based channel
// routing with variable separations and shields [54,55], and WREN's
// SNR-driven global routing + constraint mapping [56], exist to keep "noisy
// digital and sensitive analog" wiring apart.  (Segregated channels [53]
// serve the same end but are not reproduced.)
//
// Two experiments:
//  1. channel level — the same pin problem routed (a) plainly, (b) with
//     class separations, (c) with shield insertion: crosstalk adjacency vs
//     channel height;
//  2. chip level — WREN routing a sensitive net against noisy traffic with
//     and without an SNR budget: coupling before/after the constraint
//     mapper's per-channel directives.
#include <benchmark/benchmark.h>

#include <iostream>

#include "core/report.hpp"
#include "layout/system/channel.hpp"
#include "layout/system/wren.hpp"

namespace {
using namespace amsyn;

std::vector<layout::ChannelPin> busProblem() {
  // Three noisy bus bits interleaved with two sensitive analog lines, all
  // spanning most of the channel.
  std::vector<layout::ChannelPin> pins;
  int col = 0;
  for (const std::string net : {"bus0", "sens0", "bus1", "sens1", "bus2"}) {
    pins.push_back({net, col, true});
    pins.push_back({net, col + 20, false});
    col += 2;
  }
  return pins;
}

std::vector<layout::ChannelNetSpec> busSpecs() {
  return {{"bus0", layout::WireClass::Noisy, 1},  {"bus1", layout::WireClass::Noisy, 1},
          {"bus2", layout::WireClass::Noisy, 1},  {"sens0", layout::WireClass::Sensitive, 1},
          {"sens1", layout::WireClass::Sensitive, 1}};
}

void printClaim() {
  std::cout << "=== Claim (sec. 3.2): separations and shields kill digital->analog\n";
  std::cout << "    coupling at a measured track cost (refs [54],[55],[56]) ===\n\n";

  // --- channel-level experiment ---
  core::Table t({"channel strategy", "height (tracks)", "density LB",
                 "crosstalk adjacency (cols)", "shields"});
  {
    layout::ChannelOptions plain;
    plain.classSeparationTracks = 0;
    const auto r = layout::routeChannel(busProblem(), busSpecs(), plain);
    t.addRow({"plain left-edge (digital style)", std::to_string(r.height),
              std::to_string(r.densityLowerBound), std::to_string(r.crosstalkAdjacency),
              "0"});
  }
  {
    layout::ChannelOptions sep;
    sep.classSeparationTracks = 1;
    const auto r = layout::routeChannel(busProblem(), busSpecs(), sep);
    t.addRow({"+ class separation [54]", std::to_string(r.height),
              std::to_string(r.densityLowerBound), std::to_string(r.crosstalkAdjacency),
              "0"});
  }
  {
    layout::ChannelOptions sh;
    sh.classSeparationTracks = 1;
    sh.insertShields = true;
    const auto r = layout::routeChannel(busProblem(), busSpecs(), sh);
    t.addRow({"+ grounded shields [55]", std::to_string(r.height),
              std::to_string(r.densityLowerBound), std::to_string(r.crosstalkAdjacency),
              std::to_string(r.shieldsInserted)});
  }
  t.print(std::cout);

  // --- chip-level WREN experiment ---
  std::cout << "\nWREN global routing with an SNR budget (single shared corridor,\n"
               "worst case for a sensitive net):\n";
  layout::ChannelGraph g;
  g.addNode({0, 0});
  g.addNode({8000, 0});
  g.addEdge(0, 1, 8);
  std::vector<layout::GlobalNet> nets = {
      {"clk", layout::WireClass::Noisy, {{0, 0}, {8000, 0}}, 0.0},
      {"bus", layout::WireClass::Noisy, {{0, 0}, {8000, 0}}, 0.0},
      {"sig", layout::WireClass::Sensitive, {{0, 0}, {8000, 0}}, 2.5},
  };
  const auto r = layout::wrenGlobalRoute(g, nets);
  core::Table w({"quantity", "value"});
  w.addRow({"raw coupling on 'sig'", core::Table::num(r.couplingRaw.at("sig"))});
  w.addRow({"SNR budget", "2.5"});
  w.addRow({"coupling after constraint mapping",
            core::Table::num(r.couplingMitigated.at("sig"))});
  w.addRow({"budget met", r.snrMet.at("sig") ? "yes" : "NO"});
  w.addRow({"channel directives issued", std::to_string(r.directives.size())});
  w.print(std::cout);
  std::cout << "\nreading: raw sharing violates the SNR budget by a wide margin; the\n"
               "WREN-style mapper converts the chip-level budget into per-channel\n"
               "separation/shield directives that the detailed router then honors —\n"
               "the [46]-influenced constraint-mapping glue the paper highlights.\n\n";
}

void BM_ChannelRouting(benchmark::State& state) {
  const auto pins = busProblem();
  const auto specs = busSpecs();
  layout::ChannelOptions opts;
  opts.classSeparationTracks = 1;
  opts.insertShields = true;
  for (auto _ : state) {
    const auto r = layout::routeChannel(pins, specs, opts);
    benchmark::DoNotOptimize(r.height);
  }
}
BENCHMARK(BM_ChannelRouting);

void BM_WrenGlobalRoute(benchmark::State& state) {
  layout::ChannelGraph g;
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 6; ++i) g.addNode({i * 1000, j * 1000});
  auto id = [](int i, int j) { return static_cast<std::size_t>(j * 6 + i); };
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i + 1 < 6; ++i) g.addEdge(id(i, j), id(i + 1, j), 8);
  for (int j = 0; j + 1 < 4; ++j)
    for (int i = 0; i < 6; ++i) g.addEdge(id(i, j), id(i, j + 1), 8);
  std::vector<layout::GlobalNet> nets;
  for (int k = 0; k < 8; ++k)
    nets.push_back({"n" + std::to_string(k),
                    k % 3 == 0 ? layout::WireClass::Noisy
                               : (k % 3 == 1 ? layout::WireClass::Sensitive
                                             : layout::WireClass::Quiet),
                    {{(k % 6) * 1000, 0}, {(5 - k % 6) * 1000, 3000}},
                    k % 3 == 1 ? 2.0 : 0.0});
  for (auto _ : state) {
    const auto r = layout::wrenGlobalRoute(g, nets);
    benchmark::DoNotOptimize(r.anyOverflow);
  }
}
BENCHMARK(BM_WrenGlobalRoute)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  printClaim();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
