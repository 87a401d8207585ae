// DARWIN-style genetic topology + sizing search (Kruiskamp & Leenaerts,
// DAC 1995 — the paper's ref [28]): each individual carries a topology gene
// plus a normalized sizing chromosome; selection, crossover and mutation act
// on both, so the population migrates toward the topology whose sized
// instances fit the specs best.
#pragma once

#include <cstdint>

#include "sizing/cost.hpp"
#include "topology/library.hpp"

namespace amsyn::topology {

struct GeneticOptions {
  std::size_t populationSize = 40;
  std::size_t generations = 60;
  std::uint64_t seed = 1;
};

struct GeneticResult {
  bool feasible = false;
  std::string topology;
  std::vector<double> x;           ///< design point in the winner's model space
  sizing::Performance performance;
  double cost = 0.0;
  std::size_t evaluations = 0;
  /// Final share of the population on each topology (selection pressure
  /// visualization).
  std::map<std::string, double> populationShare;
};

GeneticResult geneticSelectAndSize(const TopologyLibrary& lib, const sizing::SpecSet& specs,
                                   const GeneticOptions& opts = {});

}  // namespace amsyn::topology
