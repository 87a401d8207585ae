// Mixed-signal block floorplanning (section 3.2).  Two engines:
//  * a slicing-tree floorplanner in the ILAC tradition [33] — normalized
//    Polish-expression annealing with orientation-aware shape combination;
//  * WRIGHT-style substrate-aware floorplanning (Mitra et al. [57]) — a flat
//    KOAN-style annealer whose cost includes a fast substrate-coupling
//    evaluator, so noisy digital blocks are pushed away from sensitive
//    analog blocks while area and wirelength stay in play.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "geom/rect.hpp"
#include "numeric/anneal.hpp"

namespace amsyn::layout {

/// One functional block of the mixed-signal system.
struct Block {
  std::string name;
  geom::Coord width = 0;
  geom::Coord height = 0;
  /// Substrate-noise injection strength (digital switching blocks > 0).
  double noiseInjection = 0.0;
  /// Substrate-noise sensitivity (analog blocks > 0).
  double noiseSensitivity = 0.0;

  bool isDigital() const { return noiseInjection > 0.0; }
  bool isAnalog() const { return noiseSensitivity > 0.0; }
};

/// Block-level connectivity: each net lists the blocks it touches.
struct BlockNet {
  std::string name;
  std::vector<std::string> blocks;
};

struct PlacedBlock {
  std::string name;
  geom::Rect rect;
  bool rotated = false;
};

/// The floorplanners' tuning; the area and wirelength weights, the
/// inter-block clearance and the substrate-coupling half distance are fixed
/// (floorplan.cpp).
struct FloorplanOptions {
  double noiseWeight = 1.0;     ///< substrate-coupling cost multiplier
  num::AnnealOptions anneal;
  std::uint64_t seed = 1;
};

struct Floorplan {
  std::vector<PlacedBlock> blocks;
  geom::Rect chipBox;
  double wirelength = 0.0;
  double substrateNoise = 0.0;  ///< total sensitivity-weighted coupling
  bool overlapFree = false;

  const PlacedBlock& block(const std::string& name) const;
};

/// Fast substrate-coupling evaluator (the WRIGHT simplification): coupling
/// from digital block d to analog block a falls off as
/// 1 / (1 + (dist / d0)^2); total noise = sum over pairs of
/// injection * sensitivity * coupling.
double substrateNoise(const std::vector<Block>& blocks,
                      const std::vector<PlacedBlock>& placed, double halfDistance);

/// Slicing floorplan: anneal over normalized Polish expressions; block
/// orientations chosen by shape combination.  Always overlap-free by
/// construction.
Floorplan slicingFloorplan(const std::vector<Block>& blocks,
                           const std::vector<BlockNet>& nets,
                           const FloorplanOptions& opts = {});

/// WRIGHT: flat annealing placement with the substrate-noise term.
Floorplan wrightFloorplan(const std::vector<Block>& blocks,
                          const std::vector<BlockNet>& nets,
                          const FloorplanOptions& opts = {});

/// Half-perimeter wirelength over block centers.
double blockWirelength(const std::vector<BlockNet>& nets,
                       const std::vector<PlacedBlock>& placed);

}  // namespace amsyn::layout
