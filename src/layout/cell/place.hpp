// KOAN-style device placement (Cohn, Garrod, Rutenbar & Carley [34-36]):
// simulated annealing over device positions, orientations and layout
// variants (fold counts), with analog-specific cost terms — symmetric-pair
// mirroring, net-length estimation, and overlap penalties that anneal to
// zero so the final placement is legal.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "circuit/process.hpp"
#include "geom/layout.hpp"
#include "numeric/anneal.hpp"

namespace amsyn::layout {

/// A placeable object: one or more interchangeable masters (e.g. the same
/// transistor folded 1/2/4 ways — KOAN's dynamic folding move switches
/// between them mid-anneal).
struct PlacementComponent {
  std::string name;
  std::vector<geom::CellMaster> variants;
  /// Mirror partner for a matched pair (both components must name each
  /// other); pairs are kept mirror-symmetric about the cell's vertical axis.
  std::optional<std::string> symmetryPeer;
};

/// The placer's tuning; area, wirelength and overlap weights, the grid and
/// the device clearance are fixed (place.cpp), as is the default annealing
/// schedule.
struct PlacerOptions {
  double symmetryWeight = 2.0;
  std::uint64_t seed = 1;
};

struct Placement {
  std::vector<geom::CellInstance> instances;
  std::map<std::string, std::size_t> variantChosen;
  geom::Rect boundingBox;
  double wirelength = 0.0;   ///< half-perimeter estimate over all nets
  bool overlapFree = false;
  double symmetryError = 0.0;
  num::AnnealStats stats;
};

/// Place components.  Nets are read from the variant pins; every pin name
/// that appears on >= 2 components becomes a net for wirelength estimation.
/// `powerNets` are ignored for symmetry purposes but still contribute to
/// wirelength.
Placement placeCells(const std::vector<PlacementComponent>& components,
                     const PlacerOptions& opts = {});

/// Deterministic reference placement ("manual-style"): components in a row,
/// symmetric pairs adjacent, in declaration order.  Used as the baseline in
/// the Fig. 2 comparison and as a legal fallback.
Placement rowPlacement(const std::vector<PlacementComponent>& components);

/// Total half-perimeter wirelength of a set of placed instances.
double estimateWirelength(const std::vector<geom::CellInstance>& instances);

}  // namespace amsyn::layout
