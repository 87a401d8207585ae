// Device stacking: identify chains of MOS devices whose drain/source
// diffusions can be merged — the dominant parasitic-capacitance optimization
// in CMOS analog cell layout (section 3.1, "devicestacking, followed by
// stack placement").
//
// The circuit is rendered as a multigraph whose vertices are nets and whose
// edges are (channel) devices; a stack is a trail (edge-simple walk), and a
// stacking is a partition of the edges into trails.  Euler's theorem gives
// the minimum trail count: max(1, odd/2) per connected component.  Two
// algorithms are provided, matching the paper's refs:
//  * exact enumeration of all optimal stackings (Malavasi & Pandini [43]) —
//    exponential, intended for small compatible groups;
//  * a linear-time single-solution extractor (Basaran & Rutenbar [45]) —
//    fast enough for a placer's inner loop.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"

namespace amsyn::layout {

/// One compatible group of devices (same MOS type, near-equal width).
struct DiffusionGraph {
  circuit::MosType type = circuit::MosType::Nmos;
  double width = 0.0;                ///< representative channel width (W*m)
  std::vector<std::string> nets;     ///< vertex index -> net name
  struct Edge {
    std::string device;
    std::size_t a = 0, b = 0;        ///< net vertex indices (drain, source)
    circuit::MosParams mos;
    std::string gateNet;
    std::string bulkNet;
  };
  std::vector<Edge> edges;

  /// Euler lower bound on the number of stacks for this graph.
  std::size_t minimumStacks() const;
};

/// Partition the netlist's MOS devices into compatible groups.  Devices
/// whose widths differ by more than `widthTolerance` (relative) land in
/// different groups, since merged diffusions require equal widths.
std::vector<DiffusionGraph> buildDiffusionGraphs(const circuit::Netlist& net,
                                                 double widthTolerance = 0.05);

/// One stack: an ordered chain of edges; `flipped` says whether the device's
/// drain faces left.
struct StackElement {
  std::size_t edge = 0;
  bool flipped = false;
};
struct Stack {
  std::vector<StackElement> elements;
};

struct Stacking {
  std::vector<Stack> stacks;
  /// Number of merged diffusion junctions (edges - stacks); the quantity
  /// both algorithms maximize.
  std::size_t mergeCount(std::size_t edgeCount) const {
    return edgeCount >= stacks.size() ? edgeCount - stacks.size() : 0;
  }
};

/// Exact: enumerate optimal stackings (minimum stack count) up to
/// `maxResults` distinct solutions.  Exponential in the group size; callers
/// should bound group sizes (~12 devices) as ref [43] did.
std::vector<Stacking> enumerateOptimalStackings(const DiffusionGraph& g,
                                                std::size_t maxResults = 16);

/// Heuristic: one optimal-count stacking in O(E) — pair odd vertices with
/// virtual edges, walk an Euler trail per component (Hierholzer), split at
/// the virtual edges.  Always achieves the Euler minimum.
Stacking greedyStacking(const DiffusionGraph& g);

/// Validate a stacking: every edge used exactly once and chains share nets.
bool stackingValid(const DiffusionGraph& g, const Stacking& s);

}  // namespace amsyn::layout
