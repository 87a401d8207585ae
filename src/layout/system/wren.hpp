// WREN-style mixed-signal system routing (Mitra, Nag, Rutenbar & Carley,
// ICCAD 1992 [56]): a global router over the chip's channel graph that
// honors SNR-style noise-rejection constraints on sensitive signals, plus
// the constraint mapper that converts a chip-level noise budget into
// per-channel separation/shield directives for the detailed channel router.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "geom/rect.hpp"
#include "layout/system/channel.hpp"  // WireClass
#include "layout/system/floorplan.hpp"

namespace amsyn::layout {

/// Channel graph: junction nodes connected by channel segments.
struct ChannelGraph {
  std::vector<geom::Point> nodes;
  struct Edge {
    std::size_t a = 0, b = 0;
    int capacityTracks = 8;
    double lengthLambda = 0.0;
  };
  std::vector<Edge> edges;

  std::size_t addNode(geom::Point p);
  void addEdge(std::size_t a, std::size_t b, int capacity);
};

/// Derive a simple channel graph from a floorplan: a Hanan-style grid over
/// block boundaries with junctions at the crossings (channels are the
/// spacing corridors the floorplanner reserved).
ChannelGraph channelGraphFromFloorplan(const Floorplan& fp);

struct GlobalNet {
  std::string name;
  WireClass wireClass = WireClass::Quiet;
  std::vector<geom::Point> terminals;  ///< connected to the nearest junction
  /// SNR constraint for sensitive nets: maximum tolerable coupling (a.u.).
  double noiseBudget = 0.0;
};

/// Per-channel directive produced by the constraint mapper for the detailed
/// (channel) router.
struct ChannelDirective {
  std::size_t edge = 0;
  int extraSeparationTracks = 0;
  bool shield = false;
};

struct WrenResult {
  std::map<std::string, std::vector<std::size_t>> routeOf;  ///< net -> edge list
  std::map<std::string, bool> routed;
  std::vector<int> usageTracks;         ///< per edge
  bool anyOverflow = false;
  /// Estimated coupling per sensitive net before and after mapping.
  std::map<std::string, double> couplingRaw;
  std::map<std::string, double> couplingMitigated;
  std::map<std::string, bool> snrMet;
  std::vector<ChannelDirective> directives;
};

/// WREN global routing over the channel graph.  A sensitive net pays extra
/// per lambda of channel and per noisy net already routed through it.
WrenResult wrenGlobalRoute(const ChannelGraph& graph, const std::vector<GlobalNet>& nets);

}  // namespace amsyn::layout
