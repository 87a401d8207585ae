#include "layout/system/wren.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <set>
#include <stdexcept>

namespace amsyn::layout {

using geom::Coord;
using geom::Point;
using geom::Rect;

namespace {
constexpr double kCongestionWeight = 2.0;
/// Extra cost a sensitive net pays per lambda of channel and per noisy net
/// already routed through it.
constexpr double kNoiseAvoidWeight = 4.0;
/// Coupling contribution per lambda of shared channel at minimum
/// separation (before mapper-assigned mitigation).
constexpr double kCouplingPerLambda = 0.01;
}  // namespace

std::size_t ChannelGraph::addNode(Point p) {
  nodes.push_back(p);
  return nodes.size() - 1;
}

void ChannelGraph::addEdge(std::size_t a, std::size_t b, int capacity) {
  Edge e;
  e.a = a;
  e.b = b;
  e.capacityTracks = capacity;
  e.lengthLambda = static_cast<double>(std::abs(nodes[a].x - nodes[b].x) +
                                       std::abs(nodes[a].y - nodes[b].y)) /
                   4.0;
  edges.push_back(e);
}

ChannelGraph channelGraphFromFloorplan(const Floorplan& fp) {
  ChannelGraph g;
  std::set<Coord> xs{fp.chipBox.x0, fp.chipBox.x1};
  std::set<Coord> ys{fp.chipBox.y0, fp.chipBox.y1};
  for (const auto& b : fp.blocks) {
    xs.insert(b.rect.x0);
    xs.insert(b.rect.x1);
    ys.insert(b.rect.y0);
    ys.insert(b.rect.y1);
  }
  const std::vector<Coord> xv(xs.begin(), xs.end());
  const std::vector<Coord> yv(ys.begin(), ys.end());

  auto insideBlock = [&](Point p) {
    for (const auto& b : fp.blocks)
      if (b.rect.contains(p) && !b.rect.inflated(-1).empty() &&
          b.rect.inflated(-1).contains(p))
        return true;
    return false;
  };

  // Junctions at Hanan crossings outside blocks.
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> nodeAt;
  for (std::size_t i = 0; i < xv.size(); ++i)
    for (std::size_t j = 0; j < yv.size(); ++j) {
      const Point p{xv[i], yv[j]};
      if (!insideBlock(p)) nodeAt[{i, j}] = g.addNode(p);
    }

  auto segmentClear = [&](Point a, Point b) {
    // Check a few interior sample points.
    for (int s = 1; s <= 3; ++s) {
      const Point m{a.x + (b.x - a.x) * s / 4, a.y + (b.y - a.y) * s / 4};
      if (insideBlock(m)) return false;
    }
    return true;
  };

  for (const auto& [key, id] : nodeAt) {
    const auto [i, j] = key;
    if (auto it = nodeAt.find({i + 1, j}); it != nodeAt.end()) {
      if (segmentClear(g.nodes[id], g.nodes[it->second]))
        g.addEdge(id, it->second, 8);
    }
    if (auto it = nodeAt.find({i, j + 1}); it != nodeAt.end()) {
      if (segmentClear(g.nodes[id], g.nodes[it->second]))
        g.addEdge(id, it->second, 8);
    }
  }
  return g;
}

WrenResult wrenGlobalRoute(const ChannelGraph& graph, const std::vector<GlobalNet>& nets) {
  WrenResult result;
  const std::size_t nNodes = graph.nodes.size();
  const std::size_t nEdges = graph.edges.size();
  if (nNodes == 0) throw std::invalid_argument("wrenGlobalRoute: empty channel graph");

  result.usageTracks.assign(nEdges, 0);
  std::vector<std::set<std::string>> noisyOn(nEdges);

  // Adjacency.
  std::vector<std::vector<std::size_t>> incident(nNodes);
  for (std::size_t e = 0; e < nEdges; ++e) {
    incident[graph.edges[e].a].push_back(e);
    incident[graph.edges[e].b].push_back(e);
  }

  auto nearestNode = [&](Point p) {
    std::size_t best = 0;
    Coord bestD = std::numeric_limits<Coord>::max();
    for (std::size_t i = 0; i < nNodes; ++i) {
      const Coord d = std::abs(graph.nodes[i].x - p.x) + std::abs(graph.nodes[i].y - p.y);
      if (d < bestD) {
        bestD = d;
        best = i;
      }
    }
    return best;
  };

  auto routeOne = [&](const GlobalNet& net) -> std::optional<std::vector<std::size_t>> {
    if (net.terminals.size() < 2) return std::vector<std::size_t>{};
    std::set<std::size_t> component{nearestNode(net.terminals[0])};
    std::vector<std::size_t> usedEdges;

    for (std::size_t t = 1; t < net.terminals.size(); ++t) {
      const std::size_t goal = nearestNode(net.terminals[t]);
      if (component.count(goal)) continue;
      // Dijkstra from component to goal.
      std::vector<double> dist(nNodes, std::numeric_limits<double>::infinity());
      std::vector<std::size_t> parentEdge(nNodes, SIZE_MAX);
      using QE = std::pair<double, std::size_t>;
      std::priority_queue<QE, std::vector<QE>, std::greater<>> pq;
      for (std::size_t s : component) {
        dist[s] = 0;
        pq.push({0, s});
      }
      while (!pq.empty()) {
        const auto [d, v] = pq.top();
        pq.pop();
        if (d > dist[v]) continue;
        if (v == goal) break;
        for (std::size_t e : incident[v]) {
          const auto& edge = graph.edges[e];
          const std::size_t u = edge.a == v ? edge.b : edge.a;
          double cost = edge.lengthLambda;
          cost *= 1.0 + kCongestionWeight * static_cast<double>(result.usageTracks[e]) /
                            std::max(1, edge.capacityTracks);
          if (net.wireClass == WireClass::Sensitive && !noisyOn[e].empty())
            cost += kNoiseAvoidWeight * edge.lengthLambda *
                    static_cast<double>(noisyOn[e].size());
          // Noisy nets pay nothing here: they route before every sensitive
          // net, and the sensitive nets do the avoiding.
          if (dist[v] + cost < dist[u]) {
            dist[u] = dist[v] + cost;
            parentEdge[u] = e;
            pq.push({dist[u], u});
          }
        }
      }
      if (!std::isfinite(dist[goal])) return std::nullopt;
      // Trace back to the component.
      std::size_t cur = goal;
      while (!component.count(cur)) {
        const std::size_t e = parentEdge[cur];
        usedEdges.push_back(e);
        component.insert(cur);
        cur = graph.edges[e].a == cur ? graph.edges[e].b : graph.edges[e].a;
      }
    }
    return usedEdges;
  };

  // Order: noisy and quiet first so sensitive nets can avoid them.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < nets.size(); ++i)
    if (nets[i].wireClass != WireClass::Sensitive) order.push_back(i);
  for (std::size_t i = 0; i < nets.size(); ++i)
    if (nets[i].wireClass == WireClass::Sensitive) order.push_back(i);

  for (std::size_t idx : order) {
    const GlobalNet& net = nets[idx];
    const auto path = routeOne(net);
    result.routed[net.name] = path.has_value();
    if (!path) continue;
    result.routeOf[net.name] = *path;
    for (std::size_t e : *path) {
      ++result.usageTracks[e];
      if (net.wireClass == WireClass::Noisy) noisyOn[e].insert(net.name);
      if (result.usageTracks[e] > graph.edges[e].capacityTracks) result.anyOverflow = true;
    }
  }

  // --- constraint mapper: chip-level SNR budget -> per-channel directives ---
  std::vector<int> extraSep(nEdges, 0);
  std::vector<bool> shield(nEdges, false);

  auto couplingOf = [&](const GlobalNet& net, bool mitigated) {
    double total = 0.0;
    auto it = result.routeOf.find(net.name);
    if (it == result.routeOf.end()) return total;
    for (std::size_t e : it->second) {
      if (noisyOn[e].empty()) continue;
      double c = kCouplingPerLambda * graph.edges[e].lengthLambda *
                 static_cast<double>(noisyOn[e].size());
      if (mitigated) {
        if (shield[e]) c *= 0.05;  // grounded shield: ~26 dB better
        else c /= (1.0 + extraSep[e]);
      }
      total += c;
    }
    return total;
  };

  for (const auto& net : nets) {
    if (net.wireClass != WireClass::Sensitive) continue;
    result.couplingRaw[net.name] = couplingOf(net, false);
    if (net.noiseBudget <= 0.0) {
      result.couplingMitigated[net.name] = result.couplingRaw[net.name];
      result.snrMet[net.name] = true;
      continue;
    }
    // Iteratively harden the worst shared channel until the budget holds.
    for (std::size_t iter = 0; iter < 4 * graph.edges.size() + 8; ++iter) {
      if (couplingOf(net, true) <= net.noiseBudget) break;
      // Worst edge: largest mitigated contribution.
      double worstC = 0.0;
      std::size_t worstE = SIZE_MAX;
      for (std::size_t e : result.routeOf[net.name]) {
        if (noisyOn[e].empty() || shield[e]) continue;
        const double c = kCouplingPerLambda * graph.edges[e].lengthLambda *
                         static_cast<double>(noisyOn[e].size()) / (1.0 + extraSep[e]);
        if (c > worstC) {
          worstC = c;
          worstE = e;
        }
      }
      if (worstE == SIZE_MAX) break;  // everything already shielded
      if (extraSep[worstE] >= 3) shield[worstE] = true;
      else ++extraSep[worstE];
    }
    result.couplingMitigated[net.name] = couplingOf(net, true);
    result.snrMet[net.name] = result.couplingMitigated[net.name] <= net.noiseBudget;
  }

  for (std::size_t e = 0; e < nEdges; ++e)
    if (extraSep[e] > 0 || shield[e])
      result.directives.push_back(ChannelDirective{e, extraSep[e], shield[e]});

  return result;
}

}  // namespace amsyn::layout
