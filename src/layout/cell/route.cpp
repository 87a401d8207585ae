#include "layout/cell/route.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "core/metrics.hpp"
#include "core/trace.hpp"

namespace amsyn::layout {

using geom::CellInstance;
using geom::Coord;
using geom::Layer;
using geom::Rect;
using geom::Shape;

namespace {

constexpr int kLayers = 3;  // 0 = poly, 1 = metal1, 2 = metal2
constexpr int kFree = -1;
constexpr int kBlocked = -2;

Layer layerOf(int l) {
  switch (l) {
    case 0: return Layer::Poly;
    case 1: return Layer::Metal1;
    default: return Layer::Metal2;
  }
}

int indexOf(Layer l) {
  switch (l) {
    case Layer::Poly: return 0;
    case Layer::Metal1: return 1;
    case Layer::Metal2: return 2;
    default: return -1;
  }
}

struct Node {
  int layer = 0, x = 0, y = 0;
};

/// The routing grid.  Nodes are addressed by one flat index,
/// (layer * nx + x) * ny + y, so ascending index order is the lexicographic
/// (layer, x, y) order.
class Grid {
 public:
  Grid(Rect area, Coord pitch) : area_(area), pitch_(pitch) {
    nx_ = static_cast<int>(area.width() / pitch) + 1;
    ny_ = static_cast<int>(area.height() / pitch) + 1;
    owner_.assign(static_cast<std::size_t>(kLayers) * nx_ * ny_, kFree);
    overDevice_.assign(static_cast<std::size_t>(nx_) * ny_, 0);
  }

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int plane() const { return nx_ * ny_; }
  std::size_t size() const { return owner_.size(); }

  int index(int l, int x, int y) const { return (l * nx_ + x) * ny_ + y; }
  Node node(int i) const {
    const int planar = i % plane();
    return {i / plane(), planar / ny_, planar % ny_};
  }
  geom::Point world(const Node& n) const {
    return {area_.x0 + static_cast<Coord>(n.x) * pitch_,
            area_.y0 + static_cast<Coord>(n.y) * pitch_};
  }
  int nearest(int layer, geom::Point p) const {
    const int x = static_cast<int>((p.x - area_.x0 + pitch_ / 2) / pitch_);
    const int y = static_cast<int>((p.y - area_.y0 + pitch_ / 2) / pitch_);
    return index(layer, std::clamp(x, 0, nx_ - 1), std::clamp(y, 0, ny_ - 1));
  }

  int& owner(int i) { return owner_[static_cast<std::size_t>(i)]; }
  int owner(int i) const { return owner_[static_cast<std::size_t>(i)]; }
  const std::vector<int>& owners() const { return owner_; }
  void resetOwners(const std::vector<int>& owners) { owner_ = owners; }

  void setOverDevice(int i) { overDevice_[static_cast<std::size_t>(i % plane())] = 1; }
  bool overDevice(int i) const { return overDevice_[static_cast<std::size_t>(i % plane())] != 0; }

  /// Visit every node whose center lies inside `r` on grid layer `l`.
  template <typename Fn>
  void forNodesIn(int l, const Rect& r, Fn&& fn) const {
    const int x0 = std::max(0, static_cast<int>((r.x0 - area_.x0 + pitch_ - 1) / pitch_));
    const int y0 = std::max(0, static_cast<int>((r.y0 - area_.y0 + pitch_ - 1) / pitch_));
    const int x1 = std::min<int>(nx_ - 1, static_cast<int>((r.x1 - area_.x0) / pitch_));
    const int y1 = std::min<int>(ny_ - 1, static_cast<int>((r.y1 - area_.y0) / pitch_));
    for (int x = x0; x <= x1; ++x)
      for (int y = y0; y <= y1; ++y)
        if (r.contains(world({l, x, y}))) fn(index(l, x, y));
  }

 private:
  Rect area_;
  Coord pitch_;
  int nx_ = 0, ny_ = 0;
  std::vector<int> owner_;       // kFree / kBlocked / net index
  std::vector<char> overDevice_;
};

/// A set of grid nodes that empties in O(1): a node is a member iff its
/// stamp equals the current epoch, so nothing is cleared between searches.
class NodeSet {
 public:
  explicit NodeSet(std::size_t n) : stamp_(n, 0) {}
  void clear() {
    if (++epoch_ == 0) {  // wrapped: stale stamps could alias, so wipe once
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }
  bool contains(int i) const { return stamp_[static_cast<std::size_t>(i)] == epoch_; }
  void insert(int i) { stamp_[static_cast<std::size_t>(i)] = epoch_; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 1;
};

}  // namespace

RouteResult routeCells(const std::vector<CellInstance>& placed,
                       const std::vector<RouteNet>& nets, const circuit::Process& proc,
                       const RouterOptions& opts) {
  auto require = [](bool ok, const char* field) {
    if (!ok)
      throw std::invalid_argument(std::string("routeCells: invalid RouterOptions::") + field);
  };
  require(opts.pitch > 0, "pitch");
  require(opts.wireWidth > 0, "wireWidth");
  require(opts.margin >= 0, "margin");
  require(opts.viaCost >= 0, "viaCost");
  require(opts.overDevicePenalty >= 0, "overDevicePenalty");
  require(opts.crosstalkPenalty >= 0, "crosstalkPenalty");
  require(opts.polyPenalty >= 0, "polyPenalty");
  require(opts.maxPasses > 0, "maxPasses");

  AMSYN_SPAN("routing");
  std::uint64_t expansions = 0;  // maze-search node visits, all nets/passes
  RouteResult result;
  result.layout.instances = placed;

  Rect area;
  for (const auto& inst : placed) area = area.unionWith(inst.boundingBox());
  area = area.inflated(opts.margin);

  std::map<std::string, int> netIndex;
  for (std::size_t i = 0; i < nets.size(); ++i)
    if (!netIndex.emplace(nets[i].name, static_cast<int>(i)).second)
      throw std::invalid_argument("routeCells: net " + nets[i].name + " listed twice");
  auto classOf = [&](int idx) { return nets[static_cast<std::size_t>(idx)].wireClass; };

  // --- collect pins per net ---
  std::vector<std::vector<geom::Pin>> pinsOf(nets.size());
  for (const auto& inst : placed)
    for (auto& pin : inst.transformedPins())
      if (auto it = netIndex.find(pin.name); it != netIndex.end())
        pinsOf[static_cast<std::size_t>(it->second)].push_back(std::move(pin));

  // --- the pass-invariant grid: blocked device geometry, then pin nodes ---
  Grid grid(area, opts.pitch);
  for (const auto& inst : placed) {
    for (const auto& shape : inst.transformedShapes()) {
      const Rect grown = shape.rect.inflated(opts.wireWidth / 2 + 2);
      const auto block = [&](int n) { grid.owner(n) = kBlocked; };
      switch (shape.layer) {
        case Layer::Poly:
        case Layer::NDiff:
        case Layer::PDiff:
          grid.forNodesIn(0, grown, block);
          break;
        case Layer::Metal1:
        case Layer::Contact:
          grid.forNodesIn(1, grown, block);
          break;
        case Layer::Metal2:
        case Layer::Via:
          grid.forNodesIn(2, grown, block);
          break;
        default:
          break;
      }
    }
    // Metal2 over the device body is allowed but penalized.
    grid.forNodesIn(2, inst.boundingBox(), [&](int n) { grid.setOverDevice(n); });
  }

  // Pins are legal entry points for their net: one slot of grid nodes per
  // pin.  A net with fewer than two pins, or with a pin off the routing
  // layers, has nothing the maze can connect; it is reported unrouted.
  std::vector<std::vector<std::vector<int>>> slotsOf(nets.size());
  std::vector<char> routable(nets.size(), 0);
  for (std::size_t i = 0; i < nets.size(); ++i) {
    if (pinsOf[i].size() < 2) continue;
    auto& slots = slotsOf[i];
    for (const auto& pin : pinsOf[i]) {
      const int l = indexOf(pin.layer);
      if (l < 0) continue;
      std::vector<int> nodes;
      grid.forNodesIn(l, pin.rect, [&](int n) { nodes.push_back(n); });
      if (nodes.empty()) nodes.push_back(grid.nearest(l, pin.rect.center()));
      for (const int n : nodes) grid.owner(n) = static_cast<int>(i);
      slots.push_back(std::move(nodes));
    }
    routable[i] = slots.size() == pinsOf[i].size();
  }
  const std::vector<int> initialOwners = grid.owners();

  const Coord axisX = area.center().x;  // symmetry axis for mirrored nets

  // Search state, allocated once and epoch-stamped per search.
  const std::size_t gridSize = grid.size();
  std::vector<int> dist(gridSize), parent(gridSize);
  NodeSet reached(gridSize), target(gridSize), joined(gridSize), cloud(gridSize);
  std::vector<int> joinedNodes, mirrored, previousOwner, cloudNodes;
  using QE = std::pair<int, int>;  // (distance + heuristic, node index)
  std::vector<QE> heap;
  const int ny = grid.ny(), nx = grid.nx(), plane = grid.plane();

  // Routing passes with rip-up: failed nets get routed first next pass.
  std::vector<std::size_t> order(nets.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<std::vector<int>> pathOf(nets.size());  // final node list per net
  std::vector<char> hasPath(nets.size()), symRealized(nets.size());

  for (std::size_t pass = 0; pass < opts.maxPasses; ++pass) {
    std::fill(hasPath.begin(), hasPath.end(), 0);
    std::fill(symRealized.begin(), symRealized.end(), 0);
    grid.resetOwners(initialOwners);

    // --- maze-route one net: an A* search from its connected tree to each
    // further pin in turn, claiming every path it finds ---
    auto routeNet = [&](std::size_t netIdx) -> bool {
      const RouteNet& rn = nets[netIdx];
      const auto& slots = slotsOf[netIdx];
      const int me = static_cast<int>(netIdx);
      // Only a noisy or sensitive net can sit next to an incompatible one.
      const bool crosstalk = rn.wireClass != WireClass::Quiet;
      // ROAD mode: capacitance-bounded nets pay extra per unit length,
      // biasing them toward short, low-parasitic paths.
      const int lengthCost = rn.capBound > 0.0 ? 2 : 0;
      auto& path = pathOf[netIdx];
      path.clear();

      joined.clear();
      joinedNodes.clear();
      auto join = [&](int n) {
        if (joined.contains(n)) return;
        joined.insert(n);
        joinedNodes.push_back(n);
      };
      for (const int n : slots[0]) join(n);

      for (std::size_t t = 1; t < slots.size(); ++t) {
        // The heuristic: the cheapest planar step times the Manhattan
        // distance to the target slot's bounding box.  A planar step costs
        // at least 2 + lengthCost and a via step at least 0, so it never
        // overestimates and never drops by more than a step costs.
        int bx0 = nx, bx1 = -1, by0 = ny, by1 = -1;
        reached.clear();
        target.clear();
        for (const int n : slots[t]) {
          target.insert(n);
          const Node c = grid.node(n);
          bx0 = std::min(bx0, c.x), bx1 = std::max(bx1, c.x);
          by0 = std::min(by0, c.y), by1 = std::max(by1, c.y);
        }
        const int minStep = 2 + lengthCost;
        auto h = [&](const Node& c) {
          return minStep * (std::max({0, bx0 - c.x, c.x - bx1}) +
                            std::max({0, by0 - c.y, c.y - by1}));
        };
        heap.clear();
        for (const int s : joinedNodes) {
          dist[static_cast<std::size_t>(s)] = 0;
          parent[static_cast<std::size_t>(s)] = -1;
          reached.insert(s);
          heap.push_back({h(grid.node(s)), s});
        }
        std::make_heap(heap.begin(), heap.end(), std::greater<>{});

        auto relax = [&](int d, int n, int m, bool sameLayer, const Node& mn) {
          const int own = grid.owner(m);
          if (own == kBlocked || (own >= 0 && own != me)) return;
          int step = sameLayer ? 2 : opts.viaCost;
          if (mn.layer == 0) step += opts.polyPenalty;
          if (mn.layer == 2 && grid.overDevice(m)) step += opts.overDevicePenalty;
          // Crosstalk: entering a node whose planar neighbors carry an
          // incompatible net.
          if (crosstalk) {
            auto adjacent = [&](int a) {
              const int other = grid.owner(a);
              if (other >= 0 && other != me && incompatible(classOf(other), rn.wireClass))
                step += opts.crosstalkPenalty;
            };
            if (mn.x + 1 < nx) adjacent(m + ny);
            if (mn.x > 0) adjacent(m - ny);
            if (mn.y + 1 < ny) adjacent(m + 1);
            if (mn.y > 0) adjacent(m - 1);
          }
          step += lengthCost;
          const int nd = d + step;
          const auto mi = static_cast<std::size_t>(m);
          if (!reached.contains(m) || nd < dist[mi]) {
            reached.insert(m);
            dist[mi] = nd;
            parent[mi] = n;
            heap.push_back({nd + h(mn), m});
            std::push_heap(heap.begin(), heap.end(), std::greater<>{});
          } else if (nd == dist[mi] && step > 0) {
            // A tie: keep the predecessor a (distance, index) Dijkstra
            // would have settled first.  A zero-cost step never ties in,
            // so the parent links stay acyclic.
            const int p = parent[mi];
            if (std::pair{d, n} < std::pair{dist[static_cast<std::size_t>(p)], p}) parent[mi] = n;
          }
        };

        // Pop everything with f <= the best target distance, not just up
        // to the first target: every predecessor a tie could pick lies on
        // an optimal path and so has f <= that distance.  The route found
        // is then the one a blind (distance, index) Dijkstra traces, in
        // whatever order the nodes pop.  Targets are never expanded.
        int found = -1, best = std::numeric_limits<int>::max();
        while (!heap.empty() && heap.front().first <= best) {
          std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
          const auto [f, n] = heap.back();
          heap.pop_back();
          ++expansions;
          const int d = dist[static_cast<std::size_t>(n)];
          const Node c = grid.node(n);
          if (f != d + h(c)) continue;  // stale entry
          if (target.contains(n)) {
            if (d < best || (d == best && n < found)) best = d, found = n;
            continue;
          }
          if (c.x + 1 < nx) relax(d, n, n + ny, true, {c.layer, c.x + 1, c.y});
          if (c.x > 0) relax(d, n, n - ny, true, {c.layer, c.x - 1, c.y});
          if (c.y + 1 < ny) relax(d, n, n + 1, true, {c.layer, c.x, c.y + 1});
          if (c.y > 0) relax(d, n, n - 1, true, {c.layer, c.x, c.y - 1});
          if (c.layer + 1 < kLayers) relax(d, n, n + plane, false, {c.layer + 1, c.x, c.y});
          if (c.layer > 0) relax(d, n, n - plane, false, {c.layer - 1, c.x, c.y});
        }
        if (found < 0) return false;
        // Trace back and claim the path.
        for (int cur = found; cur >= 0 && !joined.contains(cur);
             cur = parent[static_cast<std::size_t>(cur)]) {
          join(cur);
          path.push_back(cur);
          grid.owner(cur) = me;
        }
        for (const int n : slots[t]) join(n);
      }
      // Record the pin nodes too so geometry connects to the pads.
      for (const auto& slot : slots) path.insert(path.end(), slot.begin(), slot.end());
      hasPath[netIdx] = 1;
      return true;
    };

    // Try mirroring a symmetric net from its already-routed peer.  A mirror
    // that misses one of the net's pins hands every node back to its
    // previous owner, so the grid is exactly as it was before the attempt.
    auto mirrorNet = [&](std::size_t netIdx) -> bool {
      const RouteNet& rn = nets[netIdx];
      const auto peer = netIndex.find(*rn.symmetricPeer);
      if (peer == netIndex.end() || !hasPath[static_cast<std::size_t>(peer->second)])
        return false;
      const int me = static_cast<int>(netIdx);

      mirrored.clear();
      for (const int n : pathOf[static_cast<std::size_t>(peer->second)]) {
        const Node pn = grid.node(n);
        const int m = grid.nearest(pn.layer, geom::mirrorX(grid.world(pn), axisX));
        const int own = grid.owner(m);
        if (own == kBlocked || (own >= 0 && own != me)) return false;
        mirrored.push_back(m);
      }
      previousOwner.clear();
      cloud.clear();
      for (const int m : mirrored) {
        previousOwner.push_back(grid.owner(m));
        grid.owner(m) = me;
        cloud.insert(m);
      }
      // The mirrored cloud must touch all of this net's pins.
      for (const auto& slot : slotsOf[netIdx]) {
        if (std::any_of(slot.begin(), slot.end(), [&](int n) { return cloud.contains(n); }))
          continue;
        // In reverse, so a node mirrored twice gets its first owner back.
        for (std::size_t k = mirrored.size(); k-- > 0;)
          grid.owner(mirrored[k]) = previousOwner[k];
        return false;
      }
      pathOf[netIdx] = mirrored;
      hasPath[netIdx] = 1;
      return true;
    };

    std::vector<std::size_t> failed;
    for (const std::size_t netIdx : order) {
      if (!routable[netIdx]) continue;
      const bool mirroredOk = nets[netIdx].symmetricPeer && mirrorNet(netIdx);
      symRealized[netIdx] = mirroredOk;
      if (!mirroredOk && !routeNet(netIdx)) failed.push_back(netIdx);
    }

    if (failed.empty() || pass + 1 == opts.maxPasses) {
      // --- emit geometry and reports from this pass ---
      result.nets.clear();
      result.layout.wires.clear();
      double exposure = 0.0;
      const Coord h = opts.wireWidth / 2;

      for (std::size_t i = 0; i < nets.size(); ++i) {
        const RouteNet& rn = nets[i];
        NetReport rep;
        rep.routed = hasPath[i];
        rep.symmetricRealized = symRealized[i];
        if (hasPath[i]) {
          // The net's distinct nodes in index order.
          cloudNodes = pathOf[i];
          std::sort(cloudNodes.begin(), cloudNodes.end());
          cloudNodes.erase(std::unique(cloudNodes.begin(), cloudNodes.end()), cloudNodes.end());
          cloud.clear();
          for (const int n : cloudNodes) cloud.insert(n);
          for (const int n : cloudNodes) {
            const Node c = grid.node(n);
            const geom::Point w = grid.world(c);
            // Pad at the node plus segments toward +x/+y cloud neighbors.
            result.layout.wires.push_back(
                Shape{layerOf(c.layer), {w.x - h, w.y - h, w.x + h, w.y + h}, rn.name});
            if (c.x + 1 < nx && cloud.contains(n + ny))
              result.layout.wires.push_back(
                  Shape{layerOf(c.layer),
                        {w.x - h, w.y - h, w.x + opts.pitch + h, w.y + h}, rn.name});
            if (c.y + 1 < ny && cloud.contains(n + 1))
              result.layout.wires.push_back(
                  Shape{layerOf(c.layer),
                        {w.x - h, w.y - h, w.x + h, w.y + opts.pitch + h}, rn.name});
            // Vias: node present on the next layer up at the same (x, y).
            if (c.layer + 1 < kLayers && cloud.contains(n + plane)) {
              ++rep.vias;
              result.layout.wires.push_back(
                  Shape{c.layer == 0 ? Layer::Contact : Layer::Via,
                        {w.x - h, w.y - h, w.x + h, w.y + h}, rn.name});
            }
          }
          // Straps from each physical pin to its grid entry node (pins can
          // sit off-grid; the nearest-node fallback needs a jumper).
          const auto& physical = pinsOf[i];
          for (std::size_t pi = 0; pi < slotsOf[i].size(); ++pi) {
            const geom::Point w = grid.world(grid.node(slotsOf[i][pi].front()));
            const geom::Point pc = physical[pi].rect.center();
            result.layout.wires.push_back(
                Shape{physical[pi].layer,
                      {std::min(w.x, pc.x) - h, pc.y - h, std::max(w.x, pc.x) + h, pc.y + h},
                      rn.name});
            result.layout.wires.push_back(
                Shape{physical[pi].layer,
                      {w.x - h, std::min(w.y, pc.y) - h, w.x + h, std::max(w.y, pc.y) + h},
                      rn.name});
          }
          rep.lengthLambda =
              static_cast<double>(cloudNodes.size()) * static_cast<double>(opts.pitch) / 4.0;
          // Ground-cap estimate: area + fringe of the drawn wire.
          const double lenM = rep.lengthLambda * proc.lambda;
          const double wM = static_cast<double>(opts.wireWidth) / 4.0 * proc.lambda;
          rep.estimatedCap = lenM * wM * proc.caMetal1 + 2.0 * lenM * proc.cfMetal1;
          rep.capBoundMet = rn.capBound <= 0.0 || rep.estimatedCap <= rn.capBound;
          result.totalLengthLambda += rep.lengthLambda;

          // Crosstalk exposure against previously-reported nets (a quiet
          // net is compatible with every class, so it has none).
          if (rn.wireClass != WireClass::Quiet) {
            for (const int n : cloudNodes) {
              const Node c = grid.node(n);
              auto adjacent = [&](int a) {
                const int other = grid.owner(a);
                if (other >= 0 && other != static_cast<int>(i) &&
                    incompatible(classOf(other), rn.wireClass))
                  exposure += static_cast<double>(opts.pitch) / 4.0 / 2.0;  // half per side
              };
              if (c.x + 1 < nx) adjacent(n + ny);
              if (c.x > 0) adjacent(n - ny);
              if (c.y + 1 < ny) adjacent(n + 1);
              if (c.y > 0) adjacent(n - 1);
            }
          }
        }
        result.nets[rn.name] = rep;
      }
      result.crosstalkExposureLambda = exposure;
      result.allRouted = std::all_of(result.nets.begin(), result.nets.end(),
                                     [](const auto& kv) { return kv.second.routed; });
      // One registry touch per routing run: the maze loop itself only bumps
      // a local tally.
      static const auto cExpansions =
          core::metrics::registry().counter("route.expansions");
      core::metrics::add(cExpansions, expansions);
      return result;
    }

    // Re-order: failed nets first on the next pass.
    std::vector<std::size_t> next = failed;
    for (std::size_t i : order)
      if (std::find(failed.begin(), failed.end(), i) == failed.end()) next.push_back(i);
    order = std::move(next);
  }
  return result;  // unreachable: maxPasses > 0, and the last pass returns
}

}  // namespace amsyn::layout
