#include "extract/extract.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

namespace amsyn::extract {

using geom::Coord;
using geom::Layer;
using geom::Rect;

double ExtractionResult::groundCapOf(const std::string& net) const {
  auto it = nets.find(net);
  return it == nets.end() ? 0.0 : it->second.groundCap;
}

double ExtractionResult::couplingBetween(const std::string& a, const std::string& b) const {
  auto it = nets.find(a);
  if (it == nets.end()) return 0.0;
  auto jt = it->second.couplingTo.find(b);
  return jt == it->second.couplingTo.end() ? 0.0 : jt->second;
}

namespace {

/// Same-layer shapes closer than this (quarter-lambda) couple.
constexpr Coord kCouplingDistance = 24;
/// Side of one square bin of the coupling search, 2^kBinShift
/// quarter-lambda: a few routing pitches, so a wire's neighbourhood spans a
/// handful of bins.
constexpr int kBinShift = 6;
/// Bins per routing shape a layer's index may grow to; a layer whose
/// shapes lie farther apart gets coarser bins instead (see BinIndex).
constexpr Coord kMaxBinsPerShape = 16;
constexpr int kRoutingLayers = 3;

struct LayerElectricals {
  double ca = 0.0, cf = 0.0, rs = 0.0;
};

LayerElectricals electricalsOf(Layer l, const circuit::Process& proc) {
  switch (l) {
    case Layer::Poly: return {proc.caPoly, proc.cfPoly, proc.rsPoly};
    case Layer::Metal1: return {proc.caMetal1, proc.cfMetal1, proc.rsMetal1};
    case Layer::Metal2: return {proc.caMetal2, proc.cfMetal2, proc.rsMetal2};
    default: return {};
  }
}

int routingIndex(Layer l) {
  switch (l) {
    case Layer::Poly: return 0;
    case Layer::Metal1: return 1;
    default: return 2;
  }
}

/// Overlap of the projections of two rects along one axis.
Coord projectionOverlap(Coord a0, Coord a1, Coord b0, Coord b1) {
  return std::max<Coord>(0, std::min(a1, b1) - std::max(a0, b0));
}

/// A named routing shape, its net numbered in order of first appearance.
struct RoutingShape {
  Layer layer;
  Rect rect;
  std::size_t net;
};

/// A uniform bin grid per routing layer over the shapes, in CSR form: the
/// shapes covering bin b are entries[start[b] .. start[b + 1]), ascending.
/// A shape is filed in every bin its closed extent touches, so two shapes
/// within kCouplingDistance of each other share a bin of the one inflated
/// by that distance.
class BinIndex {
 public:
  explicit BinIndex(const std::vector<RoutingShape>& shapes) {
    std::array<std::size_t, kRoutingLayers> count{};
    std::array<Rect, kRoutingLayers> extent{};
    for (const auto& s : shapes) {
      const int l = routingIndex(s.layer);
      const Rect r = closed(s.rect);
      extent[l] = count[l]++ == 0 ? r
                                  : Rect{std::min(extent[l].x0, r.x0), std::min(extent[l].y0, r.y0),
                                         std::max(extent[l].x1, r.x1), std::max(extent[l].y1, r.y1)};
    }
    std::size_t bins = 0;
    for (int l = 0; l < kRoutingLayers; ++l) {
      Grid& g = grid_[l];
      g.first = bins;
      if (count[l] == 0) continue;
      // The origin leaves room for every shape's inflated extent, so bin
      // coordinates are never negative.
      const Rect e = extent[l].inflated(kCouplingDistance);
      g.x0 = e.x0;
      g.y0 = e.y0;
      const Coord limit = kMaxBinsPerShape * static_cast<Coord>(count[l]);
      while (((e.width() >> g.shift) + 1) * ((e.height() >> g.shift) + 1) > limit) ++g.shift;
      g.nx = (e.width() >> g.shift) + 1;
      bins += static_cast<std::size_t>(g.nx * ((e.height() >> g.shift) + 1));
    }
    // Count, prefix-sum, fill: each bin's entries stay in shape order.
    start_.assign(bins + 1, 0);
    forEachFiling(shapes, [&](std::size_t, std::size_t b) { ++start_[b + 1]; });
    for (std::size_t b = 0; b < bins; ++b) start_[b + 1] += start_[b];
    entries_.resize(start_[bins]);
    std::vector<std::size_t> next(start_.begin(), start_.end() - 1);
    forEachFiling(shapes, [&](std::size_t i, std::size_t b) { entries_[next[b]++] = i; });
  }

  /// Every shape j > i sharing a bin with shape i inflated by
  /// kCouplingDistance, once each and in no set order, into `out`.  `stamp`
  /// has one slot per shape and holds no i + 1 before the call.
  void candidatesAfter(const std::vector<RoutingShape>& shapes, std::size_t i,
                       std::vector<std::uint32_t>& stamp, std::vector<std::size_t>& out) const {
    out.clear();
    const auto mark = static_cast<std::uint32_t>(i + 1);
    forEachBin(shapes[i], kCouplingDistance, [&](std::size_t b) {
      const auto end = entries_.begin() + static_cast<std::ptrdiff_t>(start_[b + 1]);
      for (auto k = std::upper_bound(entries_.begin() + static_cast<std::ptrdiff_t>(start_[b]),
                                     end, i);
           k != end; ++k) {
        if (stamp[*k] == mark) continue;
        stamp[*k] = mark;
        out.push_back(*k);
      }
    });
  }

 private:
  struct Grid {
    Coord x0 = 0, y0 = 0, nx = 0;
    int shift = kBinShift;  ///< bins are 2^shift on a side
    std::size_t first = 0;  ///< index of the layer's first bin
  };

  /// The rect spanning both corners, whichever way round they are given.
  static Rect closed(const Rect& r) {
    return {std::min(r.x0, r.x1), std::min(r.y0, r.y1), std::max(r.x0, r.x1),
            std::max(r.y0, r.y1)};
  }

  /// Visit every bin the closed extent of `s`, inflated by `margin`,
  /// touches.
  template <typename Fn>
  void forEachBin(const RoutingShape& s, Coord margin, Fn&& fn) const {
    const Grid& g = grid_[routingIndex(s.layer)];
    const Rect r = closed(s.rect).inflated(margin);
    const Coord bx0 = (r.x0 - g.x0) >> g.shift, bx1 = (r.x1 - g.x0) >> g.shift;
    const Coord by0 = (r.y0 - g.y0) >> g.shift, by1 = (r.y1 - g.y0) >> g.shift;
    for (Coord by = by0; by <= by1; ++by)
      for (Coord bx = bx0; bx <= bx1; ++bx)
        fn(g.first + static_cast<std::size_t>(by * g.nx + bx));
  }

  template <typename Fn>
  void forEachFiling(const std::vector<RoutingShape>& shapes, Fn&& fn) const {
    for (std::size_t i = 0; i < shapes.size(); ++i)
      forEachBin(shapes[i], 0, [&](std::size_t b) { fn(i, b); });
  }

  std::array<Grid, kRoutingLayers> grid_;
  std::vector<std::size_t> start_;
  std::vector<std::size_t> entries_;
};

}  // namespace

ExtractionResult extractParasitics(const geom::Layout& layout, const circuit::Process& proc) {
  const double quarter = proc.lambda / 4.0;  // meters per grid unit

  // Collect all named routing shapes (wires plus in-device routing shapes),
  // with ground cap + resistance per net.
  std::map<std::string_view, std::size_t> netId;
  std::vector<const std::string*> names;  // [net id]
  std::vector<NetParasitics> nets;        // [net id]
  std::vector<RoutingShape> shapes;
  const auto add = [&](Layer layer, const Rect& rect, const std::string& net) {
    const auto [it, fresh] = netId.try_emplace(net, nets.size());
    if (fresh) {
      names.push_back(&net);
      nets.emplace_back();
    }
    const auto el = electricalsOf(layer, proc);
    const double w = static_cast<double>(std::min(rect.width(), rect.height())) * quarter;
    const double len = static_cast<double>(std::max(rect.width(), rect.height())) * quarter;
    auto& par = nets[it->second];
    par.groundCap += len * w * el.ca + 2.0 * (len + w) * el.cf;
    if (w > 0.0) par.resistance += el.rs * len / w;
    shapes.push_back({layer, rect, it->second});
  };
  for (const auto& w : layout.wires)
    if (!w.net.empty() && geom::isRoutingLayer(w.layer)) add(w.layer, w.rect, w.net);
  for (const auto& inst : layout.instances) {
    if (!inst.master) continue;
    for (const auto& s : inst.master->shapes)
      if (!s.net.empty() && geom::isRoutingLayer(s.layer))
        add(s.layer, inst.placement.apply(s.rect), s.net);
  }

  // Same-layer proximity coupling.  The index yields every neighbour j > i
  // of shape i; the pairs that couple are sorted by j before they are
  // added, so every sum adds its terms in the order of a loop over all
  // pairs (i, j > i) and is the same to the bit.  A pair adds the same c to
  // both of its nets' sums, so each net pair keeps one sum, under its lower
  // id: (higher id, sum).
  const BinIndex index(shapes);
  std::vector<std::uint32_t> stamp(shapes.size(), 0);
  std::vector<std::size_t> candidates;
  std::vector<std::pair<std::size_t, double>> coupled;  // (j, c) for shape i
  std::vector<std::vector<std::pair<std::size_t, double>>> coupling(nets.size());
  const double minSpace = proc.ruleMinSpacing * 4.0;  // quarter-lambda
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    index.candidatesAfter(shapes, i, stamp, candidates);
    const RoutingShape& a = shapes[i];
    coupled.clear();
    for (const std::size_t j : candidates) {
      const RoutingShape& b = shapes[j];
      if (a.net == b.net) continue;
      const Coord gap = a.rect.gapTo(b.rect);
      if (gap <= 0 || gap > kCouplingDistance) continue;
      // Parallel-run length: the larger projection overlap.
      const Coord run = std::max(
          projectionOverlap(a.rect.x0, a.rect.x1, b.rect.x0, b.rect.x1),
          projectionOverlap(a.rect.y0, a.rect.y1, b.rect.y0, b.rect.y1));
      if (run <= 0) continue;
      // Coupling scales with run length and inversely with spacing relative
      // to the minimum design-rule spacing.
      coupled.push_back({j, proc.ccAdjacent * static_cast<double>(run) * quarter *
                                (minSpace / static_cast<double>(gap))});
    }
    std::sort(coupled.begin(), coupled.end());
    for (const auto& [j, c] : coupled) {
      const std::size_t b = shapes[j].net;
      auto& sums = coupling[std::min(a.net, b)];
      const std::size_t other = std::max(a.net, b);
      auto it = std::find_if(sums.begin(), sums.end(),
                             [&](const auto& e) { return e.first == other; });
      if (it == sums.end()) it = sums.insert(sums.end(), {other, 0.0});
      it->second += c;
    }
  }

  ExtractionResult out;
  for (std::size_t n = 0; n < nets.size(); ++n) {
    for (const auto& [other, c] : coupling[n]) {
      nets[n].couplingTo.emplace(*names[other], c);
      nets[other].couplingTo.emplace(*names[n], c);
    }
  }
  for (std::size_t n = 0; n < nets.size(); ++n) out.nets.emplace(*names[n], std::move(nets[n]));
  return out;
}

circuit::Netlist backAnnotate(const circuit::Netlist& net, const ExtractionResult& ext,
                              double minCap) {
  circuit::Netlist out = net;  // copy: original stays pristine
  std::size_t idx = 0;
  for (const auto& [name, par] : ext.nets) {
    if (!out.findNode(name)) continue;  // layout net not in this netlist
    if (par.groundCap >= minCap && name != "0" && name != "gnd")
      out.addCapacitor("CPAR" + std::to_string(idx++), name, "0", par.groundCap);
    for (const auto& [other, c] : par.couplingTo) {
      if (c < minCap || other <= name) continue;  // emit each pair once
      if (!out.findNode(other)) continue;
      out.addCapacitor("CCPL" + std::to_string(idx++), name, other, c);
    }
  }
  return out;
}

}  // namespace amsyn::extract
