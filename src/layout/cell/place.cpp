#include "layout/cell/place.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>

#include "core/metrics.hpp"
#include "core/trace.hpp"

namespace amsyn::layout {

using geom::CellInstance;
using geom::Coord;
using geom::Orientation;
using geom::Rect;
using geom::Transform;

double estimateWirelengthWeighted(const std::vector<CellInstance>& instances,
                                  const std::map<std::string, double>& netWeights) {
  std::map<std::string, Rect> netBox;
  for (const auto& inst : instances) {
    for (const auto& pin : inst.transformedPins()) {
      if (pin.name.empty()) continue;
      auto [it, inserted] = netBox.try_emplace(pin.name, pin.rect);
      if (!inserted) it->second = it->second.unionWith(pin.rect);
    }
  }
  double total = 0.0;
  for (const auto& [net, box] : netBox) {
    double w = 1.0;
    if (auto it = netWeights.find(net); it != netWeights.end()) w = it->second;
    total += w * static_cast<double>(box.halfPerimeter());
  }
  return total;
}

double estimateWirelength(const std::vector<CellInstance>& instances) {
  return estimateWirelengthWeighted(instances, {});
}

bool hasOverlaps(const std::vector<CellInstance>& instances, Coord spacing) {
  for (std::size_t i = 0; i < instances.size(); ++i) {
    const Rect a = instances[i].boundingBox().inflated(spacing / 2);
    for (std::size_t j = i + 1; j < instances.size(); ++j) {
      if (a.overlaps(instances[j].boundingBox().inflated(spacing / 2))) return true;
    }
  }
  return false;
}

namespace {

/// The mirrored counterpart of an orientation about a vertical axis.
Orientation mirrored(Orientation o) {
  switch (o) {
    case Orientation::R0: return Orientation::MX;
    case Orientation::MX: return Orientation::R0;
    case Orientation::R180: return Orientation::MY;
    case Orientation::MY: return Orientation::R180;
    case Orientation::R90: return Orientation::MX90;
    case Orientation::MX90: return Orientation::R90;
    case Orientation::R270: return Orientation::MY90;
    case Orientation::MY90: return Orientation::R270;
  }
  return Orientation::MX;
}

/// What the annealer moves: each component's chosen variant and transform.
struct Arrangement {
  std::vector<std::size_t> variant;
  std::vector<Transform> xform;
};

/// The placement cost over geometry cached once per component variant, so
/// an annealing move evaluates without allocating.  Every figure is summed
/// over reusable scratch buffers in the same order as over the equivalent
/// CellInstances (wirelength in estimateWirelengthWeighted's net-name
/// order), so a cost is bit-equal to the instance-based one.
class PlacerState {
 public:
  PlacerState(const std::vector<PlacementComponent>& components, const PlacerOptions& opts)
      : components_(components), opts_(opts), peer_(components.size(), -1) {
    for (std::size_t i = 0; i < components.size(); ++i) {
      if (!components[i].symmetryPeer) continue;
      for (std::size_t j = 0; j < components.size(); ++j)
        if (components[j].name == *components[i].symmetryPeer) peer_[i] = j;
    }
    // Net ids follow sorted-name order, the order the wirelength sums in.
    std::map<std::string, std::size_t> netId;
    for (const auto& c : components)
      for (const auto& master : c.variants)
        for (const auto& pin : master.pins)
          if (!pin.name.empty()) netId.emplace(pin.name, 0);
    for (auto& [net, id] : netId) {
      id = netWeight_.size();
      const auto w = opts.netWeights.find(net);
      netWeight_.push_back(w == opts.netWeights.end() ? 1.0 : w->second);
    }
    geometry_.resize(components.size());
    for (std::size_t i = 0; i < components.size(); ++i) {
      for (const auto& master : components[i].variants) {
        VariantGeometry g{master.boundingBox(), {}};
        for (const auto& pin : master.pins)
          if (!pin.name.empty()) g.pins.push_back({netId.at(pin.name), pin.rect});
        geometry_[i].push_back(std::move(g));
      }
    }
    boxes_.resize(components.size());
    netBox_.resize(netWeight_.size());
    netSeen_.resize(netWeight_.size());
  }

  std::ptrdiff_t peer(std::size_t i) const { return peer_[i]; }

  /// Bounding box of component i under variant v and transform t.
  Rect box(std::size_t i, std::size_t v, const Transform& t) const {
    return t.apply(geometry_[i][v].box);
  }

  double cost(const Arrangement& a, double overlapScale) {
    updateBoxes(a);
    Rect bb;
    for (const Rect& b : boxes_) bb = bb.unionWith(b);
    const double area = static_cast<double>(bb.area());
    const double wl = wirelength(a);
    double ov = 0.0;
    for (std::size_t i = 0; i < boxes_.size(); ++i) {
      const Rect r = boxes_[i].inflated(opts_.spacing / 2);
      for (std::size_t j = i + 1; j < boxes_.size(); ++j)
        ov += static_cast<double>(r.intersect(boxes_[j].inflated(opts_.spacing / 2)).area());
    }
    const double sym = symmetryErrorOfBoxes(a);
    return opts_.areaWeight * area + opts_.wireWeight * wl * 10.0 +
           opts_.overlapWeight * overlapScale * ov + opts_.symmetryWeight * sym * 20.0;
  }

  double symmetryError(const Arrangement& a) {
    updateBoxes(a);
    return symmetryErrorOfBoxes(a);
  }

  std::vector<CellInstance> instances(const Arrangement& a) const {
    std::vector<CellInstance> out;
    out.reserve(components_.size());
    for (std::size_t i = 0; i < components_.size(); ++i)
      out.push_back(CellInstance{components_[i].name,
                                 &components_[i].variants[a.variant[i]], a.xform[i]});
    return out;
  }

 private:
  struct VariantGeometry {
    Rect box;                                       ///< master bounding box
    std::vector<std::pair<std::size_t, Rect>> pins;  ///< (net id, rect), named pins
  };

  void updateBoxes(const Arrangement& a) {
    for (std::size_t i = 0; i < boxes_.size(); ++i)
      boxes_[i] = box(i, a.variant[i], a.xform[i]);
  }

  /// Weighted half-perimeter wirelength over the nets the chosen variants
  /// expose, summed in net-name order.
  double wirelength(const Arrangement& a) {
    std::fill(netSeen_.begin(), netSeen_.end(), 0);
    for (std::size_t i = 0; i < geometry_.size(); ++i) {
      for (const auto& [net, rect] : geometry_[i][a.variant[i]].pins) {
        const Rect r = a.xform[i].apply(rect);
        netBox_[net] = netSeen_[net] ? netBox_[net].unionWith(r) : r;
        netSeen_[net] = 1;
      }
    }
    double total = 0.0;
    for (std::size_t n = 0; n < netBox_.size(); ++n)
      if (netSeen_[n]) total += netWeight_[n] * static_cast<double>(netBox_[n].halfPerimeter());
    return total;
  }

  /// Axis: average pair midline; error: deviation from common axis +
  /// vertical misalignment + orientation mismatch.  Reads boxes_.
  double symmetryErrorOfBoxes(const Arrangement& a) const {
    double axisSum = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < peer_.size(); ++i) {
      if (peer_[i] < 0 || static_cast<std::size_t>(peer_[i]) < i) continue;
      const auto ca = boxes_[i].center();
      const auto cb = boxes_[static_cast<std::size_t>(peer_[i])].center();
      axisSum += 0.5 * static_cast<double>(ca.x + cb.x);
      ++pairs;
    }
    if (pairs == 0) return 0.0;
    const double axis = axisSum / static_cast<double>(pairs);
    double err = 0.0;
    for (std::size_t i = 0; i < peer_.size(); ++i) {
      if (peer_[i] < 0 || static_cast<std::size_t>(peer_[i]) < i) continue;
      const std::size_t j = static_cast<std::size_t>(peer_[i]);
      const auto ca = boxes_[i].center();
      const auto cb = boxes_[j].center();
      err += std::abs(static_cast<double>(ca.x + cb.x) / 2.0 - axis);
      err += std::abs(static_cast<double>(ca.y - cb.y));
      if (a.xform[j].orient != mirrored(a.xform[i].orient)) err += 50.0;
    }
    return err;
  }

  const std::vector<PlacementComponent>& components_;
  const PlacerOptions& opts_;
  std::vector<std::ptrdiff_t> peer_;  // index of symmetry partner or -1
  std::vector<std::vector<VariantGeometry>> geometry_;  // [component][variant]
  std::vector<double> netWeight_;                        // [net id]
  // Scratch, reused by every evaluation.
  std::vector<Rect> boxes_;
  std::vector<Rect> netBox_;
  std::vector<char> netSeen_;
};

Coord snap(Coord v, Coord grid) { return (v / grid) * grid; }

}  // namespace

Placement rowPlacement(const std::vector<PlacementComponent>& components,
                       const PlacerOptions& opts) {
  // Order: symmetric pairs adjacent, then the rest in declaration order.
  std::vector<std::size_t> order;
  std::set<std::size_t> done;
  for (std::size_t i = 0; i < components.size(); ++i) {
    if (done.count(i)) continue;
    order.push_back(i);
    done.insert(i);
    if (components[i].symmetryPeer) {
      for (std::size_t j = 0; j < components.size(); ++j)
        if (!done.count(j) && components[j].name == *components[i].symmetryPeer) {
          order.push_back(j);
          done.insert(j);
        }
    }
  }

  Placement result;
  Coord x = 0;
  std::vector<CellInstance> inst;
  for (std::size_t idx : order) {
    const auto& master = components[idx].variants.front();
    const Rect bb = master.boundingBox();
    Transform t;
    t.orient = Orientation::R0;
    t.dx = x - bb.x0;
    t.dy = -bb.y0;
    inst.push_back(CellInstance{components[idx].name, &master, t});
    result.variantChosen[components[idx].name] = 0;
    x += bb.width() + opts.spacing;
  }
  // Restore declaration order in the result for stable consumption.
  std::vector<CellInstance> ordered(components.size());
  for (std::size_t k = 0; k < order.size(); ++k) ordered[order[k]] = inst[k];
  result.instances = std::move(ordered);

  Rect bb;
  for (const auto& c : result.instances) bb = bb.unionWith(c.boundingBox());
  result.boundingBox = bb;
  result.wirelength = estimateWirelength(result.instances);
  result.overlapFree = !hasOverlaps(result.instances, opts.spacing);
  return result;
}

Placement placeCells(const std::vector<PlacementComponent>& components,
                     const PlacerOptions& opts) {
  AMSYN_SPAN("placement");
  if (components.empty()) throw std::invalid_argument("placeCells: nothing to place");
  for (const auto& c : components)
    if (c.variants.empty())
      throw std::invalid_argument("placeCells: component " + c.name + " has no variants");

  PlacerState placer(components, opts);

  // Start from the deterministic row placement (legal, finite cost).
  const Placement seed = rowPlacement(components, opts);
  Arrangement st;
  st.variant.assign(components.size(), 0);
  st.xform.resize(components.size());
  for (std::size_t i = 0; i < components.size(); ++i)
    st.xform[i] = seed.instances[i].placement;

  double overlapScale = 1.0;
  Arrangement prev = st;
  Arrangement best = st;
  double spread = 1.0;  // move range multiplier, shrinks over time
  std::size_t movesDone = 0;

  num::AnnealProblem prob;
  prob.cost = [&] { return placer.cost(st, overlapScale); };
  prob.propose = [&](num::Rng& rng) {
    prev = st;
    const std::size_t i = rng.index(components.size());
    const int kind = rng.integer(0, 7);
    const Coord range = std::max<Coord>(
        opts.gridStep, static_cast<Coord>(static_cast<double>(seed.boundingBox.width()) *
                                          0.25 * spread));
    switch (kind) {
      case 0:
      case 1: {  // translate (most common)
        st.xform[i].dx = snap(st.xform[i].dx + static_cast<Coord>(rng.integer(
                                                   -static_cast<int>(range),
                                                   static_cast<int>(range))),
                              opts.gridStep);
        st.xform[i].dy = snap(st.xform[i].dy + static_cast<Coord>(rng.integer(
                                                   -static_cast<int>(range),
                                                   static_cast<int>(range))),
                              opts.gridStep);
        break;
      }
      case 2: {  // reorient
        st.xform[i].orient = geom::kAllOrientations[rng.index(8)];
        break;
      }
      case 3: {  // swap positions with another component
        const std::size_t j = rng.index(components.size());
        std::swap(st.xform[i].dx, st.xform[j].dx);
        std::swap(st.xform[i].dy, st.xform[j].dy);
        break;
      }
      case 4: {  // refold: switch variant
        st.variant[i] = rng.index(components[i].variants.size());
        break;
      }
      case 6:
      case 7: {  // abut: snap component i to a random side of component j
        if (components.size() < 2) break;
        std::size_t j = rng.index(components.size());
        while (j == i) j = rng.index(components.size());
        const Rect ra = placer.box(i, st.variant[i], st.xform[i]);
        const Rect rb = placer.box(j, st.variant[j], st.xform[j]);
        Coord dx = 0, dy = 0;
        switch (rng.integer(0, 3)) {
          case 0:  // right of j
            dx = rb.x1 + opts.spacing - ra.x0;
            dy = rb.y0 - ra.y0;
            break;
          case 1:  // left of j
            dx = rb.x0 - opts.spacing - ra.x1;
            dy = rb.y0 - ra.y0;
            break;
          case 2:  // above j
            dx = rb.x0 - ra.x0;
            dy = rb.y1 + opts.spacing - ra.y0;
            break;
          default:  // below j
            dx = rb.x0 - ra.x0;
            dy = rb.y0 - opts.spacing - ra.y1;
            break;
        }
        st.xform[i].dx = snap(st.xform[i].dx + dx, opts.gridStep);
        st.xform[i].dy = snap(st.xform[i].dy + dy, opts.gridStep);
        break;
      }
      case 5: {  // symmetry snap: mirror the peer into place
        if (placer.peer(i) >= 0) {
          const std::size_t j = static_cast<std::size_t>(placer.peer(i));
          const Rect abb = placer.box(i, st.variant[i], st.xform[i]);
          // Mirror about the current overall bbox center.
          Rect bb;
          for (std::size_t k = 0; k < components.size(); ++k)
            bb = bb.unionWith(placer.box(k, st.variant[k], st.xform[k]));
          const Coord axis = bb.center().x;
          const Rect target = geom::mirrorX(abb, axis);
          st.variant[j] = st.variant[i];
          st.xform[j].orient = mirrored(st.xform[i].orient);
          // Position the peer so its bbox lands on the mirrored rect.
          const Rect bbb = placer.box(j, st.variant[j], Transform{st.xform[j].orient, 0, 0});
          st.xform[j].dx = target.x0 - bbb.x0;
          st.xform[j].dy = target.y0 - bbb.y0;
        }
        break;
      }
      default:
        break;
    }
    if (++movesDone % 256 == 0) {
      spread = std::max(0.05, spread * 0.92);
      overlapScale = std::min(64.0, overlapScale * 1.15);
    }
  };
  prob.undo = [&] { st = prev; };
  prob.snapshot = [&] { best = st; };

  num::AnnealOptions aopts = opts.anneal;
  aopts.seed = opts.seed;
  aopts.problemSizeHint = std::max<std::size_t>(components.size(), 8);
  const auto stats = num::anneal(prob, aopts);
  // KOAN-style placement traffic, distinct from the sizing anneals that
  // share the generic anneal.* counters.
  static const auto cMoves =
      core::metrics::registry().counter("place.moves_attempted");
  static const auto cAccepts =
      core::metrics::registry().counter("place.moves_accepted");
  core::metrics::add(cMoves, stats.movesAttempted);
  core::metrics::add(cAccepts, stats.movesAccepted);

  // Legalize the best solution if overlaps survived: push instances apart
  // along x in left-to-right order.
  auto inst = placer.instances(best);
  std::vector<std::size_t> order(inst.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return inst[a].boundingBox().x0 < inst[b].boundingBox().x0;
  });
  bool moved = true;
  std::size_t guard = 0;
  while (moved && guard++ < 64) {
    moved = false;
    for (std::size_t oi = 0; oi < order.size(); ++oi) {
      for (std::size_t oj = oi + 1; oj < order.size(); ++oj) {
        const std::size_t i = order[oi], j = order[oj];
        const Rect a = inst[i].boundingBox().inflated(opts.spacing / 2);
        const Rect b = inst[j].boundingBox().inflated(opts.spacing / 2);
        if (!a.overlaps(b)) continue;
        const Coord push = a.x1 - b.x0 + opts.gridStep;
        best.xform[j].dx += push;
        inst[j].placement.dx += push;
        moved = true;
      }
    }
  }

  Placement result;
  result.instances = placer.instances(best);
  for (std::size_t i = 0; i < components.size(); ++i)
    result.variantChosen[components[i].name] = best.variant[i];
  Rect bb;
  for (const auto& c : result.instances) bb = bb.unionWith(c.boundingBox());
  result.boundingBox = bb;
  result.wirelength = estimateWirelength(result.instances);
  result.overlapFree = !hasOverlaps(result.instances, opts.spacing);
  result.symmetryError = placer.symmetryError(best);
  result.stats = stats;

  // Best-of guarantee: post-legalization inflation can leave the annealed
  // result worse than the trivial row; never return worse than the seed.
  auto score = [&](const Placement& p) {
    return opts.areaWeight * static_cast<double>(p.boundingBox.area()) +
           opts.wireWeight * p.wirelength * 10.0 +
           (p.overlapFree ? 0.0 : 1e18);
  };
  if (score(seed) < score(result)) {
    Placement fallback = seed;
    fallback.stats = stats;
    return fallback;
  }
  return result;
}

}  // namespace amsyn::layout
