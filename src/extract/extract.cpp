#include "extract/extract.hpp"

#include <algorithm>
#include <cmath>

namespace amsyn::extract {

using geom::Coord;
using geom::Layer;
using geom::Rect;
using geom::Shape;

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

/// Overlap of the projections of two rects along one axis.
Coord projectionOverlap(Coord a0, Coord a1, Coord b0, Coord b1) {
  return std::max<Coord>(0, std::min(a1, b1) - std::max(a0, b0));
}

}  // namespace

ExtractionResult extractParasitics(const geom::Layout& layout, const circuit::Process& proc) {
  ExtractionResult out;
  const double quarter = proc.lambda / 4.0;  // meters per grid unit

  // Collect all named routing shapes (wires plus in-device routing shapes).
  std::vector<Shape> shapes;
  for (const auto& w : layout.wires)
    if (!w.net.empty() && geom::isRoutingLayer(w.layer)) shapes.push_back(w);
  for (const auto& inst : layout.instances)
    for (const auto& s : inst.transformedShapes())
      if (!s.net.empty() && geom::isRoutingLayer(s.layer)) shapes.push_back(s);

  // Ground cap + resistance per net.
  for (const auto& s : shapes) {
    const auto el = electricalsOf(s.layer, proc);
    const double w = static_cast<double>(std::min(s.rect.width(), s.rect.height())) * quarter;
    const double len =
        static_cast<double>(std::max(s.rect.width(), s.rect.height())) * quarter;
    auto& par = out.nets[s.net];
    par.groundCap += len * w * el.ca + 2.0 * (len + w) * el.cf;
    if (w > 0.0) par.resistance += el.rs * len / w;
  }

  // Same-layer proximity coupling.
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    for (std::size_t j = i + 1; j < shapes.size(); ++j) {
      const Shape& a = shapes[i];
      const Shape& b = shapes[j];
      if (a.layer != b.layer || a.net == b.net) continue;
      const Coord gap = a.rect.gapTo(b.rect);
      if (gap <= 0 || gap > kCouplingDistance) continue;
      // Parallel-run length: the larger projection overlap.
      const Coord run = std::max(
          projectionOverlap(a.rect.x0, a.rect.x1, b.rect.x0, b.rect.x1),
          projectionOverlap(a.rect.y0, a.rect.y1, b.rect.y0, b.rect.y1));
      if (run <= 0) continue;
      // Coupling scales with run length and inversely with spacing relative
      // to the minimum design-rule spacing.
      const double minSpace = proc.ruleMinSpacing * 4.0;  // quarter-lambda
      const double c = proc.ccAdjacent * static_cast<double>(run) * quarter *
                       (minSpace / static_cast<double>(gap));
      out.nets[a.net].couplingTo[b.net] += c;
      out.nets[b.net].couplingTo[a.net] += c;
    }
  }
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
