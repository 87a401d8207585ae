#include "reference/extract_allpairs.hpp"

#include <algorithm>
#include <vector>

namespace amsyn::reference {

using geom::Coord;
using geom::Layer;
using geom::Shape;

namespace {

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

Coord projectionOverlap(Coord a0, Coord a1, Coord b0, Coord b1) {
  return std::max<Coord>(0, std::min(a1, b1) - std::max(a0, b0));
}

}  // namespace

extract::ExtractionResult extractAllPairs(const geom::Layout& layout,
                                          const circuit::Process& proc) {
  extract::ExtractionResult out;
  const double quarter = proc.lambda / 4.0;

  std::vector<Shape> shapes;
  for (const auto& w : layout.wires)
    if (!w.net.empty() && geom::isRoutingLayer(w.layer)) shapes.push_back(w);
  for (const auto& inst : layout.instances)
    for (const auto& s : inst.transformedShapes())
      if (!s.net.empty() && geom::isRoutingLayer(s.layer)) shapes.push_back(s);

  for (const auto& s : shapes) {
    const auto el = electricalsOf(s.layer, proc);
    const double w = static_cast<double>(std::min(s.rect.width(), s.rect.height())) * quarter;
    const double len =
        static_cast<double>(std::max(s.rect.width(), s.rect.height())) * quarter;
    auto& par = out.nets[s.net];
    par.groundCap += len * w * el.ca + 2.0 * (len + w) * el.cf;
    if (w > 0.0) par.resistance += el.rs * len / w;
  }

  for (std::size_t i = 0; i < shapes.size(); ++i) {
    for (std::size_t j = i + 1; j < shapes.size(); ++j) {
      const Shape& a = shapes[i];
      const Shape& b = shapes[j];
      if (a.layer != b.layer || a.net == b.net) continue;
      const Coord gap = a.rect.gapTo(b.rect);
      if (gap <= 0 || gap > kCouplingDistance) continue;
      const Coord run = std::max(
          projectionOverlap(a.rect.x0, a.rect.x1, b.rect.x0, b.rect.x1),
          projectionOverlap(a.rect.y0, a.rect.y1, b.rect.y0, b.rect.y1));
      if (run <= 0) continue;
      const double minSpace = proc.ruleMinSpacing * 4.0;
      const double c = proc.ccAdjacent * static_cast<double>(run) * quarter *
                       (minSpace / static_cast<double>(gap));
      out.nets[a.net].couplingTo[b.net] += c;
      out.nets[b.net].couplingTo[a.net] += c;
    }
  }
  return out;
}

}  // namespace amsyn::reference
