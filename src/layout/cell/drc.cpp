#include "layout/cell/drc.hpp"

#include <algorithm>
#include <sstream>

namespace amsyn::layout {

using geom::Coord;
using geom::Layer;
using geom::Rect;
using geom::Shape;

std::string DrcViolation::describe() const {
  std::ostringstream out;
  out << (kind == Kind::Spacing ? "spacing" : "width") << " on " << geom::toString(layer)
      << ": " << value << " < " << required;
  if (kind == Kind::Spacing) out << " between '" << netA << "' and '" << netB << "'";
  else out << " on '" << netA << "'";
  return out.str();
}

std::vector<DrcViolation> checkDesignRules(const geom::Layout& layout,
                                           const circuit::Process& proc,
                                           const DrcOptions& opts) {
  std::vector<DrcViolation> out;
  const Coord minSpace = static_cast<Coord>(proc.ruleMinSpacing) * 4;
  const Coord minWidth = static_cast<Coord>(proc.ruleMinWidth) * 4;

  auto layerEnabled = [&](Layer l) {
    if (!geom::isRoutingLayer(l)) return false;
    if (opts.layers.empty()) return true;
    return std::find(opts.layers.begin(), opts.layers.end(), l) != opts.layers.end();
  };

  std::vector<Shape> shapes;
  for (const auto& w : layout.wires)
    if (layerEnabled(w.layer)) shapes.push_back(w);
  for (const auto& inst : layout.instances)
    for (const auto& s : inst.transformedShapes())
      if (layerEnabled(s.layer)) shapes.push_back(s);

  // Width checks.
  for (const auto& s : shapes) {
    const Coord w = std::min(s.rect.width(), s.rect.height());
    if (w < minWidth) {
      DrcViolation v;
      v.kind = DrcViolation::Kind::Width;
      v.layer = s.layer;
      v.a = s.rect;
      v.netA = s.net;
      v.value = w;
      v.required = minWidth;
      out.push_back(std::move(v));
    }
  }

  // Pairwise spacing (cells are small; quadratic is fine and exact).
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    for (std::size_t j = i + 1; j < shapes.size(); ++j) {
      const Shape& a = shapes[i];
      const Shape& b = shapes[j];
      if (a.layer != b.layer) continue;
      if (opts.sameNetExempt && a.net == b.net) continue;
      if (a.rect.overlaps(b.rect)) {
        DrcViolation v;
        v.layer = a.layer;
        v.a = a.rect;
        v.b = b.rect;
        v.netA = a.net;
        v.netB = b.net;
        v.value = 0;
        v.required = minSpace;
        out.push_back(std::move(v));
        continue;
      }
      const Coord gap = a.rect.gapTo(b.rect);
      if (gap < minSpace) {
        DrcViolation v;
        v.layer = a.layer;
        v.a = a.rect;
        v.b = b.rect;
        v.netA = a.net;
        v.netB = b.net;
        v.value = gap;
        v.required = minSpace;
        out.push_back(std::move(v));
      }
    }
  }
  return out;
}

}  // namespace amsyn::layout
