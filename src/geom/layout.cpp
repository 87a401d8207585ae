#include "geom/layout.hpp"

namespace amsyn::geom {

Rect CellMaster::boundingBox() const {
  Rect bb;
  for (const Shape& s : shapes) bb = bb.unionWith(s.rect);
  for (const Pin& p : pins) bb = bb.unionWith(p.rect);
  return bb;
}

std::vector<Pin> CellMaster::pinsOnNet(const std::string& net) const {
  std::vector<Pin> out;
  for (const Pin& p : pins)
    if (p.name == net) out.push_back(p);
  return out;
}

Rect CellInstance::boundingBox() const {
  return master ? placement.apply(master->boundingBox()) : Rect{};
}

std::vector<Shape> CellInstance::transformedShapes() const {
  std::vector<Shape> out;
  if (!master) return out;
  out.reserve(master->shapes.size());
  for (const Shape& s : master->shapes)
    out.push_back(Shape{s.layer, placement.apply(s.rect), s.net});
  return out;
}

std::vector<Pin> CellInstance::transformedPins() const {
  std::vector<Pin> out;
  if (!master) return out;
  out.reserve(master->pins.size());
  for (const Pin& p : master->pins)
    out.push_back(Pin{p.name, p.layer, placement.apply(p.rect)});
  return out;
}

Rect Layout::boundingBox() const {
  Rect bb;
  for (const CellInstance& inst : instances) bb = bb.unionWith(inst.boundingBox());
  for (const Shape& w : wires) bb = bb.unionWith(w.rect);
  return bb;
}

}  // namespace amsyn::geom
