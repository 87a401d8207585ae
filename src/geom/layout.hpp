// Mask-level layout representation shared by the module generators, the
// KOAN-style placer, the ANAGRAM-style router and the parasitic extractor.
// A CellMaster is a bag of layer rectangles plus named pins; instances place
// masters under a Transform.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "geom/rect.hpp"
#include "geom/transform.hpp"

namespace amsyn::geom {

/// Mask layers of the synthetic 2-metal CMOS process used throughout amsyn.
enum class Layer : std::uint8_t {
  NDiff,     ///< n+ diffusion
  PDiff,     ///< p+ diffusion
  Poly,      ///< polysilicon (gates + short wires)
  Metal1,
  Metal2,
  Contact,   ///< diff/poly to metal1
  Via,       ///< metal1 to metal2
  NWell,
  PWell,
  Substrate  ///< marker layer for substrate-contact/guard-ring shapes
};

/// Is this a layer wires may be routed on?
constexpr bool isRoutingLayer(Layer l) {
  return l == Layer::Poly || l == Layer::Metal1 || l == Layer::Metal2;
}

/// One rectangle of mask geometry, tagged with the electrical net it
/// implements (empty for wells and bare diffusion).
struct Shape {
  Layer layer = Layer::Metal1;
  Rect rect;
  std::string net;
};

/// A named connection point of a cell: a rect on a routing layer.
struct Pin {
  std::string name;  ///< net/terminal name
  Layer layer = Layer::Metal1;
  Rect rect;
};

/// A reusable piece of layout (a generated device, a stack, or a block).
struct CellMaster {
  std::string name;
  std::vector<Shape> shapes;
  std::vector<Pin> pins;

  Rect boundingBox() const;

  /// Pins with the given net name (a master may expose a net at several
  /// physically equivalent points).
  std::vector<Pin> pinsOnNet(const std::string& net) const;
};

/// A placed instance of a master.
struct CellInstance {
  std::string name;
  const CellMaster* master = nullptr;
  Transform placement;

  Rect boundingBox() const;
  std::vector<Shape> transformedShapes() const;
  std::vector<Pin> transformedPins() const;
};

/// A flat assembled layout: instances plus routing shapes.
struct Layout {
  std::vector<CellInstance> instances;
  std::vector<Shape> wires;  ///< router-generated geometry

  Rect boundingBox() const;
};

}  // namespace amsyn::geom
