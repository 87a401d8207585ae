#include "layout/cell/modgen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace amsyn::layout {

using circuit::MosType;
using circuit::Process;
using geom::CellMaster;
using geom::Coord;
using geom::Layer;
using geom::Pin;
using geom::Rect;
using geom::Shape;

Coord toGrid(double meters, const Process& proc) {
  return static_cast<Coord>(std::llround(meters / proc.lambda * kQuarter));
}

namespace {

constexpr Coord lam(int lambdas) { return static_cast<Coord>(lambdas) * kQuarter; }

/// Width of one contacted diffusion region: contact + enclosure both sides.
Coord contactRegionWidth(const Process& proc) {
  return lam(proc.ruleContactSize + 2 * proc.ruleDiffContactEnclosure);
}

void addContactColumn(CellMaster& m, Coord x, Coord y0, Coord y1, const std::string& net,
                      Layer diffLayer, const Process& proc) {
  const Coord w = contactRegionWidth(proc);
  // Metal1 landing pad over the contacts.
  m.shapes.push_back({Layer::Metal1, {x, y0, x + w, y1}, net});
  // Contact cuts, spaced one cut per 2*contactSize of height.
  const Coord cut = lam(proc.ruleContactSize);
  const Coord enc = lam(proc.ruleDiffContactEnclosure);
  for (Coord y = y0 + enc; y + cut <= y1 - enc; y += 2 * cut) {
    m.shapes.push_back({Layer::Contact, {x + enc, y, x + enc + cut, y + cut}, net});
  }
  m.pins.push_back(Pin{net, Layer::Metal1, {x, y0, x + w, y1}});
  (void)diffLayer;
}

}  // namespace

CellMaster generateMos(const std::string& name, const circuit::MosParams& mos,
                       const std::string& drainNet, const std::string& gateNet,
                       const std::string& sourceNet, const std::string& bulkNet,
                       const Process& proc, int fingers) {
  if (fingers < 1) throw std::invalid_argument("generateMos: fingers >= 1");
  CellMaster m;
  m.name = name;

  const int nf = fingers;
  const Layer diff = mos.type == MosType::Nmos ? Layer::NDiff : Layer::PDiff;
  const Coord lg = std::max<Coord>(toGrid(mos.l, proc), lam(2));
  const Coord wFinger =
      std::max<Coord>(toGrid(mos.w * mos.m / nf, proc), lam(proc.ruleMinWidth));
  const Coord cw = contactRegionWidth(proc);
  const Coord ext = lam(proc.ruleGateExtension);

  // Diffusion strip with nf gates and nf+1 contacted regions.
  const Coord diffWidth = (nf + 1) * cw + nf * lg;
  const Coord y0 = 0, y1 = wFinger;
  m.shapes.push_back({diff, {0, y0, diffWidth, y1}, ""});

  // Contacted regions: alternate source / drain, source on the outside.
  Coord x = 0;
  for (int j = 0; j <= nf; ++j) {
    const std::string& net = (j % 2 == 0) ? sourceNet : drainNet;
    addContactColumn(m, x, y0, y1, net, diff, proc);
    x += cw;
    if (j < nf) {
      // Gate poly: vertical bar overlapping the diffusion plus extension.
      m.shapes.push_back({Layer::Poly, {x, y0 - ext, x + lg, y1 + ext}, gateNet});
      x += lg;
    }
  }

  // Gate strap along the top connecting every finger, with the gate pin.
  const Coord strapY0 = y1 + ext;
  const Coord strapY1 = strapY0 + lam(2);
  m.shapes.push_back({Layer::Poly, {cw, strapY0, diffWidth - cw, strapY1}, gateNet});
  for (int j = 0; j < nf; ++j) {
    const Coord gx = cw + j * (cw + lg);
    m.shapes.push_back({Layer::Poly, {gx, y1 + ext - lam(1), gx + lg, strapY1}, gateNet});
  }
  m.pins.push_back(Pin{gateNet, Layer::Poly, {cw, strapY0, diffWidth - cw, strapY1}});

  // Bulk tie strip below the device.
  const Coord tieY1 = y0 - ext - lam(1);
  const Coord tieY0 = tieY1 - lam(3);
  const Layer tieDiff = mos.type == MosType::Nmos ? Layer::PDiff : Layer::NDiff;
  m.shapes.push_back({tieDiff, {0, tieY0, diffWidth, tieY1}, bulkNet});
  m.shapes.push_back({Layer::Metal1, {0, tieY0, diffWidth, tieY1}, bulkNet});
  m.pins.push_back(Pin{bulkNet, Layer::Metal1, {0, tieY0, diffWidth, tieY1}});

  // Well for PMOS.
  if (mos.type == MosType::Pmos) {
    const Rect bb = m.boundingBox();
    m.shapes.push_back({Layer::NWell, bb.inflated(lam(proc.ruleWellEnclosure)), ""});
  }
  return m;
}

CellMaster generateMosStack(const std::string& name,
                            const std::vector<StackedDevice>& devices, const Process& proc) {
  if (devices.empty()) throw std::invalid_argument("generateMosStack: no devices");
  const MosType type = devices.front().mos.type;
  const double w = devices.front().mos.w * devices.front().mos.m;
  for (std::size_t i = 0; i + 1 < devices.size(); ++i) {
    if (devices[i].rightNet != devices[i + 1].leftNet)
      throw std::invalid_argument("generateMosStack: diffusion nets do not chain");
    if (devices[i + 1].mos.type != type)
      throw std::invalid_argument("generateMosStack: mixed device types");
    if (std::abs(devices[i + 1].mos.w * devices[i + 1].mos.m - w) > 0.05 * w)
      throw std::invalid_argument("generateMosStack: width mismatch > 5%");
  }

  CellMaster m;
  m.name = name;
  const Layer diff = type == MosType::Nmos ? Layer::NDiff : Layer::PDiff;
  const Coord wf = std::max<Coord>(toGrid(w, proc), lam(proc.ruleMinWidth));
  const Coord cw = contactRegionWidth(proc);
  const Coord ext = lam(proc.ruleGateExtension);

  Coord x = 0;
  // Leading contact.
  addContactColumn(m, x, 0, wf, devices.front().leftNet, diff, proc);
  x += cw;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const Coord lg = std::max<Coord>(toGrid(devices[i].mos.l, proc), lam(2));
    m.shapes.push_back({Layer::Poly, {x, -ext, x + lg, wf + ext}, devices[i].gateNet});
    // Per-device gate pin: a small poly tab above the gate.
    m.shapes.push_back(
        {Layer::Poly, {x, wf + ext, x + lg, wf + ext + lam(2)}, devices[i].gateNet});
    m.pins.push_back(
        Pin{devices[i].gateNet, Layer::Poly, {x, wf + ext, x + lg, wf + ext + lam(2)}});
    x += lg;
    addContactColumn(m, x, 0, wf, devices[i].rightNet, diff, proc);
    x += cw;
  }
  m.shapes.push_back({diff, {0, 0, x, wf}, ""});

  if (type == MosType::Pmos) {
    const Rect bb = m.boundingBox();
    m.shapes.push_back({Layer::NWell, bb.inflated(lam(proc.ruleWellEnclosure)), ""});
  }
  return m;
}

CellMaster generateResistor(const std::string& name, double ohms, const std::string& netA,
                            const std::string& netB, const Process& proc) {
  if (ohms <= 0) throw std::invalid_argument("generateResistor: non-positive value");
  CellMaster m;
  m.name = name;
  const double squares = ohms / proc.rsPoly;
  const Coord width = lam(proc.ruleMinWidth);
  const Coord totalLen = std::max<Coord>(
      static_cast<Coord>(std::llround(squares * static_cast<double>(width))), lam(4));

  // Serpentine: rows of at most 60 lambda, connected by end turns.
  const Coord rowLen = lam(60);
  const Coord pitch = width + lam(proc.ruleMinSpacing);
  Coord remaining = totalLen;
  Coord y = 0;
  bool leftToRight = true;
  Coord lastRowEndX = 0;
  while (remaining > 0) {
    const Coord len = std::min(remaining, rowLen);
    const Coord x0 = leftToRight ? 0 : rowLen - len;
    m.shapes.push_back({Layer::Poly, {x0, y, x0 + len, y + width}, name + ":body"});
    remaining -= len;
    lastRowEndX = leftToRight ? x0 + len : x0;
    if (remaining > 0) {
      // Turn: vertical connector at the row end.
      const Coord tx = leftToRight ? rowLen - width : 0;
      m.shapes.push_back({Layer::Poly, {tx, y, tx + width, y + pitch + width}, name + ":body"});
      y += pitch;
      leftToRight = !leftToRight;
    }
  }
  // Terminals.
  m.pins.push_back(Pin{netA, Layer::Poly, {0, 0, width, width}});
  m.pins.push_back(
      Pin{netB, Layer::Poly,
          {std::max<Coord>(lastRowEndX - width, 0), y, std::max<Coord>(lastRowEndX, width),
           y + width}});
  return m;
}

CellMaster generateCapacitor(const std::string& name, double farads, const std::string& netTop,
                             const std::string& netBottom, const Process& proc) {
  if (farads <= 0) throw std::invalid_argument("generateCapacitor: non-positive value");
  CellMaster m;
  m.name = name;
  // Poly-poly / MIM capacitor density ~1 fF/um^2.
  constexpr double kDensity = 1e-3;  // F/m^2 (poly-poly / MIM, ~1 fF/um^2)
  const double areaM2 = farads / kDensity;
  const double sideMeters = std::sqrt(areaM2);
  const Coord side = std::max<Coord>(toGrid(sideMeters, proc), lam(6));
  const Coord margin = lam(2);

  m.shapes.push_back({Layer::Metal1, {0, 0, side + 2 * margin, side + 2 * margin}, netBottom});
  m.shapes.push_back({Layer::Metal2, {margin, margin, margin + side, margin + side}, netTop});
  m.pins.push_back(Pin{netBottom, Layer::Metal1, {0, 0, margin, side + 2 * margin}});
  m.pins.push_back(
      Pin{netTop, Layer::Metal2, {margin, margin, margin + lam(2), margin + side}});
  return m;
}

}  // namespace amsyn::layout
