#include "core/celllayout.hpp"

#include <algorithm>
#include <set>

#include "layout/cell/modgen.hpp"
#include "layout/cell/stack.hpp"

namespace amsyn::core {

using circuit::Device;
using circuit::DeviceType;

namespace {

/// Is this device physical layout material (vs. a testbench artifact)?
bool isPhysical(const Device& d) {
  switch (d.type) {
    case DeviceType::Mos:
      return true;
    case DeviceType::Resistor:
      return d.value < 5e5;   // >= 0.5 Mohm: bias helper / feedback element
    case DeviceType::Capacitor:
      return d.value < 1e-9;  // >= 1 nF: testbench decoupling
    default:
      return false;
  }
}

}  // namespace

CellLayoutResult layoutCellGeometry(const circuit::Netlist& net,
                                    const circuit::Process& proc,
                                    const CellLayoutOptions& opts) {
  CellLayoutResult result;
  result.matching = extract::generateMatchingConstraints(net);

  // --- build a physical-only netlist view for stacking ---
  circuit::Netlist physical;
  for (const auto& d : net.devices()) {
    if (!isPhysical(d)) continue;
    switch (d.type) {
      case DeviceType::Mos:
        physical.addMos(d.name, net.nodeName(d.nodes[0]), net.nodeName(d.nodes[1]),
                        net.nodeName(d.nodes[2]), net.nodeName(d.nodes[3]), d.mos.type,
                        d.mos.w, d.mos.l, d.mos.m);
        break;
      case DeviceType::Resistor:
        physical.addResistor(d.name, net.nodeName(d.nodes[0]), net.nodeName(d.nodes[1]),
                             d.value);
        break;
      case DeviceType::Capacitor:
        physical.addCapacitor(d.name, net.nodeName(d.nodes[0]), net.nodeName(d.nodes[1]),
                              d.value);
        break;
      default:
        break;
    }
  }

  // --- components: stacks + singles + passives ---
  std::vector<layout::PlacementComponent> components;
  std::set<std::string> stacked;

  if (opts.useStacking) {
    std::size_t stackId = 0;
    for (const auto& graph : layout::buildDiffusionGraphs(physical)) {
      const auto stacking = layout::greedyStacking(graph);
      for (const auto& stack : stacking.stacks) {
        if (stack.elements.size() < 2) continue;  // singles handled below
        std::vector<layout::StackedDevice> devs;
        for (const auto& el : stack.elements) {
          const auto& e = graph.edges[el.edge];
          layout::StackedDevice sd;
          sd.name = e.device;
          sd.mos = e.mos;
          sd.leftNet = graph.nets[el.flipped ? e.b : e.a];
          sd.gateNet = e.gateNet;
          sd.rightNet = graph.nets[el.flipped ? e.a : e.b];
          sd.bulkNet = e.bulkNet;
          devs.push_back(std::move(sd));
          stacked.insert(e.device);
        }
        layout::PlacementComponent comp;
        comp.name = "stack" + std::to_string(stackId++);
        comp.variants = {layout::generateMosStack(comp.name, devs, proc)};
        components.push_back(std::move(comp));
        result.stackedDevices += devs.size();
      }
    }
  }

  // Symmetric pairs among non-stacked devices.
  std::map<std::string, std::string> peerOf;
  for (const auto& mc : result.matching) {
    if (mc.kind != extract::MatchKind::DifferentialPair) continue;
    if (stacked.count(mc.deviceA) || stacked.count(mc.deviceB)) continue;
    peerOf[mc.deviceA] = mc.deviceB;
    peerOf[mc.deviceB] = mc.deviceA;
  }

  for (const auto& d : physical.devices()) {
    if (stacked.count(d.name)) continue;
    layout::PlacementComponent comp;
    comp.name = d.name;
    switch (d.type) {
      case DeviceType::Mos: {
        const std::string dn = physical.nodeName(d.nodes[0]);
        const std::string gn = physical.nodeName(d.nodes[1]);
        const std::string sn = physical.nodeName(d.nodes[2]);
        const std::string bn = physical.nodeName(d.nodes[3]);
        comp.variants.push_back(layout::generateMos(d.name, d.mos, dn, gn, sn, bn, proc));
        // Folding variants for wide devices (KOAN's dynamic-fold move).
        const double wLambda = d.mos.w * d.mos.m / proc.lambda;
        if (wLambda >= 40)
          comp.variants.push_back(layout::generateMos(d.name, d.mos, dn, gn, sn, bn, proc, 2));
        if (wLambda >= 120)
          comp.variants.push_back(layout::generateMos(d.name, d.mos, dn, gn, sn, bn, proc, 4));
        if (auto it = peerOf.find(d.name); it != peerOf.end()) comp.symmetryPeer = it->second;
        break;
      }
      case DeviceType::Resistor:
        comp.variants.push_back(layout::generateResistor(
            d.name, d.value, physical.nodeName(d.nodes[0]), physical.nodeName(d.nodes[1]),
            proc));
        break;
      case DeviceType::Capacitor:
        comp.variants.push_back(layout::generateCapacitor(
            d.name, d.value, physical.nodeName(d.nodes[0]), physical.nodeName(d.nodes[1]),
            proc));
        break;
      default:
        continue;
    }
    components.push_back(std::move(comp));
  }

  if (components.empty()) return result;  // nothing physical to lay out

  // --- placement + routing, with a deterministic-row fallback when the
  // annealed packing proves unroutable (KOAN/ANAGRAM ran exactly this kind
  // of retry loop between its placer and router) ---
  auto placeAndRoute = [&](bool annealed) {
    layout::PlacerOptions popts;
    popts.seed = opts.seed;
    result.placement =
        annealed ? layout::placeCells(components, popts) : layout::rowPlacement(components);

    // Every net with two or more pins, quiet, in name order.
    std::map<std::string, std::size_t> pinCount;
    for (const auto& inst : result.placement.instances)
      for (const auto& pin : inst.transformedPins()) ++pinCount[pin.name];
    std::vector<std::string> routeNets;
    for (const auto& [name, count] : pinCount)
      if (count >= 2 && !name.empty()) routeNets.push_back(name);

    result.routing = layout::routeCells(result.placement.instances, routeNets);
    result.layout = result.routing.layout;
    return result.placement.overlapFree && result.routing.allRouted;
  };

  bool ok = placeAndRoute(opts.annealPlacement);
  if (!ok && opts.annealPlacement) {
    ok = placeAndRoute(false);
    result.usedRowFallback = true;
  }
  (void)ok;

  // The instances point into the component masters; hand ownership to the
  // result so extraction (possibly a separate stage) sees live geometry.
  // Vector move steals the buffers, so the master addresses are unchanged.
  result.components = std::move(components);

  const auto bb = result.layout.boundingBox();
  result.areaLambda2 =
      static_cast<double>(bb.width()) / 4.0 * static_cast<double>(bb.height()) / 4.0;
  result.wirelengthLambda = result.routing.totalLengthLambda;
  result.success = result.placement.overlapFree && result.routing.allRouted;
  return result;
}

void extractCell(const circuit::Netlist& net, const circuit::Process& proc,
                 CellLayoutResult& result) {
  if (result.placement.instances.empty()) return;  // nothing was laid out
  result.parasitics = extract::extractParasitics(result.layout, proc);
  result.annotated = extract::backAnnotate(net, result.parasitics);
}

CellLayoutResult layoutCell(const circuit::Netlist& net, const circuit::Process& proc,
                            const CellLayoutOptions& opts) {
  auto result = layoutCellGeometry(net, proc, opts);
  extractCell(net, proc, result);
  return result;
}

}  // namespace amsyn::core
