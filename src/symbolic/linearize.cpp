#include "symbolic/linearize.hpp"

#include <numeric>
#include <stdexcept>
#include <vector>

namespace amsyn::symbolic {

using circuit::Device;
using circuit::DeviceType;
using circuit::NodeId;

std::size_t LinearizedCircuit::node(const std::string& name) const {
  auto it = nodeOf.find(name);
  if (it == nodeOf.end()) throw std::out_of_range("LinearizedCircuit: unknown node " + name);
  return it->second;
}

namespace {

constexpr double kMinConductance = 1e-12;  ///< skip symbols with smaller nominals

/// Union-find over netlist nodes: DC voltage sources short their terminals
/// for small-signal purposes.
class NodeMerger {
 public:
  explicit NodeMerger(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), std::size_t{0});
  }
  std::size_t find(std::size_t a) {
    while (parent_[a] != a) a = parent_[a] = parent_[parent_[a]];
    return a;
  }
  void merge(std::size_t a, std::size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    // Keep ground (0) as the representative of its class.
    if (b == 0) std::swap(a, b);
    parent_[b] = a;
  }

 private:
  std::vector<std::size_t> parent_;
};

}  // namespace

LinearizedCircuit linearize(const sim::Mna& mna, const sim::DcResult& op) {
  if (!op.converged) throw std::invalid_argument("linearize: op not converged");
  const auto& net = mna.netlist();

  NodeMerger merger(net.nodeCount());
  for (const Device& d : net.devices()) {
    // Pure DC supplies are AC grounds; sources carrying an AC stimulus are
    // signal inputs and must keep their node distinct.
    if (d.type == DeviceType::VSource && d.acMag == 0.0) merger.merge(d.nodes[0], d.nodes[1]);
    if (d.type == DeviceType::Vcvs || d.type == DeviceType::Inductor)
      throw std::invalid_argument("linearize: VCVS/inductor not supported (device " + d.name +
                                  ")");
  }

  // Assign compact symbolic indices to merged classes; ground class -> 0.
  std::vector<std::size_t> symIndex(net.nodeCount(), static_cast<std::size_t>(-1));
  std::size_t next = 1;
  symIndex[merger.find(circuit::kGround)] = 0;
  for (NodeId n = 0; n < net.nodeCount(); ++n) {
    const std::size_t root = merger.find(n);
    if (symIndex[root] == static_cast<std::size_t>(-1)) symIndex[root] = next++;
  }

  LinearizedCircuit out;
  out.circuit = SmallSignalCircuit(next);
  for (NodeId n = 0; n < net.nodeCount(); ++n)
    out.nodeOf[net.nodeName(n)] = symIndex[merger.find(n)];

  auto sNode = [&](NodeId n) { return symIndex[merger.find(n)]; };
  auto& c = out.circuit;
  const auto mosOps = mna.mosOperatingPoints(op.x);

  std::size_t mosIdx = 0;
  for (const Device& d : net.devices()) {
    switch (d.type) {
      case DeviceType::Resistor:
        c.addConductance("g_" + d.name, 1.0 / d.value, sNode(d.nodes[0]), sNode(d.nodes[1]));
        break;
      case DeviceType::Capacitor:
        if (d.value > 0)
          c.addCapacitance("c_" + d.name, d.value, sNode(d.nodes[0]), sNode(d.nodes[1]));
        break;
      case DeviceType::Vccs:
        c.addTransconductance("gm_" + d.name, d.value, sNode(d.nodes[0]), sNode(d.nodes[1]),
                              sNode(d.nodes[2]), sNode(d.nodes[3]));
        break;
      case DeviceType::Mos: {
        const auto& mop = mosOps.at(mosIdx++).second;
        const std::size_t nd = sNode(d.nodes[0]), ng = sNode(d.nodes[1]),
                          ns = sNode(d.nodes[2]), nb = sNode(d.nodes[3]);
        // Drain current ids = gm vgs + gds vds: gm injects into the drain
        // (leaves the source), i.e. current flows d -> s inside.
        if (mop.gm >= kMinConductance)
          c.addTransconductance("gm_" + d.name, mop.gm, nd, ns, ng, ns);
        if (mop.gds >= kMinConductance) c.addConductance("gds_" + d.name, mop.gds, nd, ns);
        if (mop.cgs > 0) c.addCapacitance("cgs_" + d.name, mop.cgs, ng, ns);
        if (mop.cgd > 0) c.addCapacitance("cgd_" + d.name, mop.cgd, ng, nd);
        if (mop.cgb > 0) c.addCapacitance("cgb_" + d.name, mop.cgb, ng, nb);
        if (mop.cdb > 0) c.addCapacitance("cdb_" + d.name, mop.cdb, nd, nb);
        if (mop.csb > 0) c.addCapacitance("csb_" + d.name, mop.csb, ns, nb);
        break;
      }
      case DeviceType::Diode: {
        // Linearized diode conductance at the operating point.
        const double v =
            mna.nodeVoltage(op.x, d.nodes[0]) - mna.nodeVoltage(op.x, d.nodes[1]);
        const double vt = mna.process().kT() / 1.602176634e-19;
        const double g = d.diodeIs / vt * std::exp(std::min(v / vt, 40.0));
        if (g >= kMinConductance)
          c.addConductance("gd_" + d.name, g, sNode(d.nodes[0]), sNode(d.nodes[1]));
        break;
      }
      case DeviceType::VSource:
      case DeviceType::ISource:
        break;  // AC short (already merged) / AC open
      default:
        break;
    }
  }
  return out;
}

}  // namespace amsyn::symbolic
