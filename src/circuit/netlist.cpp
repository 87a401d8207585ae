#include "circuit/netlist.hpp"

#include <stdexcept>

namespace amsyn::circuit {

Netlist::Netlist() {
  nodeNames_.push_back("0");
  byName_["0"] = kGround;
  byName_["gnd"] = kGround;
}

NodeId Netlist::node(const std::string& name) {
  auto it = byName_.find(name);
  if (it != byName_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(nodeNames_.size());
  nodeNames_.push_back(name);
  byName_[name] = id;
  return id;
}

std::optional<NodeId> Netlist::findNode(const std::string& name) const {
  auto it = byName_.find(name);
  if (it == byName_.end()) return std::nullopt;
  return it->second;
}

const Device& Netlist::device(const std::string& name) const {
  for (const Device& d : devices_)
    if (d.name == name) return d;
  throw std::out_of_range("Netlist::device: no device named " + name);
}

Device& Netlist::add(Device d) {
  devices_.push_back(std::move(d));
  return devices_.back();
}

Device& Netlist::addResistor(const std::string& name, const std::string& a,
                             const std::string& b, double ohms) {
  if (ohms <= 0) throw std::invalid_argument("resistor " + name + ": non-positive value");
  return add(Device{DeviceType::Resistor, name, {node(a), node(b)}, ohms, 0, {}, 0});
}

Device& Netlist::addCapacitor(const std::string& name, const std::string& a,
                              const std::string& b, double farads) {
  if (farads < 0) throw std::invalid_argument("capacitor " + name + ": negative value");
  return add(Device{DeviceType::Capacitor, name, {node(a), node(b)}, farads, 0, {}, 0});
}

Device& Netlist::addInductor(const std::string& name, const std::string& a,
                             const std::string& b, double henries) {
  if (henries <= 0) throw std::invalid_argument("inductor " + name + ": non-positive value");
  return add(Device{DeviceType::Inductor, name, {node(a), node(b)}, henries, 0, {}, 0});
}

Device& Netlist::addVSource(const std::string& name, const std::string& plus,
                            const std::string& minus, double dc, double acMag) {
  return add(Device{DeviceType::VSource, name, {node(plus), node(minus)}, dc, acMag, {}, 0});
}

Device& Netlist::addISource(const std::string& name, const std::string& from,
                            const std::string& to, double dc, double acMag) {
  return add(Device{DeviceType::ISource, name, {node(from), node(to)}, dc, acMag, {}, 0});
}

Device& Netlist::addVcvs(const std::string& name, const std::string& outP,
                         const std::string& outM, const std::string& inP,
                         const std::string& inM, double gain) {
  return add(Device{DeviceType::Vcvs, name,
                    {node(outP), node(outM), node(inP), node(inM)}, gain, 0, {}, 0});
}

Device& Netlist::addVccs(const std::string& name, const std::string& outP,
                         const std::string& outM, const std::string& inP,
                         const std::string& inM, double gm) {
  return add(Device{DeviceType::Vccs, name,
                    {node(outP), node(outM), node(inP), node(inM)}, gm, 0, {}, 0});
}

Device& Netlist::addMos(const std::string& name, const std::string& d, const std::string& g,
                        const std::string& s, const std::string& b, MosType type, double w,
                        double l, int m) {
  if (w <= 0 || l <= 0 || m < 1) throw std::invalid_argument("MOS " + name + ": bad geometry");
  Device dev{DeviceType::Mos, name, {node(d), node(g), node(s), node(b)}, 0, 0, {}, 0};
  dev.mos = MosParams{type, w, l, m};
  return add(std::move(dev));
}

Device& Netlist::addDiode(const std::string& name, const std::string& anode,
                          const std::string& cathode, double isat) {
  Device dev{DeviceType::Diode, name, {node(anode), node(cathode)}, 0, 0, {}, isat};
  return add(std::move(dev));
}

double Netlist::totalGateArea() const {
  double a = 0.0;
  for (const Device& d : devices_)
    if (d.type == DeviceType::Mos) a += d.mos.w * d.mos.l * d.mos.m;
  return a;
}

}  // namespace amsyn::circuit
