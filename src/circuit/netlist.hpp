// Circuit netlist intermediate representation.  This is the hub of the whole
// system: the frontend sizes it, the simulator analyzes it, the symbolic tool
// linearizes it, and the backend lays it out.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "circuit/process.hpp"

namespace amsyn::circuit {

using NodeId = std::uint32_t;
inline constexpr NodeId kGround = 0;

enum class DeviceType : std::uint8_t {
  Resistor,
  Capacitor,
  Inductor,
  VSource,
  ISource,
  Vcvs,  ///< voltage-controlled voltage source (E)
  Vccs,  ///< voltage-controlled current source (G)
  Mos,
  Diode,
};

enum class MosType : std::uint8_t { Nmos, Pmos };

struct MosParams {
  MosType type = MosType::Nmos;
  double w = 10e-6;  ///< channel width (m)
  double l = 1e-6;   ///< channel length (m)
  int m = 1;         ///< parallel multiplicity
};

struct Device {
  DeviceType type = DeviceType::Resistor;
  std::string name;
  /// Terminal nodes. R/C/L/V/I: {a, b}; E/G: {out+, out-, ctrl+, ctrl-};
  /// MOS: {d, g, s, b}; Diode: {anode, cathode}.
  std::vector<NodeId> nodes;
  /// Primary value: ohms / farads / henries / volts / amps / gain.
  double value = 0.0;
  double acMag = 0.0;    ///< ac stimulus magnitude for V/I sources
  MosParams mos;         ///< valid when type == Mos
  double diodeIs = 1e-14;  ///< diode saturation current
};

/// Flat netlist with named nodes.  Node 0 is always ground ("0" / "gnd").
class Netlist {
 public:
  Netlist();

  /// Get-or-create a node by name.  "0" and "gnd" alias ground.
  NodeId node(const std::string& name);
  /// Lookup without creating; nullopt if unknown.
  std::optional<NodeId> findNode(const std::string& name) const;
  const std::string& nodeName(NodeId id) const { return nodeNames_.at(id); }
  std::size_t nodeCount() const { return nodeNames_.size(); }

  const std::vector<Device>& devices() const { return devices_; }
  std::vector<Device>& devices() { return devices_; }
  const Device& device(const std::string& name) const;

  // --- builders ---
  Device& addResistor(const std::string& name, const std::string& a, const std::string& b,
                      double ohms);
  Device& addCapacitor(const std::string& name, const std::string& a, const std::string& b,
                       double farads);
  Device& addInductor(const std::string& name, const std::string& a, const std::string& b,
                      double henries);
  Device& addVSource(const std::string& name, const std::string& plus, const std::string& minus,
                     double dc, double acMag = 0.0);
  Device& addISource(const std::string& name, const std::string& from, const std::string& to,
                     double dc, double acMag = 0.0);
  Device& addVcvs(const std::string& name, const std::string& outP, const std::string& outM,
                  const std::string& inP, const std::string& inM, double gain);
  Device& addVccs(const std::string& name, const std::string& outP, const std::string& outM,
                  const std::string& inP, const std::string& inM, double gm);
  Device& addMos(const std::string& name, const std::string& d, const std::string& g,
                 const std::string& s, const std::string& b, MosType type, double w, double l,
                 int m = 1);
  Device& addDiode(const std::string& name, const std::string& anode,
                   const std::string& cathode, double isat = 1e-14);

  /// Total MOS gate area (used as a crude active-area estimate).
  double totalGateArea() const;

 private:
  Device& add(Device d);
  std::vector<std::string> nodeNames_;
  std::map<std::string, NodeId> byName_;
  std::vector<Device> devices_;
};

}  // namespace amsyn::circuit
