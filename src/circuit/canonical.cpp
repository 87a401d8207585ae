#include "circuit/canonical.hpp"

#include <algorithm>

namespace amsyn::circuit {

using core::cache::Digest128;
using core::cache::Hasher128;

core::cache::Digest128 canonicalDeviceDigest(const Netlist& net, const Device& d) {
  Hasher128 h;
  h.mix(static_cast<std::uint64_t>(d.type));
  h.mix(d.nodes.size());
  for (NodeId n : d.nodes) h.mixString(net.nodeName(n));
  h.mixDouble(d.value);
  h.mixDouble(d.acMag);
  if (d.type == DeviceType::Mos) {
    h.mix(static_cast<std::uint64_t>(d.mos.type));
    h.mixDouble(d.mos.w).mixDouble(d.mos.l);
    h.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(d.mos.m)));
    h.mixDouble(d.mos.vtShift).mixDouble(d.mos.betaScale);
  }
  if (d.type == DeviceType::Diode) h.mixDouble(d.diodeIs);
  return h.digest();
}

core::cache::Digest128 canonicalNetlistDigest(const Netlist& net) {
  std::vector<Digest128> records;
  records.reserve(net.devices().size());
  for (const Device& d : net.devices()) records.push_back(canonicalDeviceDigest(net, d));
  // Sorting the per-device digests is what erases declaration order while
  // keeping duplicates (parallel devices) distinct contributions.
  std::sort(records.begin(), records.end());
  Hasher128 h;
  h.mixString("netlist");
  h.mix(records.size());
  for (const Digest128& r : records) h.mixDigest(r);
  return h.digest();
}

void hashProcess(core::cache::Hasher128& h, const Process& p) {
  h.mixString("process");
  h.mixDouble(p.vdd).mixDouble(p.temperature);
  h.mixDouble(p.kpN).mixDouble(p.kpP).mixDouble(p.vt0N).mixDouble(p.vt0P);
  h.mixDouble(p.lambdaN).mixDouble(p.lambdaP).mixDouble(p.gammaN).mixDouble(p.gammaP);
  h.mixDouble(p.phiF2).mixDouble(p.cox).mixDouble(p.covPerW);
  h.mixDouble(p.cjArea).mixDouble(p.cjPerim);
  h.mixDouble(p.kfN).mixDouble(p.kfP).mixDouble(p.afExp);
  h.mixDouble(p.avt).mixDouble(p.abeta);
  h.mixDouble(p.minL).mixDouble(p.minW).mixDouble(p.lambda);
  h.mixDouble(p.rsPoly).mixDouble(p.rsMetal1).mixDouble(p.rsMetal2).mixDouble(p.rsDiff);
  h.mixDouble(p.rContact);
  h.mixDouble(p.caPoly).mixDouble(p.caMetal1).mixDouble(p.caMetal2);
  h.mixDouble(p.cfPoly).mixDouble(p.cfMetal1).mixDouble(p.cfMetal2);
  h.mixDouble(p.ccAdjacent).mixDouble(p.jMaxMetal).mixDouble(p.metalThickness);
  h.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(p.ruleMinWidth)));
  h.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(p.ruleMinSpacing)));
  h.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(p.ruleContactSize)));
  h.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(p.ruleGateExtension)));
  h.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(p.ruleDiffContactEnclosure)));
  h.mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(p.ruleWellEnclosure)));
}

}  // namespace amsyn::circuit
