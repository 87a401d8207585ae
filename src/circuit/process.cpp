#include "circuit/process.hpp"

namespace amsyn::circuit {

const Process& defaultProcess() {
  static const Process p{};
  return p;
}

void hashProcess(core::Hasher128& h, const Process& p) {
  h.mixString("process");
  h.mixDouble(p.vdd).mixDouble(p.temperature);
  h.mixDouble(p.kpN).mixDouble(p.kpP).mixDouble(p.vt0N).mixDouble(p.vt0P);
  h.mixDouble(p.lambdaN).mixDouble(p.lambdaP).mixDouble(p.gammaN).mixDouble(p.gammaP);
  h.mixDouble(p.phiF2).mixDouble(p.cox).mixDouble(p.covPerW);
  h.mixDouble(p.cjArea).mixDouble(p.cjPerim);
  h.mixDouble(p.kfN).mixDouble(p.kfP).mixDouble(p.afExp);
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
