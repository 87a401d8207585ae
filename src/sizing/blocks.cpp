#include "sizing/blocks.hpp"

#include <cmath>
#include <stdexcept>

namespace amsyn::sizing {

using circuit::MosType;
using circuit::Netlist;
using circuit::Process;

OpampStructure OpampStructure::legacyTwoStage() {
  OpampStructure s;
  s.secondStage = true;
  s.comp = Compensation::Miller;
  return s;
}

bool OpampStructure::isLegacyOta() const {
  return input == Polarity::Nmos && !inputCascode && !loadCascode && !tailCascode &&
         !secondStage && !sinkCascode && comp == Compensation::None;
}

bool OpampStructure::isLegacyTwoStage() const {
  return input == Polarity::Nmos && !inputCascode && !loadCascode && !tailCascode &&
         secondStage && !sinkCascode && comp == Compensation::Miller;
}

std::string OpampStructure::name() const {
  if (isLegacyOta()) return "five-transistor-ota";
  if (isLegacyTwoStage()) return "two-stage-miller";
  // Token name: one token per occupied block slot, in stitch order.  Pure
  // function of the structure — the determinism contract rides on this.
  std::string n = "gen/";
  n += input == Polarity::Nmos ? "dpn" : "dpp";
  if (inputCascode) n += ".icas";
  n += loadCascode ? ".mirc" : ".mirs";
  n += tailCascode ? ".tailc" : ".tails";
  if (secondStage) {
    n += ".cs";
    if (sinkCascode) n += ".scas";
    n += comp == Compensation::MillerNulled ? ".milrz" : ".mil";
  }
  return n;
}

int OpampStructure::deviceCount() const {
  int c = 2;                   // differential pair
  if (inputCascode) c += 2;    // pair cascodes
  c += 2;                      // mirror load
  if (loadCascode) c += 2;     // mirror cascodes
  c += 1;                      // tail source
  if (tailCascode) c += 1;     // tail cascode
  c += 1;                      // bias diode
  if (secondStage) {
    c += 2;                    // driver + sink
    if (sinkCascode) c += 1;   // sink cascode
    c += 1;                    // Miller capacitor
    if (comp == Compensation::MillerNulled) c += 1;  // nulling resistor
  }
  return c;
}

bool OpampStructure::valid(std::string* why) const {
  auto reject = [&](const char* reason) {
    if (why) *why = reason;
    return false;
  };
  // A second stage turns the amplifier into a two-pole loop: Miller
  // compensation (plain or nulled) is mandatory.  Conversely the
  // compensation block bridges the stage-1/stage-2 nodes — without a second
  // stage there is nothing to bridge (the OTA's load cap is the pole).
  if (secondStage && comp == Compensation::None)
    return reject("two-stage structure requires Miller compensation");
  if (!secondStage && comp != Compensation::None)
    return reject("compensation block requires a second stage");
  if (sinkCascode && !secondStage)
    return reject("sink cascode requires a second stage");
  // Stacking cascodes on the pair, the load, *and* the tail leaves no
  // headroom for the input common mode at the supply these blocks are
  // characterized for — a fully telescopic-regulated stack is outside the
  // library's validity region.
  if (inputCascode && loadCascode && tailCascode)
    return reject("input+load+tail cascodes exceed the headroom budget");
  return true;
}

std::vector<DesignVariable> OpampStructure::variables() const {
  std::vector<DesignVariable> vars;
  vars.push_back({"i5", 2e-6, 2e-3, true});              // first-stage tail current
  if (secondStage) vars.push_back({"i7", 2e-6, 5e-3, true});  // second-stage current
  vars.push_back({"vov1", 0.08, 0.5, false});            // input-pair overdrive
  vars.push_back({"vov3", 0.10, 0.8, false});            // mirror overdrive
  vars.push_back({"vov5", 0.10, 0.8, false});            // tail / sink overdrive
  if (secondStage) vars.push_back({"vov6", 0.10, 0.8, false});  // output-driver overdrive
  if (inputCascode) vars.push_back({"vovc1", 0.08, 0.4, false});
  if (loadCascode) vars.push_back({"vovc3", 0.10, 0.5, false});
  if (tailCascode) vars.push_back({"vovc5", 0.10, 0.5, false});
  if (sinkCascode) vars.push_back({"vovc7", 0.10, 0.5, false});
  if (secondStage) vars.push_back({"cc", 0.2e-12, 2e-11, true});  // Miller capacitor
  if (comp == Compensation::MillerNulled)
    vars.push_back({"rzk", 1.05, 3.0, false});  // Rz = rzk / gm6 (zero-nulling ratio)
  return vars;
}

std::optional<std::size_t> OpampStructure::unreadVariable() const {
  if (!secondStage) return std::nullopt;
  return 5;  // i5, i7, vov1, vov3, vov5, vov6
}

std::vector<OpampStructure> enumerateOpampStructures() {
  std::vector<OpampStructure> out;
  // Plain nested loops over the block axes, filtered by the validity rules:
  // the enumeration order — and therefore the generated library's candidate
  // order — is a compile-time constant.
  for (const Polarity input : {Polarity::Nmos, Polarity::Pmos})
    for (const bool secondStage : {false, true})
      for (const bool inputCascode : {false, true})
        for (const bool loadCascode : {false, true})
          for (const bool tailCascode : {false, true})
            for (const bool sinkCascode : {false, true})
              for (const Compensation comp :
                   {Compensation::None, Compensation::Miller, Compensation::MillerNulled}) {
                OpampStructure s;
                s.input = input;
                s.inputCascode = inputCascode;
                s.loadCascode = loadCascode;
                s.tailCascode = tailCascode;
                s.secondStage = secondStage;
                s.sinkCascode = sinkCascode;
                s.comp = comp;
                if (s.valid()) out.push_back(s);
              }
  return out;
}

namespace {

/// W from the square law: W = 2 I L / (kp Vov^2), floored at the process
/// minimum width.
double widthFor(double i, double vov, double kp, double l, double minW) {
  return std::max(minW, 2.0 * i * l / (kp * vov * vov));
}

}  // namespace

ComposedGeometry composedGeometryFor(const OpampStructure& s, const std::vector<double>& x,
                                     const Process& proc) {
  // Unpack in stitch order (see OpampStructure::variables()).
  std::size_t k = 0;
  const double i5 = x[k++];
  const double i7 = s.secondStage ? x[k++] : 0.0;
  const double vov1 = x[k++];
  const double vov3 = x[k++];
  const double vov5 = x[k++];
  const double vov6 = s.secondStage ? x[k++] : 0.0;
  (void)vov6;  // pinned by the zero-offset constraint (see below)
  const double vovc1 = s.inputCascode ? x[k++] : 0.0;
  const double vovc3 = s.loadCascode ? x[k++] : 0.0;
  const double vovc5 = s.tailCascode ? x[k++] : 0.0;
  const double vovc7 = s.sinkCascode ? x[k++] : 0.0;
  const double cc = s.secondStage ? x[k++] : 0.0;
  const double rzk = s.comp == Compensation::MillerNulled ? x[k++] : 0.0;

  const double kpIn = s.input == Polarity::Nmos ? proc.kpN : proc.kpP;
  const double kpLoad = s.input == Polarity::Nmos ? proc.kpP : proc.kpN;

  ComposedGeometry g;
  const double l = g.l;
  g.w1 = widthFor(i5 / 2.0, vov1, kpIn, l, proc.minW);
  g.w3 = widthFor(i5 / 2.0, vov3, kpLoad, l, proc.minW);
  g.w5 = widthFor(i5, vov5, kpIn, l, proc.minW);
  if (s.inputCascode) g.wc1 = widthFor(i5 / 2.0, vovc1, kpIn, l, proc.minW);
  if (s.loadCascode) g.wc3 = widthFor(i5 / 2.0, vovc3, kpLoad, l, proc.minW);
  if (s.tailCascode) g.wc5 = widthFor(i5, vovc5, kpIn, l, proc.minW);
  if (s.secondStage) {
    // Zero-systematic-offset constraint (Allen & Holberg): the mirror pins
    // the driver's gate voltage to the mirror's, so vov6 = vov3 and W6
    // follows from the current ratio rather than from an independent
    // overdrive choice.  (The vov6 coordinate deliberately has no effect:
    // treating it as free is exactly the model-vs-circuit inconsistency
    // that made early equation-based tools produce designs that failed in
    // SPICE.)
    g.w6 = std::max(proc.minW, g.w3 * 2.0 * i7 / i5);
    g.w7 = widthFor(i7, vov5, kpIn, l, proc.minW);
    if (s.sinkCascode) g.wc7 = widthFor(i7, vovc7, kpIn, l, proc.minW);
    g.cc = cc;
    if (s.comp == Compensation::MillerNulled) {
      // Rz around 1/gm6 nulls the RHP zero; rzk > 1 pushes it to the LHP.
      const double vov6eff = std::sqrt(2.0 * i7 * l / (kpLoad * g.w6));
      const double gm6 = 2.0 * i7 / vov6eff;
      g.rz = rzk / gm6;
    }
  }
  g.ibias = 10e-6;
  // Bias diode sized for the same overdrive as the tail at the reference
  // current, so the mirror ratio sets I5.
  g.w8 = std::max(proc.minW, g.w5 * g.ibias / std::max(i5, 1e-9));
  return g;
}

Netlist buildComposedOpamp(const OpampStructure& s, const std::vector<double>& x,
                           const Process& proc, const OpampTestbench& tb) {
  std::string why;
  if (!s.valid(&why)) throw std::invalid_argument("buildComposedOpamp: " + why);
  if (x.size() != s.variables().size())
    throw std::invalid_argument("buildComposedOpamp: wrong dimension for " + s.name());

  const ComposedGeometry g = composedGeometryFor(s, x, proc);
  const bool nIn = s.input == Polarity::Nmos;
  const MosType tIn = nIn ? MosType::Nmos : MosType::Pmos;
  const MosType tLoad = nIn ? MosType::Pmos : MosType::Nmos;
  // Rails the device polarity classes hang from: the pair/tail side sits on
  // srcIn, the mirror side on srcLoad.  For the canonical NMOS-input
  // structure srcIn = "0", srcLoad = "vdd"; a PMOS pair mirrors everything.
  const std::string srcIn = nIn ? "0" : "vdd";
  const std::string srcLoad = nIn ? "vdd" : "0";
  const double l = g.l;

  Netlist net;
  // Supplies + bias reference.  The diode is always on the pair/tail side
  // (it mirrors the tail current), so a PMOS pair takes the flipped
  // reference pulling the bias current out of a PMOS diode.
  addOpampSupplies(net, proc, g.ibias, /*pmosDiode=*/!nIn);

  // Stage-1 output node: the two-stage structure inserts the internal node
  // "no1" the compensation bridges; single-stage drives "out" directly.
  const std::string s1out = s.secondStage ? "no1" : "out";

  // Differential pair (+ optional cascodes splitting the drain nodes).
  const std::string dl = s.inputCascode ? "n1a" : "n1";
  const std::string dr = s.inputCascode ? "n1b" : s1out;
  net.addMos("M1", dl, "inp", "tail", srcIn, tIn, g.w1, l);
  net.addMos("M2", dr, "inn", "tail", srcIn, tIn, g.w1, l);
  if (s.inputCascode) {
    const std::string rail = nIn ? "ncasn" : "ncasp";
    net.addMos("M1C", "n1", rail, "n1a", srcIn, tIn, g.wc1, l);
    net.addMos("M2C", s1out, rail, "n1b", srcIn, tIn, g.wc1, l);
  }

  // Current-mirror load (simple, or cascoded with the diode leg matching).
  if (!s.loadCascode) {
    net.addMos("M3", "n1", "n1", srcLoad, srcLoad, tLoad, g.w3, l);
    net.addMos("M4", s1out, "n1", srcLoad, srcLoad, tLoad, g.w3, l);
  } else {
    const std::string rail = nIn ? "ncasp" : "ncasn";
    net.addMos("M3", "n3a", "n1", srcLoad, srcLoad, tLoad, g.w3, l);
    net.addMos("M4", "n3b", "n1", srcLoad, srcLoad, tLoad, g.w3, l);
    net.addMos("M3C", "n1", rail, "n3a", srcLoad, tLoad, g.wc3, l);
    net.addMos("M4C", s1out, rail, "n3b", srcLoad, tLoad, g.wc3, l);
  }

  // Tail current source (optionally cascoded toward the pair).
  if (!s.tailCascode) {
    net.addMos("M5", "tail", "nbias", srcIn, srcIn, tIn, g.w5, l);
  } else {
    const std::string rail = nIn ? "ncasn" : "ncasp";
    net.addMos("M5C", "tail", rail, "n5c", srcIn, tIn, g.wc5, l);
    net.addMos("M5", "n5c", "nbias", srcIn, srcIn, tIn, g.w5, l);
  }

  // Second stage: common-source driver of the complementary polarity with a
  // bias-mirrored current-sink load (optionally cascoded).
  if (s.secondStage) {
    net.addMos("M6", "out", "no1", srcLoad, srcLoad, tLoad, g.w6, l);
    if (!s.sinkCascode) {
      net.addMos("M7", "out", "nbias", srcIn, srcIn, tIn, g.w7, l);
    } else {
      const std::string rail = nIn ? "ncasn" : "ncasp";
      net.addMos("M7C", "out", rail, "n7c", srcIn, tIn, g.wc7, l);
      net.addMos("M7", "n7c", "nbias", srcIn, srcIn, tIn, g.w7, l);
    }
  }

  // Bias diode.
  net.addMos("M8", "nbias", "nbias", srcIn, srcIn, tIn, g.w8, l);

  // Compensation across the second stage.
  if (s.comp == Compensation::Miller) {
    net.addCapacitor("CC", "no1", "out", g.cc);
  } else if (s.comp == Compensation::MillerNulled) {
    net.addCapacitor("CC", "no1", "nz", g.cc);
    net.addResistor("RZ", "nz", "out", g.rz);
  }

  // Cascode gate-bias rails (ideal references; deterministic functions of
  // the supply).  Added after the core so the legacy structures — which use
  // no rails — keep their historical device order byte-for-byte.
  const bool usesNRail = nIn ? (s.inputCascode || s.tailCascode || s.sinkCascode)
                             : s.loadCascode;
  const bool usesPRail = nIn ? s.loadCascode
                             : (s.inputCascode || s.tailCascode || s.sinkCascode);
  if (usesNRail) net.addVSource("VCASN", "ncasn", "0", proc.vdd * 0.35);
  if (usesPRail) net.addVSource("VCASP", "ncasp", "0", proc.vdd * 0.65);

  addOpampTestbench(net, tb);
  return net;
}

}  // namespace amsyn::sizing
