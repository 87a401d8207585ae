#include "sizing/opamp.hpp"

namespace amsyn::sizing {

using circuit::MosType;
using circuit::Netlist;
using circuit::Process;

double opampCapArea(double farads) { return farads / 1e-3; }

void addOpampSupplies(Netlist& net, const Process& proc, double ibias, bool pmosDiode) {
  net.addVSource("VDD", "vdd", "0", proc.vdd);
  if (pmosDiode)
    net.addISource("IBIAS", "nbias", "0", ibias);
  else
    net.addISource("IBIAS", "vdd", "nbias", ibias);
}

void addOpampTestbench(Netlist& net, const OpampTestbench& tb) {
  net.addVSource("VINP", "inp", "0", tb.vicm, 1.0);  // AC stimulus
  if (tb.dcFeedback) {
    // DC feedback through a huge RC pins the operating point while staying
    // open-loop for any measurement frequency >= 1 Hz.  The weak divider to
    // VCM removes the second (latched, output-at-rail) DC solution the pure
    // RC feedback would otherwise admit: if the output sat at a rail, the
    // divider would hold inn near vicm and the amplifier would drive the
    // output back toward mid-rail — a contradiction.
    net.addVSource("VCM", "vcm", "0", tb.vicm);
    net.addResistor("RFB", "out", "inn", 1e9);
    net.addResistor("RHELP", "inn", "vcm", 1e6);
    net.addCapacitor("CFB", "inn", "0", 1.0);
  } else {
    net.addVSource("VINN", "inn", "0", tb.vicm, 0.0);
  }
  net.addCapacitor("CL", "out", "0", tb.loadCap);
}

double TwoStageParams::activeArea(const circuit::Process& proc) const {
  (void)proc;
  const double gates = 2 * w1 * l + 2 * w3 * l + w5 * l + w6 * l + w7 * l + w8 * l;
  return gates + opampCapArea(cc);
}

Netlist buildTwoStageOpamp(const TwoStageParams& p, const Process& proc,
                           const OpampTestbench& tb) {
  Netlist net;
  addOpampSupplies(net, proc, p.ibias);

  // First stage: NMOS differential pair with PMOS mirror load.
  net.addMos("M1", "n1", "inp", "tail", "0", MosType::Nmos, p.w1, p.l);
  net.addMos("M2", "no1", "inn", "tail", "0", MosType::Nmos, p.w1, p.l);
  net.addMos("M3", "n1", "n1", "vdd", "vdd", MosType::Pmos, p.w3, p.l);
  net.addMos("M4", "no1", "n1", "vdd", "vdd", MosType::Pmos, p.w3, p.l);
  net.addMos("M5", "tail", "nbias", "0", "0", MosType::Nmos, p.w5, p.l);

  // Second stage: PMOS common source with NMOS current-sink load.
  net.addMos("M6", "out", "no1", "vdd", "vdd", MosType::Pmos, p.w6, p.l);
  net.addMos("M7", "out", "nbias", "0", "0", MosType::Nmos, p.w7, p.l);

  // Bias diode.
  net.addMos("M8", "nbias", "nbias", "0", "0", MosType::Nmos, p.w8, p.l);

  // Miller compensation.
  net.addCapacitor("CC", "no1", "out", p.cc);

  addOpampTestbench(net, tb);
  return net;
}

}  // namespace amsyn::sizing
