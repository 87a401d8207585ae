#include "sim/mna.hpp"

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace amsyn::sim {

using circuit::Device;
using circuit::DeviceType;
using circuit::kGround;
using circuit::MosOp;
using circuit::NodeId;

namespace {
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// Diode current with overflow-safe exponential (linearized above vCrit).
void diodeEval(double v, double isat, double vt, double& i, double& g) {
  constexpr double kMaxArg = 40.0;
  const double arg = v / vt;
  if (arg > kMaxArg) {
    const double e = std::exp(kMaxArg);
    i = isat * (e * (1.0 + (arg - kMaxArg)) - 1.0);
    g = isat * e / vt;
  } else {
    const double e = std::exp(arg);
    i = isat * (e - 1.0);
    g = isat * e / vt;
  }
  // Keep a floor conductance so reverse-biased diodes stay invertible.
  g += 1e-12;
}
}  // namespace

Mna::Mna(const Netlist& net, const Process& proc) : net_(net), proc_(proc) {
  nNodeUnknowns_ = net_.nodeCount() - 1;
  branchOfDevice_.assign(net_.devices().size(), kNone);
  std::size_t next = nNodeUnknowns_;
  for (std::size_t k = 0; k < net_.devices().size(); ++k) {
    const DeviceType t = net_.devices()[k].type;
    if (t == DeviceType::VSource || t == DeviceType::Vcvs || t == DeviceType::Inductor)
      branchOfDevice_[k] = next++;
  }
  nUnknowns_ = next;
}

std::size_t Mna::nodeIndex(NodeId n) const { return n == kGround ? kNone : n - 1; }

double Mna::nodeVoltage(const num::VecD& x, NodeId n) const {
  return n == kGround ? 0.0 : x.at(n - 1);
}

std::size_t Mna::branchIndex(std::size_t deviceIndex) const {
  return branchOfDevice_.at(deviceIndex);
}

void Mna::assemble(const num::VecD& x, const AssemblyOptions& opt, num::MatrixD* jacobian,
                   num::VecD* residual) const {
  const std::size_t n = nUnknowns_;
  if (x.size() != n) throw std::invalid_argument("Mna::assemble: state size mismatch");
  if (jacobian) {
    if (jacobian->rows() != n || jacobian->cols() != n) *jacobian = num::MatrixD(n, n);
    else jacobian->setZero();
  }
  if (residual) residual->assign(n, 0.0);

  auto v = [&](NodeId nd) { return nodeVoltage(x, nd); };
  auto addF = [&](NodeId nd, double val) {
    if (residual && nd != kGround) (*residual)[nd - 1] += val;
  };
  auto addFRow = [&](std::size_t row, double val) {
    if (residual) (*residual)[row] += val;
  };
  auto addJ = [&](NodeId row, NodeId col, double val) {
    if (jacobian && row != kGround && col != kGround) (*jacobian)(row - 1, col - 1) += val;
  };
  auto addJRowNode = [&](std::size_t row, NodeId col, double val) {
    if (jacobian && col != kGround) (*jacobian)(row, col - 1) += val;
  };
  auto addJNodeRow = [&](NodeId row, std::size_t col, double val) {
    if (jacobian && row != kGround) (*jacobian)(row - 1, col) += val;
  };
  auto addJRaw = [&](std::size_t row, std::size_t col, double val) {
    if (jacobian) (*jacobian)(row, col) += val;
  };

  const double vtherm = proc_.kT() / 1.602176634e-19;

  for (std::size_t k = 0; k < net_.devices().size(); ++k) {
    const Device& d = net_.devices()[k];
    switch (d.type) {
      case DeviceType::Resistor: {
        const NodeId a = d.nodes[0], b = d.nodes[1];
        const double g = 1.0 / d.value;
        const double i = g * (v(a) - v(b));
        addF(a, i);
        addF(b, -i);
        addJ(a, a, g); addJ(a, b, -g);
        addJ(b, b, g); addJ(b, a, -g);
        break;
      }
      case DeviceType::Capacitor:
        break;  // open at DC
      case DeviceType::Inductor: {
        const NodeId a = d.nodes[0], b = d.nodes[1];
        const std::size_t br = branchOfDevice_[k];
        const double i = x[br];
        addF(a, i);
        addF(b, -i);
        addJNodeRow(a, br, 1.0);
        addJNodeRow(b, br, -1.0);
        // Branch equation: a short at DC.
        addFRow(br, v(a) - v(b));
        addJRowNode(br, a, 1.0);
        addJRowNode(br, b, -1.0);
        break;
      }
      case DeviceType::VSource: {
        const NodeId p = d.nodes[0], m = d.nodes[1];
        const std::size_t br = branchOfDevice_[k];
        addF(p, x[br]);
        addF(m, -x[br]);
        addJNodeRow(p, br, 1.0);
        addJNodeRow(m, br, -1.0);
        const double val = d.value * opt.sourceScale;
        addFRow(br, v(p) - v(m) - val);
        addJRowNode(br, p, 1.0);
        addJRowNode(br, m, -1.0);
        break;
      }
      case DeviceType::ISource: {
        const NodeId from = d.nodes[0], to = d.nodes[1];
        const double val = d.value * opt.sourceScale;
        addF(from, val);
        addF(to, -val);
        break;
      }
      case DeviceType::Vcvs: {
        const NodeId p = d.nodes[0], m = d.nodes[1], cp = d.nodes[2], cm = d.nodes[3];
        const std::size_t br = branchOfDevice_[k];
        addF(p, x[br]);
        addF(m, -x[br]);
        addJNodeRow(p, br, 1.0);
        addJNodeRow(m, br, -1.0);
        addFRow(br, v(p) - v(m) - d.value * (v(cp) - v(cm)));
        addJRowNode(br, p, 1.0);
        addJRowNode(br, m, -1.0);
        addJRowNode(br, cp, -d.value);
        addJRowNode(br, cm, d.value);
        break;
      }
      case DeviceType::Vccs: {
        const NodeId p = d.nodes[0], m = d.nodes[1], cp = d.nodes[2], cm = d.nodes[3];
        const double i = d.value * (v(cp) - v(cm));
        addF(p, i);
        addF(m, -i);
        addJ(p, cp, d.value); addJ(p, cm, -d.value);
        addJ(m, cp, -d.value); addJ(m, cm, d.value);
        break;
      }
      case DeviceType::Diode: {
        const NodeId a = d.nodes[0], b = d.nodes[1];
        double i, g;
        diodeEval(v(a) - v(b), d.diodeIs, vtherm, i, g);
        addF(a, i);
        addF(b, -i);
        addJ(a, a, g); addJ(a, b, -g);
        addJ(b, b, g); addJ(b, a, -g);
        break;
      }
      case DeviceType::Mos: {
        const NodeId nd = d.nodes[0], ng = d.nodes[1], ns = d.nodes[2], nb = d.nodes[3];
        const double vd = v(nd), vg = v(ng), vs = v(ns), vb = v(nb);
        const MosOp op = circuit::evalMos(d.mos, proc_, vd, vg, vs, vb);
        addF(nd, op.ids);
        addF(ns, -op.ids);
        if (jacobian) {
          // Exact-to-model derivatives via central differences: robust across
          // region boundaries and the source/drain-swap branch of the model.
          constexpr double kH = 1e-6;
          const NodeId terms[4] = {nd, ng, ns, nb};
          double volts[4] = {vd, vg, vs, vb};
          for (int t = 0; t < 4; ++t) {
            double vp[4] = {volts[0], volts[1], volts[2], volts[3]};
            double vm[4] = {volts[0], volts[1], volts[2], volts[3]};
            vp[t] += kH;
            vm[t] -= kH;
            const double ip =
                circuit::evalMos(d.mos, proc_, vp[0], vp[1], vp[2], vp[3]).ids;
            const double im =
                circuit::evalMos(d.mos, proc_, vm[0], vm[1], vm[2], vm[3]).ids;
            const double didv = (ip - im) / (2.0 * kH);
            addJ(nd, terms[t], didv);
            addJ(ns, terms[t], -didv);
          }
        }
        break;
      }
    }
  }

  // gmin from every node to ground (Newton aid / dc path for floating nodes).
  if (opt.gmin > 0.0) {
    for (std::size_t i = 0; i < nNodeUnknowns_; ++i) {
      if (residual) (*residual)[i] += opt.gmin * x[i];
      addJRaw(i, i, opt.gmin);
    }
  }
}

void Mna::acMatrices(const num::VecD& xOp, num::MatrixD& g, num::MatrixD& c,
                     num::VecD& b) const {
  const std::size_t n = nUnknowns_;
  // G = static Jacobian at the operating point (all nonlinear devices
  // linearized), with a tiny gmin for numerical robustness.
  AssemblyOptions opt;
  opt.gmin = 1e-12;
  assemble(xOp, opt, &g, nullptr);

  c = num::MatrixD(n, n);
  b.assign(n, 0.0);

  auto v = [&](NodeId nd) { return nodeVoltage(xOp, nd); };
  auto addC = [&](NodeId a, NodeId bb, double cap) {
    const std::size_t ia = nodeIndex(a), ib = nodeIndex(bb);
    if (ia != std::numeric_limits<std::size_t>::max()) c(ia, ia) += cap;
    if (ib != std::numeric_limits<std::size_t>::max()) c(ib, ib) += cap;
    if (ia != std::numeric_limits<std::size_t>::max() &&
        ib != std::numeric_limits<std::size_t>::max()) {
      c(ia, ib) -= cap;
      c(ib, ia) -= cap;
    }
  };

  for (std::size_t k = 0; k < net_.devices().size(); ++k) {
    const Device& d = net_.devices()[k];
    switch (d.type) {
      case DeviceType::Capacitor:
        addC(d.nodes[0], d.nodes[1], d.value);
        break;
      case DeviceType::Inductor: {
        // Branch row already has v_a - v_b from the DC short equation; add
        // the -sL i term through C.
        const std::size_t br = branchOfDevice_[k];
        c(br, br) -= d.value;
        break;
      }
      case DeviceType::Mos: {
        const MosOp op = circuit::evalMos(d.mos, proc_, v(d.nodes[0]), v(d.nodes[1]),
                                          v(d.nodes[2]), v(d.nodes[3]));
        addC(d.nodes[1], d.nodes[2], op.cgs);
        addC(d.nodes[1], d.nodes[0], op.cgd);
        addC(d.nodes[1], d.nodes[3], op.cgb);
        addC(d.nodes[0], d.nodes[3], op.cdb);
        addC(d.nodes[2], d.nodes[3], op.csb);
        break;
      }
      case DeviceType::VSource: {
        const std::size_t br = branchOfDevice_[k];
        b[br] += d.acMag;
        break;
      }
      case DeviceType::ISource: {
        const std::size_t ia = nodeIndex(d.nodes[0]), ib = nodeIndex(d.nodes[1]);
        if (ia != std::numeric_limits<std::size_t>::max()) b[ia] -= d.acMag;
        if (ib != std::numeric_limits<std::size_t>::max()) b[ib] += d.acMag;
        break;
      }
      default:
        break;
    }
  }
}

std::vector<std::pair<std::string, MosOp>> Mna::mosOperatingPoints(const num::VecD& x) const {
  std::vector<std::pair<std::string, MosOp>> out;
  for (const Device& d : net_.devices()) {
    if (d.type != DeviceType::Mos) continue;
    out.emplace_back(d.name, circuit::evalMos(d.mos, proc_, nodeVoltage(x, d.nodes[0]),
                                              nodeVoltage(x, d.nodes[1]),
                                              nodeVoltage(x, d.nodes[2]),
                                              nodeVoltage(x, d.nodes[3])));
  }
  return out;
}

}  // namespace amsyn::sim
