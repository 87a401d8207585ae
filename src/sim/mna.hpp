// Modified nodal analysis assembly.  The unknown vector is
//   x = [ v(1) .. v(N-1) | i(branch 0) .. i(branch B-1) ]
// where node 0 (ground) is eliminated and each voltage-defined element
// (V source, VCVS, inductor) contributes one branch-current unknown.
//
// One assembler serves every analysis: the DC Newton iteration asks for the
// nonlinear residual f(x) and Jacobian J(x), with capacitors open and
// inductors shorted; the AC/noise/AWE analyses ask for the linearized
// (G, C, b) triple at an operating point.
#pragma once

#include <string>
#include <vector>

#include "circuit/mosmodel.hpp"
#include "circuit/netlist.hpp"
#include "numeric/matrix.hpp"

namespace amsyn::sim {

using circuit::Netlist;
using circuit::Process;

struct AssemblyOptions {
  double sourceScale = 1.0;  ///< scales independent sources (source stepping)
  double gmin = 0.0;         ///< conductance from every node to ground
};

class Mna {
 public:
  Mna(const Netlist& net, const Process& proc);

  std::size_t size() const { return nUnknowns_; }
  std::size_t nodeUnknowns() const { return nNodeUnknowns_; }

  /// Index of a node voltage in x, or SIZE_MAX for ground.
  std::size_t nodeIndex(circuit::NodeId n) const;
  /// Voltage of node n under solution x (0 for ground).
  double nodeVoltage(const num::VecD& x, circuit::NodeId n) const;
  /// Branch-current index for voltage-defined device `deviceIndex`;
  /// SIZE_MAX when the device has no branch unknown.
  std::size_t branchIndex(std::size_t deviceIndex) const;

  /// Residual f(x) and (optionally) Jacobian J(x).  Sign convention: KCL
  /// rows sum currents *leaving* the node; a converged solution has f == 0.
  void assemble(const num::VecD& x, const AssemblyOptions& opt, num::MatrixD* jacobian,
                num::VecD* residual) const;

  /// Linearized system at operating point xOp: G x + s C x = b, where b holds
  /// the AC magnitudes of independent sources.  Inductor/source branch rows
  /// are included (the C matrix carries -L on inductor branch rows).
  void acMatrices(const num::VecD& xOp, num::MatrixD& g, num::MatrixD& c,
                  num::VecD& b) const;

  const Netlist& netlist() const { return net_; }
  const Process& process() const { return proc_; }

  /// Operating-point info for each MOS at solution x.
  std::vector<std::pair<std::string, circuit::MosOp>> mosOperatingPoints(
      const num::VecD& x) const;

 private:
  const Netlist& net_;
  const Process& proc_;
  std::size_t nNodeUnknowns_ = 0;
  std::size_t nUnknowns_ = 0;
  std::vector<std::size_t> branchOfDevice_;  // per device, SIZE_MAX if none
};

}  // namespace amsyn::sim
