// Sparse MNA assembly: a fixed stamp plan over the union sparsity pattern
// of one Mna system, with struct-of-arrays device evaluation.
//
// SparseMna is the sparse twin of Mna::assemble / Mna::acMatrices.  At
// construction it walks the netlist once, registers every matrix position
// any analysis can touch — DC stamps, transient companion stamps, the AC
// C-matrix stamps, and the gmin diagonal — and freezes them into one CSC
// structure plus per-device slot handles.  Every subsequent assembly is
// two phases:
//
//   1. evaluation, batched per device type (struct-of-arrays): all MOS
//      model calls — the 9 evalMos invocations per device that dominate
//      assembly cost — run back to back over contiguous arrays, as do the
//      diode exponentials and resistor currents, instead of interleaving
//      with stamping in one big per-device switch;
//   2. stamping, in netlist declaration order with the exact add sequence
//      of the dense assembler, into precomputed value slots.
//
// Phase 2's ordering discipline is what keeps the sparse path bit-exact:
// every matrix entry and residual component is the same rounded sum of the
// same stamps in the same order the dense path produces, so a factorization
// that replays dense arithmetic (num::SparseLu) yields
// bit-identical solutions.  The union pattern makes mode switches free —
// positions a given analysis does not use simply hold explicit zeros, which
// is also what the dense matrix holds there.
#pragma once

#include <cstddef>
#include <vector>

#include "core/evalcache.hpp"  // Hasher128 / Digest128 (header-only)
#include "numeric/sparse_lu.hpp"
#include "sim/mna.hpp"

namespace amsyn::sim {

class SparseMna {
 public:
  /// Builds the stamp plan.  Keeps a reference to `mna` (and through it the
  /// netlist): the SparseMna must not outlive either.
  explicit SparseMna(const Mna& mna);

  std::size_t size() const { return n_; }
  const Mna& mna() const { return mna_; }

  /// The fixed structure; `csc().val` holds the most recently assembled
  /// Jacobian values.
  const num::CscMatrix<double>& csc() const { return a_; }
  const std::vector<double>& values() const { return a_.val; }

  /// Digest of (n, colPtr, row) — the key under which structure-identical
  /// systems share one symbolic factorization (sim/solver.hpp).
  const core::cache::Digest128& patternDigest() const { return digest_; }

  /// Sparse analogue of Mna::assemble over the fixed pattern.  With
  /// wantJacobian the matrix values are refreshed in csc().val; residual
  /// (when non-null) is filled exactly as the dense assembler fills it.
  void assemble(const num::VecD& x, const AssemblyOptions& opt, bool wantJacobian,
                num::VecD* residual);

  /// Sparse analogue of Mna::acMatrices: G and C values over the same
  /// pattern plus the AC stimulus vector.
  void acValues(const num::VecD& xOp, std::vector<double>& gVals,
                std::vector<double>& cVals, num::VecD& b);

 private:
  struct TwoNodeStamp {  // conductance-style stamp between nodes a and b
    circuit::NodeId a = 0, b = 0;
    std::size_t fa = 0, fb = 0;                      // residual rows (kNoRow = ground)
    std::size_t jaa = 0, jab = 0, jbb = 0, jba = 0;  // slot handles
  };
  struct ResistorRec {
    TwoNodeStamp s;
    double g = 0.0;  // 1/R, fixed per netlist
  };
  struct CapacitorRec {
    TwoNodeStamp s;
    std::size_t dev = 0;
    double value = 0.0;
  };
  struct DiodeRec {
    TwoNodeStamp s;
    double isat = 0.0;
  };
  struct InductorRec {
    std::size_t dev = 0;
    circuit::NodeId a = 0, b = 0;
    std::size_t fa = 0, fb = 0, br = 0;
    std::size_t jabr = 0, jbbr = 0, jbra = 0, jbrb = 0, jbrbr = 0;
    double value = 0.0;
  };
  struct VSourceRec {
    std::size_t dev = 0;
    circuit::NodeId p = 0, m = 0;
    std::size_t fp = 0, fm = 0, br = 0;
    std::size_t jpbr = 0, jmbr = 0, jbrp = 0, jbrm = 0;
  };
  struct ISourceRec {
    std::size_t dev = 0;
    std::size_t fa = 0, fb = 0;
  };
  struct VcvsRec {
    std::size_t dev = 0;
    circuit::NodeId p = 0, m = 0, cp = 0, cm = 0;
    std::size_t fp = 0, fm = 0, br = 0;
    std::size_t jpbr = 0, jmbr = 0, jbrp = 0, jbrm = 0, jbrcp = 0, jbrcm = 0;
  };
  struct VccsRec {
    circuit::NodeId cp = 0, cm = 0;
    std::size_t fp = 0, fm = 0;
    std::size_t jpcp = 0, jpcm = 0, jmcp = 0, jmcm = 0;
    double value = 0.0;
  };
  struct MosRec {
    std::size_t dev = 0;
    std::size_t fd = 0, fs = 0;        // drain/source residual rows
    std::size_t jd[4] = {}, js[4] = {};  // rows {d, s} x terminals {d,g,s,b}
    TwoNodeStamp caps[5];              // gs, gd, gb, db, sb companion stamps
  };
  struct Rec {
    circuit::DeviceType type;
    std::size_t idx;  // into the per-type array
  };

  const Mna& mna_;
  std::size_t n_ = 0;
  num::CscMatrix<double> a_;
  std::vector<std::size_t> slotOf_;  // stamp handle -> value slot
  core::cache::Digest128 digest_;

  std::vector<Rec> recs_;  // declaration order
  std::vector<ResistorRec> resistors_;
  std::vector<CapacitorRec> capacitors_;
  std::vector<DiodeRec> diodes_;
  std::vector<InductorRec> inductors_;
  std::vector<VSourceRec> vsources_;
  std::vector<ISourceRec> isources_;
  std::vector<VcvsRec> vcvs_;
  std::vector<VccsRec> vccs_;
  std::vector<MosRec> mos_;
  std::vector<std::size_t> gminSlots_;  // node-diagonal slots

  // Phase-1 evaluation batches (struct of arrays), refreshed per assemble.
  std::vector<double> resCur_;                 // resistor currents
  std::vector<double> dioCur_, dioCond_;       // diode i, g
  std::vector<circuit::MosOp> mosOp_;          // model evaluation per MOS
  std::vector<double> mosDidv_;                // 4 derivatives per MOS
};

}  // namespace amsyn::sim
