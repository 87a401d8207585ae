// General (non-SPD) sparse LU with split symbolic / numeric factorization.
//
// It covers the unsymmetric MNA case: Jacobians and (G + jwC) systems
// whose *structure* is fixed per netlist while their *values* change on
// every Newton iteration, continuation rung, and frequency point.  The factorization is therefore split:
//
//   analyze  - one pass that records the pivot sequence, the fill pattern
//              of L and U, and the pivot candidate scan order.
//              O(n^2 + flops), run once per matrix structure (and
//              shareable across structure-identical systems via
//              SparseLu::adoptSymbolic / symbolic()).
//   refactor - numeric-only replay against the cached pattern: O(factor
//              flops), no allocation, no graph work.  Each column's pivot
//              choice is re-verified against the cached sequence; when the
//              values have drifted enough that partial pivoting would pick
//              a different row, the factorization transparently re-analyzes
//              (counted in pivotDriftCount()) so accuracy never degrades.
//
// Dense compatibility.  Columns are eliminated in their natural order, so
// the elimination performs *exactly* the arithmetic of the dense num::LU<T>
// kernel — same pivot sequence (largest magnitude, earliest simulated
// physical row on ties), same per-entry update order, same skip of zero
// multipliers (the dense kernel skips them too), and solves that accumulate
// in the same direction (U is mirrored into row-major form for back
// substitution).  Factor and solve results are bit-identical to the dense
// path on every structurally-reachable entry, which is what lets sim/ swap
// solvers under a differential bit-identity harness.  (The one documented
// exception is the sign of exact zeros: the dense kernel "subtracts"
// products with structurally-zero operands, which can flip -0.0 to +0.0 in
// pathological intermediates.  tests/sparse_test.cpp probes this does not
// occur on the supported circuit families.)
//
// Guard rails.  fillRatio() reports how dense the factors got, and two
// guards let callers bail back to dense LU: maxFillRatio rejects analyses
// whose factors densify, and maxPivotGrowth rejects numerically wild
// factorizations (max|U| / max|A|).
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace amsyn::num {

/// Compressed-sparse-column matrix with a fixed structure and refreshable
/// values.  `row` is ascending within each column; duplicates are collapsed
/// by CscBuilder at build time so assembly is add-into-slot.
template <typename T>
struct CscMatrix {
  std::size_t n = 0;               ///< square dimension
  std::vector<std::size_t> colPtr; ///< n+1 offsets into row/val
  std::vector<std::size_t> row;    ///< row index per entry
  std::vector<T> val;              ///< value per entry
};

/// Registers (row, col) stamp positions — duplicates allowed — and
/// finalizes them into a CscMatrix plus a handle->slot map, so per-iteration
/// assembly is `fill(val, 0); val[slot] += stamp;`.
class CscBuilder {
 public:
  explicit CscBuilder(std::size_t n) : n_(n) {}

  /// Register one position; returns a handle resolved by finalize().
  std::size_t add(std::size_t r, std::size_t c) {
    entries_.push_back({r, c});
    return entries_.size() - 1;
  }

  std::size_t dimension() const { return n_; }

  /// Build the deduplicated structure (values zero-initialized).
  /// slotOf[handle] is the value index of each registered position.
  template <typename T>
  CscMatrix<T> finalize(std::vector<std::size_t>& slotOf) const;

 private:
  struct Pos {
    std::size_t r, c;
  };
  std::size_t n_;
  std::vector<Pos> entries_;
};

/// How a factor request ended.  ExcessFill / PivotGrowth mean the factor
/// data is invalid and the caller should fall back to the dense kernel
/// (which, in DenseCompatible use, produces the identical result anyway).
enum class SparseLuStatus {
  Ok,
  Singular,     ///< structurally or numerically singular (dense LU throws here)
  ExcessFill,   ///< nnz(L+U) exceeded maxFillRatio * n^2 during analysis
  PivotGrowth,  ///< max|U| / max|A| exceeded maxPivotGrowth
};

struct SparseLuOptions {
  /// Analysis fails with ExcessFill when nnz(L+U+D) > maxFillRatio * n^2.
  double maxFillRatio = 1.0;
  /// Factor fails with PivotGrowth when max|U| / max|A| exceeds this;
  /// 0 disables the check.
  double maxPivotGrowth = 0.0;
};

/// Immutable result of one symbolic analysis: pivot sequence, factor
/// patterns, and the scan/permutation tables needed to replay numerics.
/// Pattern-only (no values), so one analysis is shared across
/// structure-identical systems of either scalar type — the adopter's
/// refactor re-verifies the pivot sequence against its own values.
struct SparseLuSymbolic {
  std::size_t n = 0;
  std::size_t aNnz = 0;  ///< entry count of the analyzed matrix (sanity check)
  std::vector<std::size_t> pivotRow;   ///< step j -> original row chosen as pivot
  std::vector<std::size_t> stepOfRow;  ///< original row -> elimination step
  // Scatter pattern per column (original rows incl. fill), for zeroing the
  // work vector between columns.
  std::vector<std::size_t> patPtr, patRow;
  // Pivot-candidate scan per column: uneliminated pattern rows in the dense
  // kernel's physical scan order.  candDiag[j] != 0 when the row sitting at
  // the diagonal's physical slot is itself in the pattern (it then seeds
  // the strict-greater magnitude scan, exactly like the dense kernel).
  std::vector<std::size_t> candPtr, candRow;
  std::vector<unsigned char> candDiag;
  // U columns: source elimination steps, ascending (matches the dense
  // kernel's left-to-right update order).
  std::vector<std::size_t> uPtr, uStep;
  // L columns: entries sorted by target step (lRowStep) with the original
  // row kept alongside for value gathers during refactor.
  std::vector<std::size_t> lPtr, lRowStep, lRowOrig;
  // Row-major mirror of U for back substitution (ascending columns within a
  // row, as the dense kernel accumulates), mapped back to CSC value slots.
  std::vector<std::size_t> uCsrPtr, uCsrCol, uCsrFromCsc;

  std::size_t factorNonzeros() const { return lRowStep.size() + uStep.size() + n; }
  double fillRatio() const {
    return n == 0 ? 0.0
                  : static_cast<double>(factorNonzeros()) /
                        (static_cast<double>(n) * static_cast<double>(n));
  }
};

template <typename T>
class SparseLu {
 public:
  explicit SparseLu(SparseLuOptions opts = {}) : opts_(opts) {}

  /// Factor `a`: numeric-only replay when a symbolic analysis for this
  /// structure is already held (own or adopted), full analysis otherwise.
  /// On anything but Ok the factor data is invalid.
  SparseLuStatus factor(const CscMatrix<T>& a);

  bool haveSymbolic() const { return sym_ != nullptr; }
  std::shared_ptr<const SparseLuSymbolic> symbolic() const { return sym_; }

  /// Adopt a symbolic analysis produced for the *same matrix structure*
  /// (same n, same pattern) — e.g. from a process-wide pattern cache.  The
  /// next factor() replays it numerically, re-analyzing on pivot drift.
  void adoptSymbolic(std::shared_ptr<const SparseLuSymbolic> sym) {
    sym_ = std::move(sym);
    factored_ = false;
  }

  /// Solve A x = b / A^T x = b against the last successful factor().
  std::vector<T> solve(const std::vector<T>& b) const;
  std::vector<T> solveTransposed(const std::vector<T>& b) const;

  std::size_t factorNonzeros() const { return sym_ ? sym_->factorNonzeros() : 0; }
  double fillRatio() const { return sym_ ? sym_->fillRatio() : 0.0; }
  /// max|U| / max|A| of the last successful factorization.
  double pivotGrowth() const { return growth_; }

  std::uint64_t analyzeCount() const { return analyzeCount_; }
  std::uint64_t refactorCount() const { return refactorCount_; }
  std::uint64_t pivotDriftCount() const { return pivotDriftCount_; }

 private:
  SparseLuStatus analyze(const CscMatrix<T>& a);
  SparseLuStatus refactor(const CscMatrix<T>& a);

  SparseLuOptions opts_;
  std::shared_ptr<const SparseLuSymbolic> sym_;
  bool factored_ = false;
  double growth_ = 0.0;
  // Numeric payload aligned with sym_'s patterns.
  std::vector<T> lVal_;     ///< L entries (unit diagonal implicit), CSC order
  std::vector<T> uVal_;     ///< U off-diagonal entries, CSC order
  std::vector<T> uCsrVal_;  ///< U off-diagonal entries, CSR mirror
  std::vector<T> dVal_;     ///< U diagonal (the pivots)
  std::uint64_t analyzeCount_ = 0;
  std::uint64_t refactorCount_ = 0;
  std::uint64_t pivotDriftCount_ = 0;
};

using SparseLuD = SparseLu<double>;
using SparseLuC = SparseLu<std::complex<double>>;

}  // namespace amsyn::num
