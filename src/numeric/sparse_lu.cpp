#include "numeric/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace amsyn::num {

namespace {
constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

double magnitude(double x) { return std::abs(x); }
double magnitude(const std::complex<double>& x) { return std::abs(x); }
}  // namespace

template <typename T>
CscMatrix<T> CscBuilder::finalize(std::vector<std::size_t>& slotOf) const {
  // Order registered positions by (col, row); equal positions collapse to
  // one slot so repeated stamps accumulate.
  std::vector<std::size_t> order(entries_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (entries_[a].c != entries_[b].c) return entries_[a].c < entries_[b].c;
    return entries_[a].r < entries_[b].r;
  });

  CscMatrix<T> m;
  m.n = n_;
  m.colPtr.assign(n_ + 1, 0);
  slotOf.assign(entries_.size(), kNone);
  std::size_t prevR = kNone, prevC = kNone;
  for (std::size_t h : order) {
    const auto& e = entries_[h];
    if (e.r >= n_ || e.c >= n_) throw std::invalid_argument("CscBuilder: index out of range");
    if (e.r != prevR || e.c != prevC) {
      m.row.push_back(e.r);
      ++m.colPtr[e.c + 1];
      prevR = e.r;
      prevC = e.c;
    }
    slotOf[h] = m.row.size() - 1;
  }
  for (std::size_t c = 0; c < n_; ++c) m.colPtr[c + 1] += m.colPtr[c];
  m.val.assign(m.row.size(), T{});
  return m;
}

template CscMatrix<double> CscBuilder::finalize(std::vector<std::size_t>&) const;
template CscMatrix<std::complex<double>> CscBuilder::finalize(std::vector<std::size_t>&) const;

template <typename T>
SparseLuStatus SparseLu<T>::factor(const CscMatrix<T>& a) {
  if (a.colPtr.size() != a.n + 1 || a.row.size() != a.val.size())
    throw std::invalid_argument("SparseLu: malformed CSC matrix");
  if (sym_ && sym_->n == a.n && sym_->aNnz == a.row.size()) return refactor(a);
  return analyze(a);
}

template <typename T>
SparseLuStatus SparseLu<T>::analyze(const CscMatrix<T>& a) {
  const std::size_t n = a.n;
  ++analyzeCount_;
  factored_ = false;
  auto sym = std::make_shared<SparseLuSymbolic>();
  sym->n = n;
  sym->aNnz = a.row.size();

  sym->pivotRow.assign(n, kNone);
  sym->stepOfRow.assign(n, kNone);
  sym->patPtr.assign(1, 0);
  sym->candPtr.assign(1, 0);
  sym->uPtr.assign(1, 0);
  sym->lPtr.assign(1, 0);
  sym->candDiag.assign(n, 0);

  // Simulated dense row swaps: physOf[r] is the physical slot original row
  // r occupies in the dense kernel right now; origAt is its inverse.  The
  // pivot scan and its tie-breaks are replayed against these positions.
  std::vector<std::size_t> physOf(n), origAt(n);
  std::iota(physOf.begin(), physOf.end(), std::size_t{0});
  std::iota(origAt.begin(), origAt.end(), std::size_t{0});

  std::vector<T> w(n, T{});
  std::vector<unsigned char> inPat(n, 0);
  std::vector<std::size_t> pat, cand;
  pat.reserve(64);
  cand.reserve(64);

  lVal_.clear();
  uVal_.clear();
  dVal_.assign(n, T{});

  double maxA = 0.0;
  for (const T& v : a.val) maxA = std::max(maxA, magnitude(v));
  double maxU = 0.0;

  const double n2 = static_cast<double>(n) * static_cast<double>(n);

  for (std::size_t j = 0; j < n; ++j) {
    // Scatter the structural column.
    pat.clear();
    for (std::size_t p = a.colPtr[j]; p < a.colPtr[j + 1]; ++p) {
      const std::size_t r = a.row[p];
      w[r] = a.val[p];
      inPat[r] = 1;
      pat.push_back(r);
    }
    // Left-looking update sweep in ascending step order — the dense
    // kernel's left-to-right elimination order.  Fill introduced at step m
    // belongs to rows eliminated after m, so a single ascending pass sees
    // every structural U entry.
    for (std::size_t m = 0; m < j; ++m) {
      const std::size_t pr = sym->pivotRow[m];
      if (!inPat[pr]) continue;
      const T umj = w[pr];
      sym->uStep.push_back(m);
      uVal_.push_back(umj);
      maxU = std::max(maxU, magnitude(umj));
      for (std::size_t p = sym->lPtr[m]; p < sym->lPtr[m + 1]; ++p) {
        const std::size_t r = sym->lRowOrig[p];
        if (!inPat[r]) {
          inPat[r] = 1;
          w[r] = T{};
          pat.push_back(r);
        }
        const T lv = lVal_[p];
        if (lv == T{}) continue;  // dense kernel skips zero multipliers too
        w[r] -= lv * umj;
      }
    }
    sym->uPtr.push_back(sym->uStep.size());

    // Pivot scan, replaying the dense kernel exactly: best seeds from the
    // row at the diagonal's physical slot (0 when that row is outside the
    // pattern), then a strictly-greater magnitude scan walks the remaining
    // candidates in ascending physical position.
    cand.clear();
    for (std::size_t r : pat)
      if (sym->stepOfRow[r] == kNone) cand.push_back(r);
    std::sort(cand.begin(), cand.end(),
              [&](std::size_t x, std::size_t y) { return physOf[x] < physOf[y]; });
    const std::size_t diagOrig = origAt[j];
    std::size_t bestR = kNone;
    double best = 0.0;
    std::size_t scanFrom = 0;
    if (!cand.empty() && cand[0] == diagOrig) {
      bestR = diagOrig;
      best = magnitude(w[diagOrig]);
      sym->candDiag[j] = 1;
      scanFrom = 1;
    }
    for (std::size_t i = scanFrom; i < cand.size(); ++i) {
      const double m = magnitude(w[cand[i]]);
      if (m > best) {
        best = m;
        bestR = cand[i];
      }
    }
    if (best == 0.0 || bestR == kNone) {
      for (std::size_t r : pat) {
        w[r] = T{};
        inPat[r] = 0;
      }
      sym_.reset();
      return SparseLuStatus::Singular;  // dense LU throws at this same step
    }
    for (std::size_t r : cand) sym->candRow.push_back(r);
    sym->candPtr.push_back(sym->candRow.size());

    const T pivot = w[bestR];
    dVal_[j] = pivot;
    maxU = std::max(maxU, magnitude(pivot));
    sym->pivotRow[j] = bestR;
    sym->stepOfRow[bestR] = j;
    // Simulate the dense row swap.
    const std::size_t p = physOf[bestR];
    const std::size_t other = origAt[j];
    origAt[j] = bestR;
    origAt[p] = other;
    physOf[bestR] = j;
    physOf[other] = p;

    // L column: every remaining candidate, multiplier = w / pivot (computed
    // and stored even when zero, as the dense kernel does).
    for (std::size_t r : cand) {
      if (r == bestR) continue;
      sym->lRowOrig.push_back(r);
      lVal_.push_back(w[r] / pivot);
    }
    sym->lPtr.push_back(sym->lRowOrig.size());

    for (std::size_t r : pat) sym->patRow.push_back(r);
    sym->patPtr.push_back(sym->patRow.size());
    for (std::size_t r : pat) {
      w[r] = T{};
      inPat[r] = 0;
    }

    // Fill guard: bail before the factors densify past the point where the
    // dense kernel is the better engine.
    if (opts_.maxFillRatio < 1.0 &&
        static_cast<double>(sym->lRowOrig.size() + sym->uStep.size() + n) >
            opts_.maxFillRatio * n2) {
      sym_.reset();
      return SparseLuStatus::ExcessFill;
    }
  }

  // L entries sorted by target step within each column, so transposed
  // solves accumulate in the dense kernel's ascending order.
  sym->lRowStep.resize(sym->lRowOrig.size());
  std::vector<std::size_t> perm;
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t b0 = sym->lPtr[j], b1 = sym->lPtr[j + 1];
    perm.resize(b1 - b0);
    std::iota(perm.begin(), perm.end(), std::size_t{0});
    std::sort(perm.begin(), perm.end(), [&](std::size_t x, std::size_t y) {
      return sym->stepOfRow[sym->lRowOrig[b0 + x]] < sym->stepOfRow[sym->lRowOrig[b0 + y]];
    });
    std::vector<std::size_t> rowsOrig(b1 - b0);
    std::vector<T> vals(b1 - b0);
    for (std::size_t i = 0; i < perm.size(); ++i) {
      rowsOrig[i] = sym->lRowOrig[b0 + perm[i]];
      vals[i] = lVal_[b0 + perm[i]];
    }
    for (std::size_t i = 0; i < perm.size(); ++i) {
      sym->lRowOrig[b0 + i] = rowsOrig[i];
      sym->lRowStep[b0 + i] = sym->stepOfRow[rowsOrig[i]];
      lVal_[b0 + i] = vals[i];
    }
  }

  // Row-major mirror of U for back substitution.
  sym->uCsrPtr.assign(n + 1, 0);
  for (std::size_t s : sym->uStep) ++sym->uCsrPtr[s + 1];
  for (std::size_t i = 0; i < n; ++i) sym->uCsrPtr[i + 1] += sym->uCsrPtr[i];
  sym->uCsrCol.resize(sym->uStep.size());
  sym->uCsrFromCsc.resize(sym->uStep.size());
  std::vector<std::size_t> fill(n, 0);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t p = sym->uPtr[j]; p < sym->uPtr[j + 1]; ++p) {
      const std::size_t m = sym->uStep[p];
      const std::size_t pos = sym->uCsrPtr[m] + fill[m]++;
      sym->uCsrCol[pos] = j;  // ascending within a row: j sweeps upward
      sym->uCsrFromCsc[pos] = p;
    }
  uCsrVal_.resize(uVal_.size());
  for (std::size_t p = 0; p < uVal_.size(); ++p)
    uCsrVal_[p] = uVal_[sym->uCsrFromCsc[p]];

  growth_ = maxA > 0.0 ? maxU / maxA : 0.0;
  sym_ = std::move(sym);
  if (opts_.maxPivotGrowth > 0.0 && growth_ > opts_.maxPivotGrowth) {
    sym_.reset();
    return SparseLuStatus::PivotGrowth;
  }
  factored_ = true;
  return SparseLuStatus::Ok;
}

template <typename T>
SparseLuStatus SparseLu<T>::refactor(const CscMatrix<T>& a) {
  const SparseLuSymbolic& s = *sym_;
  const std::size_t n = s.n;
  ++refactorCount_;
  factored_ = false;

  lVal_.resize(s.lRowOrig.size());
  uVal_.resize(s.uStep.size());
  dVal_.assign(n, T{});
  if (uCsrVal_.size() != uVal_.size()) uCsrVal_.resize(uVal_.size());

  std::vector<T> w(n, T{});
  double maxA = 0.0;
  for (const T& v : a.val) maxA = std::max(maxA, magnitude(v));
  double maxU = 0.0;

  for (std::size_t j = 0; j < n; ++j) {
    // Zero the full scatter pattern, then load the structural values.
    for (std::size_t p = s.patPtr[j]; p < s.patPtr[j + 1]; ++p) w[s.patRow[p]] = T{};
    for (std::size_t p = a.colPtr[j]; p < a.colPtr[j + 1]; ++p) w[a.row[p]] = a.val[p];

    for (std::size_t up = s.uPtr[j]; up < s.uPtr[j + 1]; ++up) {
      const std::size_t m = s.uStep[up];
      const T umj = w[s.pivotRow[m]];
      uVal_[up] = umj;
      maxU = std::max(maxU, magnitude(umj));
      for (std::size_t p = s.lPtr[m]; p < s.lPtr[m + 1]; ++p) {
        const T lv = lVal_[p];
        if (lv == T{}) continue;
        w[s.lRowOrig[p]] -= lv * umj;
      }
    }

    // Pivot verification: replay the dense scan over the cached candidate
    // order and confirm partial pivoting still lands on the cached row.
    const std::size_t b0 = s.candPtr[j], b1 = s.candPtr[j + 1];
    std::size_t bestR = kNone;
    double best = 0.0;
    std::size_t i0 = b0;
    if (s.candDiag[j]) {
      bestR = s.candRow[b0];
      best = magnitude(w[bestR]);
      i0 = b0 + 1;
    }
    for (std::size_t i = i0; i < b1; ++i) {
      const double m = magnitude(w[s.candRow[i]]);
      if (m > best) {
        best = m;
        bestR = s.candRow[i];
      }
    }
    if (best == 0.0 || bestR == kNone) return SparseLuStatus::Singular;
    const std::size_t cached = s.pivotRow[j];
    if (bestR != cached) {
      // Values drifted across the pivot threshold: the cached sequence
      // would lose accuracy, so pay for a fresh analysis instead.
      ++pivotDriftCount_;
      return analyze(a);
    }

    const T pivot = w[cached];
    dVal_[j] = pivot;
    maxU = std::max(maxU, magnitude(pivot));
    for (std::size_t p = s.lPtr[j]; p < s.lPtr[j + 1]; ++p)
      lVal_[p] = w[s.lRowOrig[p]] / pivot;
  }

  for (std::size_t p = 0; p < uVal_.size(); ++p)
    uCsrVal_[p] = uVal_[s.uCsrFromCsc[p]];

  growth_ = maxA > 0.0 ? maxU / maxA : 0.0;
  if (opts_.maxPivotGrowth > 0.0 && growth_ > opts_.maxPivotGrowth)
    return SparseLuStatus::PivotGrowth;
  factored_ = true;
  return SparseLuStatus::Ok;
}

template <typename T>
std::vector<T> SparseLu<T>::solve(const std::vector<T>& b) const {
  if (!factored_) throw std::runtime_error("SparseLu::solve: no valid factorization");
  const SparseLuSymbolic& s = *sym_;
  const std::size_t n = s.n;
  if (b.size() != n) throw std::invalid_argument("SparseLu::solve: size mismatch");
  std::vector<T> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[s.pivotRow[i]];
  // Forward substitution, unit L (column-oriented; each target row receives
  // its updates in ascending source order, the dense kernel's rounding).
  for (std::size_t j = 0; j < n; ++j) {
    const T xj = x[j];
    for (std::size_t p = s.lPtr[j]; p < s.lPtr[j + 1]; ++p)
      x[s.lRowStep[p]] -= lVal_[p] * xj;
  }
  // Back substitution over the row-major U mirror (ascending columns, then
  // the diagonal divide — the dense loop verbatim).
  for (std::size_t i = n; i-- > 0;) {
    T xi = x[i];
    for (std::size_t p = s.uCsrPtr[i]; p < s.uCsrPtr[i + 1]; ++p)
      xi -= uCsrVal_[p] * x[s.uCsrCol[p]];
    x[i] = xi / dVal_[i];
  }
  return x;
}

template <typename T>
std::vector<T> SparseLu<T>::solveTransposed(const std::vector<T>& b) const {
  if (!factored_) throw std::runtime_error("SparseLu::solveTransposed: no valid factorization");
  const SparseLuSymbolic& s = *sym_;
  const std::size_t n = s.n;
  if (b.size() != n) throw std::invalid_argument("SparseLu::solveTransposed: size mismatch");
  std::vector<T> y = b;
  // U^T is lower triangular (non-unit): forward substitution; U's CSC
  // column i lists sources in ascending step order, matching dense.
  for (std::size_t i = 0; i < n; ++i) {
    T yi = y[i];
    for (std::size_t p = s.uPtr[i]; p < s.uPtr[i + 1]; ++p)
      yi -= uVal_[p] * y[s.uStep[p]];
    y[i] = yi / dVal_[i];
  }
  // L^T is unit upper triangular: back substitution; L's columns are sorted
  // by target step, so the accumulation order again matches dense.
  for (std::size_t i = n; i-- > 0;) {
    T yi = y[i];
    for (std::size_t p = s.lPtr[i]; p < s.lPtr[i + 1]; ++p)
      yi -= lVal_[p] * y[s.lRowStep[p]];
    y[i] = yi;
  }
  std::vector<T> x(n);
  for (std::size_t i = 0; i < n; ++i) x[s.pivotRow[i]] = y[i];
  return x;
}

template class SparseLu<double>;
template class SparseLu<std::complex<double>>;

}  // namespace amsyn::num
