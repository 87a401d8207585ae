#include "symbolic/analyze.hpp"

#include <bit>
#include <cmath>
#include <complex>
#include <sstream>
#include <stdexcept>

namespace amsyn::symbolic {

void SmallSignalCircuit::addConductance(const std::string& name, double g0, std::size_t a,
                                        std::size_t b) {
  if (a >= nodeCount_ || b >= nodeCount_) throw std::out_of_range("addConductance: bad node");
  elems_.push_back({Element::Kind::G, syms_.intern(name, g0), a, b, 0, 0});
}

void SmallSignalCircuit::addCapacitance(const std::string& name, double c0, std::size_t a,
                                        std::size_t b) {
  if (a >= nodeCount_ || b >= nodeCount_) throw std::out_of_range("addCapacitance: bad node");
  elems_.push_back({Element::Kind::C, syms_.intern(name, c0), a, b, 0, 0});
}

void SmallSignalCircuit::addTransconductance(const std::string& name, double gm0,
                                             std::size_t from, std::size_t to, std::size_t cp,
                                             std::size_t cm) {
  if (from >= nodeCount_ || to >= nodeCount_ || cp >= nodeCount_ || cm >= nodeCount_)
    throw std::out_of_range("addTransconductance: bad node");
  elems_.push_back({Element::Kind::Gm, syms_.intern(name, gm0), from, to, cp, cm});
}

std::vector<std::vector<SPoly>> SmallSignalCircuit::admittanceMatrix() const {
  const std::size_t n = nodeCount_ - 1;  // ground eliminated
  std::vector<std::vector<SPoly>> y(n, std::vector<SPoly>(n));

  auto idx = [](std::size_t node) { return node - 1; };
  auto stampPair = [&](std::size_t a, std::size_t b, const SPoly& val) {
    if (a != 0) y[idx(a)][idx(a)] = y[idx(a)][idx(a)] + val;
    if (b != 0) y[idx(b)][idx(b)] = y[idx(b)][idx(b)] + val;
    if (a != 0 && b != 0) {
      y[idx(a)][idx(b)] = y[idx(a)][idx(b)] - val;
      y[idx(b)][idx(a)] = y[idx(b)][idx(a)] - val;
    }
  };
  // Transconductance stamp: current gm*(v_cp - v_cm) leaves `from`, enters
  // `to`; KCL rows gain +gm at (from, cp), -gm at (from, cm), -gm at (to,
  // cp), +gm at (to, cm).
  auto stampGm = [&](const Element& e, const SPoly& val) {
    const std::size_t rows[2] = {e.a, e.b};
    const double rowSign[2] = {+1.0, -1.0};
    const std::size_t cols[2] = {e.cp, e.cm};
    const double colSign[2] = {+1.0, -1.0};
    for (int r = 0; r < 2; ++r) {
      if (rows[r] == 0) continue;
      for (int c = 0; c < 2; ++c) {
        if (cols[c] == 0) continue;
        SPoly signedVal = val;
        if (rowSign[r] * colSign[c] < 0) signedVal = signedVal.negated();
        y[idx(rows[r])][idx(cols[c])] = y[idx(rows[r])][idx(cols[c])] + signedVal;
      }
    }
  };

  for (const Element& e : elems_) {
    switch (e.kind) {
      case Element::Kind::G:
        stampPair(e.a, e.b, SPoly{SymSum::symbol(e.sym)});
        break;
      case Element::Kind::C:
        stampPair(e.a, e.b, SPoly::sTimes(SymSum::symbol(e.sym)));
        break;
      case Element::Kind::Gm:
        stampGm(e, SPoly{SymSum::symbol(e.sym)});
        break;
    }
  }
  return y;
}

SPoly symbolicDeterminant(const std::vector<std::vector<SPoly>>& m) {
  const std::size_t n = m.size();
  if (n == 0) return SPoly{SymSum::constant(1.0)};
  if (n > 20) throw std::invalid_argument("symbolicDeterminant: matrix too large");
  for (const auto& row : m)
    if (row.size() != n) throw std::invalid_argument("symbolicDeterminant: not square");

  // dp[mask]: signed sum over assignments of rows 0..popcount(mask)-1 to the
  // column set `mask`.
  std::vector<SPoly> dp(std::size_t{1} << n);
  dp[0] = SPoly{SymSum::constant(1.0)};
  for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
    if (dp[mask].isZero() && mask != 0) continue;
    const std::size_t row = static_cast<std::size_t>(std::popcount(mask));
    if (row >= n) continue;
    for (std::size_t j = 0; j < n; ++j) {
      if (mask & (1u << j)) continue;
      if (m[row][j].isZero()) continue;
      // Parity of inversions added by pairing this row with column j equals
      // the number of already-used columns greater than j.
      const std::uint32_t higher = mask >> (j + 1);
      const bool negative = std::popcount(higher) % 2 == 1;
      SPoly contrib = m[row][j] * dp[mask];
      if (negative) contrib = contrib.negated();
      dp[mask | (1u << j)] = dp[mask | (1u << j)] + contrib;
    }
  }
  return dp[(std::size_t{1} << n) - 1];
}

namespace {

/// Determinant of `m` with column `col` replaced by `rhs` (Cramer's rule).
SPoly cramerDeterminant(std::vector<std::vector<SPoly>> m, std::size_t col,
                        const std::vector<SPoly>& rhs) {
  for (std::size_t r = 0; r < m.size(); ++r) m[r][col] = rhs[r];
  return symbolicDeterminant(m);
}

}  // namespace

double SymbolicTransfer::magnitudeAt(const SymbolTable& t, double frequencyHz) const {
  const std::complex<double> s{0.0, 2.0 * M_PI * frequencyHz};
  auto evalPoly = [&](const std::vector<double>& c) {
    std::complex<double> acc = 0.0;
    for (std::size_t k = c.size(); k-- > 0;) acc = acc * s + c[k];
    return acc;
  };
  const auto nc = num.evaluate(t);
  const auto dc = den.evaluate(t);
  return std::abs(evalPoly(nc) / evalPoly(dc));
}

std::string SymbolicTransfer::toString(const SymbolTable& t) const {
  std::ostringstream out;
  out << "[" << num.toString(t) << "] / [" << den.toString(t) << "]";
  return out.str();
}

SymbolicTransfer voltageTransfer(const SmallSignalCircuit& c, std::size_t in,
                                 std::size_t out) {
  if (in == 0 || out == 0 || in == out)
    throw std::invalid_argument("voltageTransfer: bad terminals");
  auto y = c.admittanceMatrix();
  const std::size_t n = y.size();
  const std::size_t inIdx = in - 1;

  // Reduce: drop the KCL row of the driven node and move its column to the
  // RHS (v_in = 1 symbolically).
  std::vector<std::vector<SPoly>> yr;
  std::vector<SPoly> rhs;
  std::vector<std::size_t> keep;  // original index of each reduced row/col
  for (std::size_t r = 0; r < n; ++r) {
    if (r == inIdx) continue;
    keep.push_back(r);
    std::vector<SPoly> row;
    for (std::size_t cc = 0; cc < n; ++cc) {
      if (cc == inIdx) continue;
      row.push_back(y[r][cc]);
    }
    yr.push_back(std::move(row));
    rhs.push_back(y[r][inIdx].negated());
  }

  std::size_t outIdx = static_cast<std::size_t>(-1);
  for (std::size_t i = 0; i < keep.size(); ++i)
    if (keep[i] == out - 1) outIdx = i;
  if (outIdx == static_cast<std::size_t>(-1))
    throw std::invalid_argument("voltageTransfer: output node is the input");

  SymbolicTransfer h;
  h.den = symbolicDeterminant(yr);
  h.num = cramerDeterminant(std::move(yr), outIdx, rhs);
  return h;
}

}  // namespace amsyn::symbolic
