// Symbolic sum-of-products arithmetic for ISAAC-style symbolic circuit
// analysis (Gielen, Walscharts & Sansen, JSSC 1989 — the paper's ref [12]).
//
// A small-signal transfer function of a linear(ized) circuit is a rational
// function in the Laplace variable s whose coefficients are polynomials in
// the circuit symbols (gm1, gds2, c3, ...).  We keep those coefficients in a
// canonical sum-of-products form: a map from a sorted multiset of symbol ids
// to a numeric multiplier.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace amsyn::symbolic {

using SymbolId = std::uint32_t;

/// Interning table of circuit symbols with nominal numeric values (used for
/// magnitude-based simplification and for numeric evaluation).
class SymbolTable {
 public:
  SymbolId intern(const std::string& name, double nominal);
  const std::string& name(SymbolId id) const { return names_.at(id); }
  double nominal(SymbolId id) const { return nominals_.at(id); }
  void setNominal(SymbolId id, double v) { nominals_.at(id) = v; }
  std::size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::vector<double> nominals_;
  std::map<std::string, SymbolId> byName_;
};

/// One product term: coefficient * prod(symbols).  Symbols sorted ascending
/// (a multiset — repeated ids mean powers).
struct Term {
  std::vector<SymbolId> symbols;
  double coefficient = 0.0;
};

/// Canonical symbolic sum of products.
class SymSum {
 public:
  SymSum() = default;
  /// A single numeric constant.
  static SymSum constant(double c);
  /// A single symbol.
  static SymSum symbol(SymbolId id);

  bool isZero() const { return terms_.empty(); }
  std::size_t termCount() const { return terms_.size(); }

  void add(const Term& t);
  SymSum operator+(const SymSum& rhs) const;
  SymSum operator*(const SymSum& rhs) const;
  SymSum negated() const;

  /// Numeric value with all symbols at their nominal values.
  double evaluate(const SymbolTable& table) const;

  /// Drop terms whose nominal magnitude is below `eps` times the largest
  /// term magnitude — the ISAAC simplification rule.
  SymSum simplified(const SymbolTable& table, double eps) const;

  /// Human-readable form, e.g. "gm1*gm2 - gds1*gds2".
  std::string toString(const SymbolTable& table) const;

  const std::map<std::vector<SymbolId>, double>& terms() const { return terms_; }

 private:
  std::map<std::vector<SymbolId>, double> terms_;
};

/// Polynomial in s with SymSum coefficients: sum_k coeff[k] s^k.
class SPoly {
 public:
  SPoly() = default;
  explicit SPoly(SymSum s0) : coeffs_{std::move(s0)} {}

  static SPoly sTimes(const SymSum& c);  ///< c * s

  bool isZero() const;
  std::size_t degree() const { return coeffs_.empty() ? 0 : coeffs_.size() - 1; }
  const SymSum& coefficient(std::size_t k) const;

  SPoly operator+(const SPoly& rhs) const;
  SPoly operator-(const SPoly& rhs) const;
  SPoly operator*(const SPoly& rhs) const;
  SPoly negated() const;

  /// Numeric polynomial in s at nominal symbol values.
  std::vector<double> evaluate(const SymbolTable& table) const;

  SPoly simplified(const SymbolTable& table, double eps) const;
  std::string toString(const SymbolTable& table) const;

  /// Total number of product terms across all s powers (the "size" of the
  /// expression a designer would have to read).
  std::size_t termCount() const;

 private:
  void trim();
  std::vector<SymSum> coeffs_;
};

}  // namespace amsyn::symbolic
