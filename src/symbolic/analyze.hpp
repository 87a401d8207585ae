// ISAAC-style symbolic AC analysis of small-signal circuits.
//
// The circuit is described by symbolic admittance elements (conductances,
// capacitances, transconductances); analysis builds the node-admittance
// matrix over SPoly entries and extracts a transfer function by Cramer's
// rule, using a subset-DP determinant (O(n 2^n) SymSum multiplies) that is
// exact for the <= ~14-node circuits cell-level analog design deals with.
#pragma once

#include <string>
#include <vector>

#include "symbolic/sympoly.hpp"

namespace amsyn::symbolic {

/// A small-signal circuit over numbered nodes; node 0 is ground.
class SmallSignalCircuit {
 public:
  explicit SmallSignalCircuit(std::size_t nodeCount) : nodeCount_(nodeCount) {}

  std::size_t nodeCount() const { return nodeCount_; }
  SymbolTable& symbols() { return syms_; }
  const SymbolTable& symbols() const { return syms_; }

  /// Conductance `name` (nominal value `g0`) between nodes a and b.
  void addConductance(const std::string& name, double g0, std::size_t a, std::size_t b);
  /// Capacitance `name` between a and b (enters the matrix as s*c).
  void addCapacitance(const std::string& name, double c0, std::size_t a, std::size_t b);
  /// Transconductance: current gm * v(cp, cm) flowing from node `to` out of
  /// node `from` (i.e. injected into `to`).
  void addTransconductance(const std::string& name, double gm0, std::size_t from,
                           std::size_t to, std::size_t cp, std::size_t cm);

  /// Node-admittance matrix with ground eliminated ((n-1) x (n-1) SPoly).
  std::vector<std::vector<SPoly>> admittanceMatrix() const;

 private:
  struct Element {
    enum class Kind { G, C, Gm } kind;
    SymbolId sym;
    std::size_t a, b;      // terminal nodes (G/C) or from/to (Gm)
    std::size_t cp = 0, cm = 0;  // control nodes (Gm)
  };
  std::size_t nodeCount_;
  SymbolTable syms_;
  std::vector<Element> elems_;
};

/// A symbolic transfer function num(s)/den(s).
struct SymbolicTransfer {
  SPoly num;
  SPoly den;

  /// Numeric rational function at nominal symbol values.
  std::vector<double> numericNum(const SymbolTable& t) const { return num.evaluate(t); }
  std::vector<double> numericDen(const SymbolTable& t) const { return den.evaluate(t); }

  /// |H(j 2 pi f)| at nominal values.
  double magnitudeAt(const SymbolTable& t, double frequencyHz) const;

  /// ISAAC simplification: drop numerically negligible terms (relative
  /// threshold eps within each coefficient).
  SymbolicTransfer simplified(const SymbolTable& t, double eps) const {
    return {num.simplified(t, eps), den.simplified(t, eps)};
  }

  std::size_t termCount() const { return num.termCount() + den.termCount(); }
  std::string toString(const SymbolTable& t) const;
};

/// Symbolic determinant of an SPoly matrix (subset dynamic program).
SPoly symbolicDeterminant(const std::vector<std::vector<SPoly>>& m);

/// Voltage transfer v(out) / v(in) with an ideal source driving node `in`.
SymbolicTransfer voltageTransfer(const SmallSignalCircuit& c, std::size_t in,
                                 std::size_t out);

}  // namespace amsyn::symbolic
