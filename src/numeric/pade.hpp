// Padé approximation from a moment (Taylor) series — the numerical core of
// Asymptotic Waveform Evaluation (Pillage & Rohrer, IEEE TCAD 1990, the
// paper's ref [61]).  Given 2q moments of H(s) = m0 + m1 s + m2 s^2 + ...,
// compute a [q-1 / q] rational approximation and its pole/residue form.
#pragma once

#include <complex>
#include <vector>

#include "numeric/polynomial.hpp"

namespace amsyn::num {

/// A rational function num(s)/den(s).
struct Rational {
  Polynomial num;
  Polynomial den;

  std::complex<double> evaluate(std::complex<double> s) const {
    return num.evaluate(s) / den.evaluate(s);
  }
};

/// Pole/residue decomposition H(s) ~= k + sum_i r_i / (s - p_i).
struct PoleResidue {
  std::vector<std::complex<double>> poles;
  std::vector<std::complex<double>> residues;
  double direct = 0.0;  // constant (direct-coupling) term

  std::complex<double> evaluate(std::complex<double> s) const;

  /// Unit-step response y(t) = k + sum_i (r_i / p_i)(e^{p_i t} - 1).
  double step(double t) const;
};

/// Compute the [q-1/q] Padé approximant from moments m0..m_{2q-1}.
/// Throws std::runtime_error if the moment (Hankel) system is singular,
/// which signals that a lower order q should be used.
Rational padeApproximant(const std::vector<double>& moments, std::size_t q);

/// Padé with automatic order reduction: try order q = moments.size()/2 and
/// step down when the Hankel system is singular (which happens exactly when
/// the underlying response has fewer poles than requested — e.g. a 1-pole RC
/// line approximated at q = 2).  Throws only if even q = 1 fails.
Rational padeAuto(const std::vector<double>& moments);

/// Convert a rational approximant to pole/residue form.  Poles with positive
/// real part are unstable artifacts of Padé; when `enforceStability` is set
/// they are reflected into the left half plane (standard AWE practice).
PoleResidue toPoleResidue(const Rational& r, bool enforceStability = true);

}  // namespace amsyn::num
