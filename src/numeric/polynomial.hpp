// Polynomials in one variable with real coefficients, plus complex root
// finding.  Used by the AWE/Padé machinery (denominator roots = approximate
// poles) and by the symbolic analyzer (transfer-function coefficients in s).
#pragma once

#include <complex>
#include <vector>

namespace amsyn::num {

/// Polynomial c[0] + c[1] x + c[2] x^2 + ...  Trailing zero coefficients are
/// trimmed on construction so degree() reflects the true degree.
class Polynomial {
 public:
  Polynomial() : coeff_{0.0} {}
  explicit Polynomial(std::vector<double> coeffs);

  /// Degree (0 for constants, including the zero polynomial).
  std::size_t degree() const { return coeff_.size() - 1; }
  const std::vector<double>& coefficients() const { return coeff_; }
  double coefficient(std::size_t k) const { return k < coeff_.size() ? coeff_[k] : 0.0; }

  std::complex<double> evaluate(std::complex<double> x) const;

  Polynomial derivative() const;

  /// All complex roots via the Durand-Kerner (Weierstrass) iteration.
  /// Robust for the modest degrees (< ~20) that arise from Padé denominators
  /// and symbolic transfer functions.
  std::vector<std::complex<double>> roots(double tol = 1e-12,
                                          std::size_t maxIter = 500) const;

 private:
  std::vector<double> coeff_;
};

}  // namespace amsyn::num
