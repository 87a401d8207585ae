#include "numeric/polynomial.hpp"

#include <cmath>
#include <stdexcept>

namespace amsyn::num {

Polynomial::Polynomial(std::vector<double> coeffs) : coeff_(std::move(coeffs)) {
  if (coeff_.empty()) coeff_.push_back(0.0);
  while (coeff_.size() > 1 && coeff_.back() == 0.0) coeff_.pop_back();
}

std::complex<double> Polynomial::evaluate(std::complex<double> x) const {
  std::complex<double> acc = 0.0;
  for (std::size_t k = coeff_.size(); k-- > 0;) acc = acc * x + coeff_[k];
  return acc;
}

Polynomial Polynomial::derivative() const {
  if (coeff_.size() <= 1) return Polynomial{};
  std::vector<double> d(coeff_.size() - 1);
  for (std::size_t k = 1; k < coeff_.size(); ++k) d[k - 1] = coeff_[k] * static_cast<double>(k);
  return Polynomial(std::move(d));
}

std::vector<std::complex<double>> Polynomial::roots(double tol, std::size_t maxIter) const {
  const std::size_t n = degree();
  if (n == 0) return {};
  if (coeff_.back() == 0.0) throw std::logic_error("Polynomial::roots: untrimmed");

  // Variable scaling x = r y with r ~ geometric mean of the root magnitudes
  // keeps the monic coefficients O(1) even when roots sit at 1e6..1e9 (AWE
  // pole finding) — Durand-Kerner diverges on badly scaled inputs otherwise.
  double r = 1.0;
  if (coeff_[0] != 0.0)
    r = std::pow(std::abs(coeff_[0] / coeff_.back()), 1.0 / static_cast<double>(n));
  // Monic normalization of the scaled polynomial: coeff of y^k is
  // c_k r^k / (c_n r^n).
  std::vector<std::complex<double>> c(coeff_.begin(), coeff_.end());
  double rk = 1.0;
  for (std::size_t k = 0; k < c.size(); ++k) {
    c[k] *= rk;
    rk *= r;
  }
  for (auto& x : c) x /= c.back();

  // Initial guesses on a circle whose radius bounds the root magnitudes
  // (Cauchy bound), rotated off the real axis to break symmetry.
  double bound = 0.0;
  for (std::size_t k = 0; k < n; ++k) bound = std::max(bound, std::abs(c[k]));
  const double radius = 1.0 + bound;
  std::vector<std::complex<double>> z(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double theta = 2.0 * M_PI * static_cast<double>(k) / static_cast<double>(n) + 0.4;
    z[k] = std::polar(radius * 0.5, theta);
  }

  auto evalMonic = [&](std::complex<double> x) {
    std::complex<double> acc = 1.0;
    for (std::size_t k = n; k-- > 0;) acc = acc * x + c[k];
    return acc;
  };

  for (std::size_t it = 0; it < maxIter; ++it) {
    double maxStep = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      std::complex<double> denom = 1.0;
      for (std::size_t j = 0; j < n; ++j)
        if (j != i) denom *= (z[i] - z[j]);
      if (denom == std::complex<double>{}) denom = 1e-30;
      const std::complex<double> step = evalMonic(z[i]) / denom;
      z[i] -= step;
      maxStep = std::max(maxStep, std::abs(step));
    }
    if (maxStep < tol * radius) break;
  }
  // Undo the variable scaling.
  for (auto& root : z) root *= r;
  return z;
}

}  // namespace amsyn::num
