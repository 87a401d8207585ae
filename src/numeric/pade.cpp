#include "numeric/pade.hpp"

#include <cmath>
#include <stdexcept>

#include "numeric/matrix.hpp"

namespace amsyn::num {

std::complex<double> PoleResidue::evaluate(std::complex<double> s) const {
  std::complex<double> acc = direct;
  for (std::size_t i = 0; i < poles.size(); ++i) acc += residues[i] / (s - poles[i]);
  return acc;
}

double PoleResidue::step(double t) const {
  std::complex<double> acc = direct;
  for (std::size_t i = 0; i < poles.size(); ++i) {
    if (std::abs(poles[i]) < 1e-300) continue;
    acc += residues[i] / poles[i] * (std::exp(poles[i] * t) - 1.0);
  }
  return acc.real();
}

Rational padeApproximant(const std::vector<double>& moments, std::size_t q) {
  if (q == 0 || moments.size() < 2 * q)
    throw std::invalid_argument("padeApproximant: need 2q moments");

  // Frequency scaling (standard AWE practice): raw circuit moments span tens
  // of decades (m_k ~ tau^k), which destroys the Hankel system's
  // conditioning.  Work with m'_k = m_k * tau^{-k}... i.e. substitute
  // s = t / tau so the scaled moments are O(m0), then map the coefficients
  // back at the end.
  double tau = 1.0;
  if (moments[0] != 0.0 && moments[1] != 0.0) tau = std::abs(moments[1] / moments[0]);
  std::vector<double> m(moments.begin(), moments.begin() + 2 * q);
  double scale = 1.0;
  for (std::size_t k = 0; k < m.size(); ++k) {
    m[k] *= scale;  // scale = tau^{-k}
    scale /= tau;
  }

  // Denominator D(t) = 1 + b1 t + ... + bq t^q from the Hankel system:
  //   sum_{j=1..q} m_{q+i-j} b_j = -m_{q+i},  i = 0..q-1.
  MatrixD h(q, q);
  VecD rhs(q);
  for (std::size_t i = 0; i < q; ++i) {
    for (std::size_t j = 0; j < q; ++j) h(i, j) = m[q + i - j - 1];
    rhs[i] = -m[q + i];
  }
  const LU<double> lu(std::move(h));  // throws when exactly singular
  // A numerically rank-deficient (over-ordered) Hankel system produces a
  // spurious pole; treat it as singular so padeAuto steps the order down.
  if (lu.conditionProxy() < 1e-12)
    throw std::runtime_error("padeApproximant: rank-deficient moment matrix");
  VecD b = lu.solve(rhs);

  std::vector<double> den(q + 1, 0.0);
  den[0] = 1.0;
  for (std::size_t j = 0; j < q; ++j) den[j + 1] = b[j];

  // Numerator N(t) = sum_{k=0..q-1} a_k t^k with a_k = sum_{j=0..k} m_{k-j} den_j.
  std::vector<double> numc(q, 0.0);
  for (std::size_t k = 0; k < q; ++k)
    for (std::size_t j = 0; j <= k; ++j) numc[k] += m[k - j] * den[j];

  // Undo the scaling: coefficient of s^k gains tau^k (since t = s * tau).
  double unscale = 1.0;
  for (std::size_t k = 0; k < den.size(); ++k) {
    if (k < numc.size()) numc[k] *= unscale;
    den[k] *= unscale;
    unscale *= tau;
  }

  return Rational{Polynomial(std::move(numc)), Polynomial(std::move(den))};
}

namespace {

/// Does the rational approximant reproduce the given moments?  A Padé fit
/// through a near-singular Hankel system (more poles requested than the
/// response has) passes LU but yields a polluted approximant; checking the
/// Taylor series of N/D against the input moments catches that case.
bool momentsConsistent(const Rational& r, const std::vector<double>& moments,
                       std::size_t count) {
  const auto& nc = r.num.coefficients();
  const auto& dc = r.den.coefficients();
  double scale = 0.0;
  for (std::size_t k = 0; k < count; ++k) scale = std::max(scale, std::abs(moments[k]));
  if (scale == 0.0) return true;
  std::vector<double> taylor(count, 0.0);
  for (std::size_t k = 0; k < count; ++k) {
    double t = k < nc.size() ? nc[k] : 0.0;
    for (std::size_t j = 1; j <= k && j < dc.size(); ++j) t -= dc[j] * taylor[k - j];
    taylor[k] = t / dc[0];
    if (std::abs(taylor[k] - moments[k]) > 1e-6 * scale) return false;
  }
  return true;
}

}  // namespace

Rational padeAuto(const std::vector<double>& moments) {
  for (std::size_t q = moments.size() / 2; q >= 1; --q) {
    try {
      Rational r = padeApproximant(moments, q);
      if (momentsConsistent(r, moments, 2 * q)) return r;
    } catch (const std::runtime_error&) {
      // singular at this order; fall through to a lower one
    }
    if (q == 1)
      throw std::runtime_error("padeAuto: no consistent approximant at any order");
  }
  throw std::invalid_argument("padeAuto: need at least 2 moments");
}

PoleResidue toPoleResidue(const Rational& r, bool enforceStability) {
  PoleResidue out;
  auto poles = r.den.roots();
  // Reflect unstable poles (Re > 0) into the left half plane if requested.
  if (enforceStability)
    for (auto& p : poles)
      if (p.real() > 0.0) p = std::complex<double>(-p.real(), p.imag());

  // Residues by the derivative formula r_i = N(p_i) / D'(p_i), computed on
  // the (possibly reflected) pole set against the original numerator.  After
  // reflection the residues are recomputed so that moments m0 (dc value) is
  // preserved exactly by rescaling.
  const Polynomial dden = r.den.derivative();
  out.poles = poles;
  out.residues.resize(poles.size());
  for (std::size_t i = 0; i < poles.size(); ++i) {
    std::complex<double> dp = dden.evaluate(poles[i]);
    if (std::abs(dp) < 1e-300) dp = 1e-300;
    out.residues[i] = r.num.evaluate(poles[i]) / dp;
  }

  // Preserve the dc value H(0) = m0: scale residues so that
  // sum(-r_i / p_i) = m0 (when all poles are nonzero).
  const double m0 = r.num.coefficient(0) / r.den.coefficient(0);
  std::complex<double> dc = 0.0;
  bool allNonzero = true;
  for (std::size_t i = 0; i < poles.size(); ++i) {
    if (std::abs(out.poles[i]) < 1e-300) {
      allNonzero = false;
      break;
    }
    dc += -out.residues[i] / out.poles[i];
  }
  if (allNonzero && std::abs(dc) > 1e-300 && std::abs(m0) > 0.0) {
    const std::complex<double> scale = m0 / dc;
    for (auto& res : out.residues) res *= scale.real();
  }
  return out;
}

}  // namespace amsyn::num
