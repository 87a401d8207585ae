#include "numeric/matrix.hpp"

#include <cmath>
#include <limits>
#include <numeric>

namespace amsyn::num {

namespace {
double magnitude(double x) { return std::abs(x); }
double magnitude(const std::complex<double>& x) { return std::abs(x); }
}  // namespace

template <typename T>
LU<T>::LU(Matrix<T> a) : lu_(std::move(a)), perm_(lu_.rows()) {
  if (lu_.rows() != lu_.cols()) throw std::invalid_argument("LU: matrix not square");
  const std::size_t n = lu_.rows();
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest magnitude in column k at or below the diagonal.
    std::size_t piv = k;
    double best = magnitude(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double m = magnitude(lu_(i, k));
      if (m > best) {
        best = m;
        piv = i;
      }
    }
    if (best == 0.0) throw std::runtime_error("LU: singular matrix");
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(piv, j));
      std::swap(perm_[k], perm_[piv]);
      permSign_ = -permSign_;
    }
    const T pivot = lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const T f = lu_(i, k) / pivot;
      lu_(i, k) = f;
      if (f == T{}) continue;
      for (std::size_t j = k + 1; j < n; ++j) lu_(i, j) -= f * lu_(k, j);
    }
  }
}

template <typename T>
std::vector<T> LU<T>::solve(const std::vector<T>& b) const {
  const std::size_t n = lu_.rows();
  if (b.size() != n) throw std::invalid_argument("LU::solve: size mismatch");
  std::vector<T> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  // Forward substitution with unit lower factor.
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) x[i] -= lu_(i, j) * x[j];
  // Back substitution with upper factor.
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = i + 1; j < n; ++j) x[i] -= lu_(i, j) * x[j];
    x[i] /= lu_(i, i);
  }
  return x;
}

template <typename T>
std::vector<T> LU<T>::solveTransposed(const std::vector<T>& b) const {
  // A = P^T L U  =>  A^T = U^T L^T P.  Solve U^T y = b, L^T z = y, x = P^T z.
  const std::size_t n = lu_.rows();
  if (b.size() != n) throw std::invalid_argument("LU::solveTransposed: size mismatch");
  std::vector<T> y(b);
  // U^T is lower triangular (non-unit diagonal): forward substitution.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) y[i] -= lu_(j, i) * y[j];
    y[i] /= lu_(i, i);
  }
  // L^T is unit upper triangular: back substitution.
  for (std::size_t i = n; i-- > 0;)
    for (std::size_t j = i + 1; j < n; ++j) y[i] -= lu_(j, i) * y[j];
  // Undo the row permutation: x[perm_[i]] = z[i].
  std::vector<T> x(n);
  for (std::size_t i = 0; i < n; ++i) x[perm_[i]] = y[i];
  return x;
}

template <typename T>
T LU<T>::determinant() const {
  T det = static_cast<T>(permSign_);
  for (std::size_t i = 0; i < lu_.rows(); ++i) det *= lu_(i, i);
  return det;
}

template <typename T>
double LU<T>::conditionProxy() const {
  double mn = std::numeric_limits<double>::infinity(), mx = 0.0;
  for (std::size_t i = 0; i < lu_.rows(); ++i) {
    const double m = magnitude(lu_(i, i));
    mn = std::min(mn, m);
    mx = std::max(mx, m);
  }
  return mx == 0.0 ? 0.0 : mn / mx;
}

template class LU<double>;
template class LU<std::complex<double>>;

double normInf(const VecD& v) {
  double s = 0;
  for (double x : v) s = std::max(s, std::abs(x));
  return s;
}

}  // namespace amsyn::num
