// Dense matrix / vector kernels used throughout amsyn.
//
// The circuits handled by the cell-level tools in this library are small
// (10-100 devices, so well under ~300 MNA unknowns); dense LU with partial
// pivoting is both simpler and faster than sparse machinery at that size,
// so it is the one linear solver every analysis in sim/ uses.
#pragma once

#include <complex>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace amsyn::num {

/// Dense row-major matrix over a scalar field (double or complex<double>).
template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, T init = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, init) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  T& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  const T& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Set every entry to zero (keeps the shape).
  void setZero() { data_.assign(data_.size(), T{}); }

  /// Row-major storage, for value-identity checks (LU-reuse caches compare
  /// a freshly assembled matrix against the one behind a cached
  /// factorization).
  const std::vector<T>& data() const { return data_; }

  /// Identity of size n.
  static Matrix identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }

  Matrix operator*(const Matrix& rhs) const {
    if (cols_ != rhs.rows_) throw std::invalid_argument("matrix dim mismatch");
    Matrix out(rows_, rhs.cols_);
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t k = 0; k < cols_; ++k) {
        const T a = (*this)(i, k);
        if (a == T{}) continue;
        for (std::size_t j = 0; j < rhs.cols_; ++j) out(i, j) += a * rhs(k, j);
      }
    return out;
  }

  std::vector<T> operator*(const std::vector<T>& v) const {
    if (cols_ != v.size()) throw std::invalid_argument("matrix/vector dim mismatch");
    std::vector<T> out(rows_, T{});
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t j = 0; j < cols_; ++j) out[i] += (*this)(i, j) * v[j];
    return out;
  }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<T> data_;
};

using MatrixD = Matrix<double>;
using MatrixC = Matrix<std::complex<double>>;
using VecD = std::vector<double>;
using VecC = std::vector<std::complex<double>>;

/// LU factorization with partial pivoting. Holds the factors so that many
/// right-hand sides can be solved against one factorization (the AWE moment
/// recursion and adjoint noise analysis both depend on this).
template <typename T>
class LU {
 public:
  /// Factor a (square) matrix. Throws std::runtime_error when singular to
  /// working precision.
  explicit LU(Matrix<T> a);

  /// Solve A x = b.
  std::vector<T> solve(const std::vector<T>& b) const;

  /// Solve A^T x = b (used for adjoint analyses).
  std::vector<T> solveTransposed(const std::vector<T>& b) const;

  /// Determinant of the factored matrix.
  T determinant() const;

  /// Crude conditioning estimate: min |U_ii| / max |U_ii|.  Near-zero values
  /// signal numerical rank deficiency (used by the Padé order-reduction
  /// logic to reject over-ordered Hankel systems).
  double conditionProxy() const;

  std::size_t size() const { return lu_.rows(); }

 private:
  Matrix<T> lu_;
  std::vector<std::size_t> perm_;  // row permutation: row i of U came from perm_[i]
  int permSign_ = 1;
};

using LUD = LU<double>;
using LUC = LU<std::complex<double>>;

/// Convenience one-shot solve of A x = b.
template <typename T>
std::vector<T> solveDense(Matrix<T> a, const std::vector<T>& b) {
  return LU<T>(std::move(a)).solve(b);
}

/// Infinity norm.
double normInf(const VecD& v);

}  // namespace amsyn::num
