#include "linalg/matrix.hpp"

#include <cmath>

namespace pcf::linalg {

Matrix Matrix::random_uniform(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  }
  return t;
}

Matrix operator*(const Matrix& a, const Matrix& b) {
  PCF_CHECK_MSG(a.cols() == b.rows(), "matmul dimension mismatch");
  Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const double aik = a(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  }
  return out;
}

Matrix operator-(const Matrix& a, const Matrix& b) {
  PCF_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols(), "subtraction shape mismatch");
  Matrix out(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) out(i, j) = a(i, j) - b(i, j);
  }
  return out;
}

double Matrix::norm_inf() const noexcept {
  double best = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    for (double v : row(r)) sum += std::fabs(v);
    best = std::max(best, sum);
  }
  return best;
}

double factorization_error(const Matrix& v, const Matrix& q, const Matrix& r) {
  const Matrix qr = q * r;
  return (v - qr).norm_inf() / v.norm_inf();
}

double orthogonality_error(const Matrix& q) {
  const Matrix gram = q.transposed() * q;
  return (gram - Matrix::identity(q.cols())).norm_inf();
}

}  // namespace pcf::linalg
