// Dense row-major matrix and the norms used by the QR experiments.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"

namespace pcf::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Uniform(-1, 1) random matrix (the paper factorizes random matrices).
  [[nodiscard]] static Matrix random_uniform(std::size_t rows, std::size_t cols, Rng& rng);
  [[nodiscard]] static Matrix identity(std::size_t n);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    PCF_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    PCF_ASSERT(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<double> row(std::size_t r) noexcept {
    PCF_ASSERT(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }
  [[nodiscard]] std::span<const double> row(std::size_t r) const noexcept {
    PCF_ASSERT(r < rows_);
    return {data_.data() + r * cols_, cols_};
  }

  [[nodiscard]] Matrix transposed() const;
  friend Matrix operator*(const Matrix& a, const Matrix& b);
  friend Matrix operator-(const Matrix& a, const Matrix& b);

  /// Matrix infinity norm: maximum absolute row sum (‖·‖∞ in the paper).
  [[nodiscard]] double norm_inf() const noexcept;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// ‖V − QR‖∞ / ‖V‖∞ — the paper's relative factorization error (Fig. 8).
[[nodiscard]] double factorization_error(const Matrix& v, const Matrix& q, const Matrix& r);

/// ‖QᵀQ − I‖∞ — loss of orthogonality.
[[nodiscard]] double orthogonality_error(const Matrix& q);

}  // namespace pcf::linalg
