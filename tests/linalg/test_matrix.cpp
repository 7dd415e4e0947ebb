#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include "support/check.hpp"

namespace pcf::linalg {
namespace {

TEST(Matrix, ConstructionAndIndexing) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m(1, 2), 1.5);
  m(0, 1) = 7.0;
  EXPECT_EQ(m(0, 1), 7.0);
}

TEST(Matrix, IdentityIsDiagonal) {
  const auto i3 = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) EXPECT_EQ(i3(r, c), r == c ? 1.0 : 0.0);
  }
}

TEST(Matrix, RandomUniformInRange) {
  Rng rng(1);
  const auto m = Matrix::random_uniform(10, 10, rng);
  for (std::size_t r = 0; r < 10; ++r) {
    for (std::size_t c = 0; c < 10; ++c) {
      EXPECT_GE(m(r, c), -1.0);
      EXPECT_LT(m(r, c), 1.0);
    }
  }
}

TEST(Matrix, TransposeRoundTrip) {
  Rng rng(2);
  const auto m = Matrix::random_uniform(3, 5, rng);
  const auto t = m.transposed();
  EXPECT_EQ(t.rows(), 5u);
  EXPECT_EQ(t.cols(), 3u);
  const auto tt = t.transposed();
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 5; ++c) EXPECT_EQ(m(r, c), tt(r, c));
  }
}

TEST(Matrix, MultiplicationKnownValues) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 3;
  a(1, 1) = 4;
  Matrix b(2, 2);
  b(0, 0) = 5;
  b(0, 1) = 6;
  b(1, 0) = 7;
  b(1, 1) = 8;
  const auto c = a * b;
  EXPECT_EQ(c(0, 0), 19);
  EXPECT_EQ(c(0, 1), 22);
  EXPECT_EQ(c(1, 0), 43);
  EXPECT_EQ(c(1, 1), 50);
}

TEST(Matrix, MultiplicationByIdentity) {
  Rng rng(3);
  const auto m = Matrix::random_uniform(4, 4, rng);
  const auto p = m * Matrix::identity(4);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(m(r, c), p(r, c));
  }
}

TEST(Matrix, MultiplicationShapeMismatchThrows) {
  const Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(a * b, ContractViolation);
}

TEST(Matrix, SubtractionAndNormInf) {
  Matrix a(2, 2, 1.0);
  Matrix b(2, 2, 0.25);
  const auto d = a - b;
  EXPECT_DOUBLE_EQ(d.norm_inf(), 1.5);  // max row sum of 0.75s
}

TEST(Matrix, NormInfIsMaxAbsoluteRowSum) {
  Matrix m(2, 2);
  m(0, 0) = -3;
  m(0, 1) = 1;
  m(1, 0) = 1;
  m(1, 1) = 1;
  EXPECT_DOUBLE_EQ(m.norm_inf(), 4.0);
}

TEST(ErrorMetrics, PerfectFactorizationHasTinyError) {
  // V = Q·R with Q orthonormal-ish by construction: I and R = V.
  Rng rng(4);
  const auto v = Matrix::random_uniform(4, 4, rng);
  EXPECT_LT(factorization_error(v, Matrix::identity(4), v), 1e-15);
}

TEST(ErrorMetrics, OrthogonalityOfIdentity) {
  EXPECT_DOUBLE_EQ(orthogonality_error(Matrix::identity(5)), 0.0);
}

}  // namespace
}  // namespace pcf::linalg
