// Tests for the sparse (COO) ingestion path and the multi-vector
// (matrix-matrix) products on the compressed representation.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/gc_matrix.hpp"
#include "matrix/datasets.hpp"
#include "matrix/sparse_builder.hpp"
#include "util/rng.hpp"

namespace gcm {
namespace {

DenseMatrix PaperFigure1Matrix() {
  return DenseMatrix(6, 5,
                     {1.2, 3.4, 5.6, 0.0, 2.3,  //
                      2.3, 0.0, 2.3, 4.5, 1.7,  //
                      1.2, 3.4, 2.3, 4.5, 0.0,  //
                      3.4, 0.0, 5.6, 0.0, 2.3,  //
                      2.3, 0.0, 2.3, 4.5, 0.0,  //
                      1.2, 3.4, 2.3, 4.5, 3.4});
}

TEST(SparseBuilderTest, TripletsFromDenseRoundTrip) {
  DenseMatrix m = PaperFigure1Matrix();
  std::vector<Triplet> triplets = TripletsFromDense(m);
  EXPECT_EQ(triplets.size(), m.CountNonZeros());
  CsrvMatrix csrv = CsrvFromTriplets(m.rows(), m.cols(), triplets);
  EXPECT_EQ(csrv.ToDense(), m);
}

TEST(SparseBuilderTest, MatchesDenseBuilderExactly) {
  // Same matrix through both paths must produce identical S and V.
  Rng rng(401);
  DenseMatrix m = DenseMatrix::Random(60, 13, 0.4, 8, &rng);
  CsrvMatrix via_dense = CsrvMatrix::FromDense(m);
  CsrvMatrix via_triplets =
      CsrvFromTriplets(m.rows(), m.cols(), TripletsFromDense(m));
  EXPECT_EQ(via_dense.sequence(), via_triplets.sequence());
  EXPECT_EQ(via_dense.dictionary(), via_triplets.dictionary());
}

TEST(SparseBuilderTest, UnsortedInputHandled) {
  std::vector<Triplet> shuffled = {
      {2, 1, 5.0}, {0, 2, 1.0}, {2, 0, 3.0}, {0, 0, 2.0}};
  CsrvMatrix csrv = CsrvFromTriplets(3, 3, shuffled);
  DenseMatrix expected(3, 3);
  expected.Set(0, 0, 2.0);
  expected.Set(0, 2, 1.0);
  expected.Set(2, 0, 3.0);
  expected.Set(2, 1, 5.0);
  EXPECT_EQ(csrv.ToDense(), expected);
}

TEST(SparseBuilderTest, RejectsBadInput) {
  EXPECT_THROW(CsrvFromTriplets(2, 2, {{2, 0, 1.0}}), Error);    // row range
  EXPECT_THROW(CsrvFromTriplets(2, 2, {{0, 5, 1.0}}), Error);    // col range
  EXPECT_THROW(CsrvFromTriplets(2, 2, {{0, 0, 0.0}}), Error);    // zero
  EXPECT_THROW(
      CsrvFromTriplets(2, 2, {{0, 0, 1.0}, {0, 0, 2.0}}), Error);  // dup
}

TEST(SparseBuilderTest, TraversalOrderRespected) {
  DenseMatrix m = PaperFigure1Matrix();
  std::vector<u32> order = {4, 3, 2, 1, 0};
  CsrvMatrix via_dense = CsrvMatrix::FromDense(m, &order);
  CsrvMatrix via_triplets =
      CsrvFromTriplets(m.rows(), m.cols(), TripletsFromDense(m), &order);
  EXPECT_EQ(via_dense.sequence(), via_triplets.sequence());
}

TEST(SparseBuilderTest, CsrFromTripletsMultiplies) {
  Rng rng(409);
  DenseMatrix m = DenseMatrix::Random(40, 9, 0.3, 5, &rng);
  CsrMatrix csr = CsrFromTriplets(m.rows(), m.cols(), TripletsFromDense(m));
  std::vector<double> x(9);
  for (auto& v : x) v = rng.NextDouble();
  std::vector<double> y(m.rows());
  csr.MultiplyRightInto(x, y);
  EXPECT_LT(MaxAbsDiff(y, m.MultiplyRight(x)), 1e-12);
  EXPECT_EQ(csr.ToDense(), m);
}

TEST(SparseBuilderTest, CsrFromPartsValidation) {
  EXPECT_THROW(CsrMatrix::FromParts(2, 2, {1.0}, {0}, {0, 1}), Error);
  EXPECT_THROW(CsrMatrix::FromParts(2, 2, {1.0}, {0, 1}, {0, 0, 1}), Error);
  EXPECT_THROW(CsrMatrix::FromParts(2, 2, {1.0}, {5}, {0, 1, 1}), Error);
}

TEST(SparseBuilderTest, EmptyRowsAndEmptyMatrix) {
  CsrvMatrix empty = CsrvFromTriplets(4, 3, {});
  EXPECT_EQ(empty.ToDense(), DenseMatrix(4, 3));
  EXPECT_EQ(empty.sequence().size(), 4u);  // four sentinels
}

class SparseGcTest : public ::testing::TestWithParam<GcFormat> {};

TEST_P(SparseGcTest, FromTripletsEquivalentToFromDense) {
  const DatasetProfile& profile = DatasetByName("Covtype");
  DenseMatrix m = GenerateDatasetRows(profile, 300);
  GcMatrix via_dense = GcMatrix::FromDense(m, {GetParam(), 12, 0});
  GcMatrix via_triplets = GcMatrix::FromTriplets(
      m.rows(), m.cols(), TripletsFromDense(m), {GetParam(), 12, 0});
  EXPECT_EQ(via_dense.CompressedBytes(), via_triplets.CompressedBytes());
  EXPECT_EQ(via_triplets.ToDense(), m);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, SparseGcTest,
                         ::testing::Values(GcFormat::kCsrv, GcFormat::kRe32,
                                           GcFormat::kReIv,
                                           GcFormat::kReAns),
                         [](const auto& suffix_info) {
                           return FormatName(suffix_info.param);
                         });

// --------------------------------------------------------------------------
// Multi-vector products
// --------------------------------------------------------------------------

class MultiRhsTest : public ::testing::TestWithParam<GcFormat> {};

TEST_P(MultiRhsTest, RightMultiMatchesColumnwise) {
  Rng rng(419);
  DenseMatrix m = DenseMatrix::Random(50, 12, 0.5, 6, &rng);
  GcMatrix gc = GcMatrix::FromDense(m, {GetParam(), 12, 0});
  const std::size_t k = 5;
  DenseMatrix x(12, k);
  for (std::size_t r = 0; r < 12; ++r) {
    for (std::size_t c = 0; c < k; ++c) x.Set(r, c, rng.NextDouble() - 0.5);
  }
  // A reused block full of stale values: every entry is overwritten.
  DenseMatrix y(50, k);
  for (std::size_t r = 0; r < 50; ++r) {
    for (std::size_t c = 0; c < k; ++c) y.Set(r, c, 1e300);
  }
  gc.MultiplyRightMulti(x, &y);
  ASSERT_EQ(y.rows(), 50u);
  ASSERT_EQ(y.cols(), k);
  for (std::size_t t = 0; t < k; ++t) {
    std::vector<double> column(12);
    for (std::size_t r = 0; r < 12; ++r) column[r] = x.At(r, t);
    std::vector<double> expected = m.MultiplyRight(column);
    for (std::size_t r = 0; r < 50; ++r) {
      EXPECT_NEAR(y.At(r, t), expected[r], 1e-9);
    }
  }
}

TEST_P(MultiRhsTest, LeftMultiMatchesRowwise) {
  Rng rng(421);
  DenseMatrix m = DenseMatrix::Random(40, 10, 0.5, 5, &rng);
  GcMatrix gc = GcMatrix::FromDense(m, {GetParam(), 12, 0});
  const std::size_t k = 4;
  DenseMatrix x(k, 40);
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t c = 0; c < 40; ++c) x.Set(r, c, rng.NextDouble() - 0.5);
  }
  // The kernel accumulates into the caller's block, so it must zero the
  // stale values first.
  DenseMatrix y(k, 10);
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t c = 0; c < 10; ++c) y.Set(r, c, 1e300);
  }
  gc.MultiplyLeftMulti(x, &y);
  ASSERT_EQ(y.rows(), k);
  ASSERT_EQ(y.cols(), 10u);
  for (std::size_t t = 0; t < k; ++t) {
    std::vector<double> row(40);
    for (std::size_t c = 0; c < 40; ++c) row[c] = x.At(t, c);
    std::vector<double> expected = m.MultiplyLeft(row);
    for (std::size_t c = 0; c < 10; ++c) {
      EXPECT_NEAR(y.At(t, c), expected[c], 1e-9);
    }
  }
}

TEST_P(MultiRhsTest, SingleColumnMultiEqualsVectorKernel) {
  Rng rng(431);
  DenseMatrix m = DenseMatrix::Random(30, 8, 0.6, 4, &rng);
  GcMatrix gc = GcMatrix::FromDense(m, {GetParam(), 12, 0});
  std::vector<double> x(8);
  for (auto& v : x) v = rng.NextDouble();
  DenseMatrix x_mat(8, 1, std::vector<double>(x));
  DenseMatrix y_multi(30, 1);
  gc.MultiplyRightMulti(x_mat, &y_multi);
  std::vector<double> y(30);
  gc.MultiplyRightInto(x, y);
  for (std::size_t r = 0; r < 30; ++r) {
    EXPECT_NEAR(y_multi.At(r, 0), y[r], 1e-12);
  }
}

TEST_P(MultiRhsTest, DimensionMismatchThrows) {
  GcMatrix gc = GcMatrix::FromDense(PaperFigure1Matrix(), {GetParam(), 12, 0});
  const std::size_t rows = gc.rows();
  const std::size_t cols = gc.cols();
  DenseMatrix right_y(rows, 2);
  DenseMatrix left_y(2, cols);
  EXPECT_THROW(gc.MultiplyRightMulti(DenseMatrix(4, 2), &right_y), Error);
  EXPECT_THROW(gc.MultiplyLeftMulti(DenseMatrix(2, 4), &left_y), Error);
  // A well-shaped input into a mis-shaped output block is refused too.
  DenseMatrix wrong_right(rows + 1, 2);
  DenseMatrix wrong_left(2, cols + 1);
  EXPECT_THROW(gc.MultiplyRightMulti(DenseMatrix(cols, 2), &wrong_right),
               Error);
  EXPECT_THROW(gc.MultiplyLeftMulti(DenseMatrix(2, rows), &wrong_left), Error);
}

TEST_P(MultiRhsTest, GramMatrixViaCompressedProducts) {
  // (M^t M) computed as MultiplyLeftMulti over M^t's rows equals the dense
  // Gram matrix -- the building block of normal-equation solvers.
  Rng rng(433);
  DenseMatrix m = DenseMatrix::Random(35, 6, 0.7, 4, &rng);
  GcMatrix gc = GcMatrix::FromDense(m, {GetParam(), 12, 0});
  DenseMatrix mt = m.Transposed();            // 6 x 35
  DenseMatrix gram(6, 6);
  gc.MultiplyLeftMulti(mt, &gram);  // (6 x 35) * (35 x 6)
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) {
      double expected = 0.0;
      for (std::size_t r = 0; r < 35; ++r) {
        expected += m.At(r, i) * m.At(r, j);
      }
      EXPECT_NEAR(gram.At(i, j), expected, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, MultiRhsTest,
                         ::testing::Values(GcFormat::kCsrv, GcFormat::kRe32,
                                           GcFormat::kReIv,
                                           GcFormat::kReAns),
                         [](const auto& suffix_info) {
                           return FormatName(suffix_info.param);
                         });

// --------------------------------------------------------------------------
// Single-row extraction
// --------------------------------------------------------------------------

class ExtractRowTest : public ::testing::TestWithParam<GcFormat> {};

TEST_P(ExtractRowTest, EveryRowMatchesDense) {
  Rng rng(443);
  DenseMatrix m = DenseMatrix::Random(37, 11, 0.5, 6, &rng);
  GcMatrix gc = GcMatrix::FromDense(m, {GetParam(), 12, 0});
  for (std::size_t r = 0; r < m.rows(); ++r) {
    std::vector<double> row = gc.ExtractRow(r);
    ASSERT_EQ(row.size(), m.cols());
    for (std::size_t c = 0; c < m.cols(); ++c) {
      EXPECT_EQ(row[c], m.At(r, c)) << "row " << r << " col " << c;
    }
  }
}

TEST_P(ExtractRowTest, OutOfRangeThrows) {
  GcMatrix gc = GcMatrix::FromDense(PaperFigure1Matrix(), {GetParam(), 12, 0});
  EXPECT_THROW(gc.ExtractRow(6), Error);
}

TEST_P(ExtractRowTest, EmptyRowsComeBackZero) {
  DenseMatrix m(5, 4);
  m.Set(2, 1, 7.0);  // only row 2 has content
  GcMatrix gc = GcMatrix::FromDense(m, {GetParam(), 12, 0});
  EXPECT_EQ(gc.ExtractRow(0), std::vector<double>(4, 0.0));
  std::vector<double> middle = gc.ExtractRow(2);
  EXPECT_EQ(middle[1], 7.0);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, ExtractRowTest,
                         ::testing::Values(GcFormat::kCsrv, GcFormat::kRe32,
                                           GcFormat::kReIv,
                                           GcFormat::kReAns),
                         [](const auto& suffix_info) {
                           return FormatName(suffix_info.param);
                         });

}  // namespace
}  // namespace gcm
