#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "baselines/cla/cla_matrix.hpp"
#include "baselines/external/external_compressors.hpp"
#include "core/any_matrix.hpp"
#include "matrix/datasets.hpp"
#include "util/rng.hpp"

namespace gcm {
namespace {

std::vector<double> RandomVector(std::size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng->NextDouble() * 2.0 - 1.0;
  return v;
}

// The gzip/xz backends are optional at build time (GCM_HAVE_ZLIB /
// GCM_HAVE_LZMA); every test below must pass in both configurations. The
// contract tests exercise the documented behavior directly: round-trip when
// the backend is compiled in, a clear "support compiled out" error when not.

TEST(ExternalCompressorsTest, GzipContractRoundTripOrDocumentedError) {
  std::string text(5000, 'a');
  for (std::size_t i = 0; i < text.size(); i += 7) text[i] = 'b';
  if (GzipAvailable()) {
    std::vector<u8> compressed = GzipCompress(text.data(), text.size());
    EXPECT_LT(compressed.size(), text.size() / 5);
    std::vector<u8> restored = GzipDecompress(compressed, text.size());
    EXPECT_EQ(std::memcmp(restored.data(), text.data(), text.size()), 0);
  } else {
    try {
      GzipCompress(text.data(), text.size());
      FAIL() << "GzipCompress should throw when zlib is compiled out";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("zlib support compiled out"),
                std::string::npos)
          << "actual message: " << e.what();
    }
    EXPECT_THROW(GzipDecompress({1, 2, 3}, 10), Error);
  }
}

TEST(ExternalCompressorsTest, XzContractRoundTripOrDocumentedError) {
  std::string text;
  for (int i = 0; i < 1000; ++i) text += "repetitive chunk ";
  if (XzAvailable()) {
    std::vector<u8> compressed = XzCompress(text.data(), text.size());
    EXPECT_LT(compressed.size(), text.size() / 10);
    std::vector<u8> restored = XzDecompress(compressed, text.size());
    EXPECT_EQ(std::memcmp(restored.data(), text.data(), text.size()), 0);
  } else {
    try {
      XzCompress(text.data(), text.size());
      FAIL() << "XzCompress should throw when liblzma is compiled out";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("liblzma support compiled out"),
                std::string::npos)
          << "actual message: " << e.what();
    }
    EXPECT_THROW(XzDecompress({1, 2, 3}, 10), Error);
  }
}

TEST(ExternalCompressorsTest, AvailabilityMatchesBuildConfig) {
  EXPECT_EQ(GzipAvailable(), GCM_HAVE_ZLIB != 0);
  EXPECT_EQ(XzAvailable(), GCM_HAVE_LZMA != 0);
}

TEST(ExternalCompressorsTest, XzBeatsGzipOnStructuredMatrices) {
  if (!GzipAvailable() || !XzAvailable()) {
    GTEST_SKIP() << "compressor backend compiled out";
  }
  // The paper's Table 1 has xz < gzip on every dataset.
  DenseMatrix m = GenerateDatasetRows(DatasetByName("Census"), 2000);
  EXPECT_LT(XzCompressedSize(m), GzipCompressedSize(m));
}

TEST(ExternalCompressorsTest, GzipDecompressRejectsGarbage) {
  // Passes in both configurations: zlib rejects the malformed stream, the
  // stub throws the compiled-out error -- either way a gcm::Error.
  std::vector<u8> garbage = {1, 2, 3, 4, 5};
  EXPECT_THROW(GzipDecompress(garbage, 100), Error);
}

// --------------------------------------------------------------------------
// CLA
// --------------------------------------------------------------------------

TEST(ClaTest, EncodingNames) {
  EXPECT_STREQ(ClaEncodingName(ClaEncoding::kUc), "UC");
  EXPECT_STREQ(ClaEncodingName(ClaEncoding::kDdc), "DDC");
  EXPECT_STREQ(ClaEncodingName(ClaEncoding::kRle), "RLE");
  EXPECT_STREQ(ClaEncodingName(ClaEncoding::kOle), "OLE");
}

TEST(ClaTest, RoundTripOnRandomMatrix) {
  Rng rng(71);
  DenseMatrix m = DenseMatrix::Random(80, 12, 0.4, 6, &rng);
  ClaMatrix cla = ClaMatrix::Compress(m);
  EXPECT_EQ(cla.ToDense(), m);
}

TEST(ClaTest, MultiplicationsMatchDense) {
  Rng rng(73);
  DenseMatrix m = DenseMatrix::Random(150, 20, 0.35, 8, &rng);
  ClaMatrix cla = ClaMatrix::Compress(m);
  AnyMatrix engine = AnyMatrix::Ref(cla);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> x = RandomVector(20, &rng);
    std::vector<double> y = RandomVector(150, &rng);
    EXPECT_LT(MaxAbsDiff(engine.MultiplyRight(x), m.MultiplyRight(x)), 1e-9);
    EXPECT_LT(MaxAbsDiff(engine.MultiplyLeft(y), m.MultiplyLeft(y)), 1e-9);
  }
}

TEST(ClaTest, ParallelMatchesSequential) {
  Rng rng(79);
  DenseMatrix m = GenerateDatasetRows(DatasetByName("Covtype"), 300);
  ClaMatrix cla = ClaMatrix::Compress(m);
  AnyMatrix engine = AnyMatrix::Ref(cla);
  ThreadPool pool(4);
  std::vector<double> x = RandomVector(m.cols(), &rng);
  std::vector<double> y = RandomVector(m.rows(), &rng);
  EXPECT_LT(
      MaxAbsDiff(engine.MultiplyRight(x, {&pool}), engine.MultiplyRight(x)),
      1e-12);
  EXPECT_LT(MaxAbsDiff(engine.MultiplyLeft(y, {&pool}), engine.MultiplyLeft(y)),
            1e-12);
}

TEST(ClaTest, PicksDdcForDenseFewDistinct) {
  // One column, dense, 4 distinct values: DDC is the clear winner.
  Rng rng(83);
  DenseMatrix m = DenseMatrix::Random(4000, 1, 1.0, 4, &rng);
  ClaOptions options;
  options.co_code = false;
  ClaMatrix cla = ClaMatrix::Compress(m, options);
  ASSERT_EQ(cla.group_count(), 1u);
  EXPECT_EQ(cla.group_encoding(0), ClaEncoding::kDdc);
}

TEST(ClaTest, PicksOleForSparseColumns) {
  // 2% dense column: storing ~80 offsets beats 4000 DDC ids.
  Rng rng(89);
  DenseMatrix m = DenseMatrix::Random(4000, 1, 0.02, 3, &rng);
  ClaOptions options;
  options.co_code = false;
  ClaMatrix cla = ClaMatrix::Compress(m, options);
  ASSERT_EQ(cla.group_count(), 1u);
  EXPECT_EQ(cla.group_encoding(0), ClaEncoding::kOle);
}

TEST(ClaTest, PicksRleForRunStructure) {
  // Long runs of a repeated value: RLE stores a handful of runs.
  DenseMatrix m(4000, 1);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    m.Set(r, 0, (r / 500) % 2 == 0 ? 7.5 : 0.0);
  }
  ClaOptions options;
  options.co_code = false;
  ClaMatrix cla = ClaMatrix::Compress(m, options);
  ASSERT_EQ(cla.group_count(), 1u);
  EXPECT_EQ(cla.group_encoding(0), ClaEncoding::kRle);
  EXPECT_LT(cla.CompressedBytes(), 200u);
}

TEST(ClaTest, PicksUcForIncompressible) {
  // Continuous values, fully dense: every tuple distinct; UC wins.
  Rng rng(97);
  DenseMatrix m = DenseMatrix::Random(500, 1, 1.0, 0, &rng);
  ClaOptions options;
  options.co_code = false;
  ClaMatrix cla = ClaMatrix::Compress(m, options);
  ASSERT_EQ(cla.group_count(), 1u);
  EXPECT_EQ(cla.group_encoding(0), ClaEncoding::kUc);
}

TEST(ClaTest, CoCodingGroupsCorrelatedColumns) {
  // Two perfectly correlated columns: one co-coded group is smaller than
  // two singleton groups.
  Rng rng(101);
  DenseMatrix m(3000, 2);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    double v = 1.0 + static_cast<double>(rng.Below(4));
    m.Set(r, 0, v);
    m.Set(r, 1, v * 2.0);
  }
  ClaOptions grouped;
  ClaOptions singleton;
  singleton.co_code = false;
  ClaMatrix with = ClaMatrix::Compress(m, grouped);
  ClaMatrix without = ClaMatrix::Compress(m, singleton);
  EXPECT_LT(with.group_count(), without.group_count());
  EXPECT_LT(with.CompressedBytes(), without.CompressedBytes());
  EXPECT_EQ(with.ToDense(), m);
}

TEST(ClaTest, GroupsPartitionColumns) {
  DenseMatrix m = GenerateDatasetRows(DatasetByName("Census"), 400);
  ClaMatrix cla = ClaMatrix::Compress(m);
  std::vector<int> seen(m.cols(), 0);
  for (std::size_t g = 0; g < cla.group_count(); ++g) {
    for (u32 c : cla.group_columns(g)) seen[c]++;
  }
  for (std::size_t c = 0; c < m.cols(); ++c) {
    EXPECT_EQ(seen[c], 1) << "column " << c;
  }
}

TEST(ClaTest, CompressesBelowDenseOnStructuredData) {
  DenseMatrix m = GenerateDatasetRows(DatasetByName("Census"), 1000);
  ClaMatrix cla = ClaMatrix::Compress(m);
  EXPECT_LT(cla.CompressedBytes(), m.UncompressedBytes() / 4);
  EXPECT_EQ(cla.ToDense(), m);
}

TEST(ClaTest, WrongVectorLengthThrows) {
  DenseMatrix m(5, 3);
  ClaMatrix cla = ClaMatrix::Compress(m);
  std::vector<double> y(5);
  std::vector<double> x(3);
  EXPECT_THROW(cla.MultiplyRightInto(std::vector<double>(2), y), Error);
  EXPECT_THROW(cla.MultiplyLeftInto(std::vector<double>(4), x), Error);
}

TEST(ClaTest, AllZeroMatrix) {
  DenseMatrix m(50, 4);
  ClaMatrix cla = ClaMatrix::Compress(m);
  EXPECT_EQ(cla.ToDense(), m);
  std::vector<double> y(50, -1.0);
  cla.MultiplyRightInto(std::vector<double>{1, 2, 3, 4}, y);
  EXPECT_EQ(y, std::vector<double>(50, 0.0));
}

TEST(ClaTest, PlanSummaryMentionsEveryGroup) {
  DenseMatrix m = GenerateDatasetRows(DatasetByName("Covtype"), 200);
  ClaMatrix cla = ClaMatrix::Compress(m);
  std::string summary = cla.PlanSummary();
  for (std::size_t g = 0; g < cla.group_count(); ++g) {
    EXPECT_NE(summary.find("group " + std::to_string(g)), std::string::npos);
  }
}

class ClaDatasetTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ClaDatasetTest, LosslessAndConsistentOnDatasets) {
  const DatasetProfile& profile = DatasetByName(GetParam());
  DenseMatrix m = GenerateDatasetRows(profile, 300);
  ClaMatrix cla = ClaMatrix::Compress(m);
  EXPECT_EQ(cla.ToDense(), m);
  Rng rng(103);
  std::vector<double> x = RandomVector(m.cols(), &rng);
  EXPECT_LT(
      MaxAbsDiff(AnyMatrix::Ref(cla).MultiplyRight(x), m.MultiplyRight(x)),
      1e-8);
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, ClaDatasetTest,
                         ::testing::Values("Susy", "Higgs", "Airline78",
                                           "Covtype", "Census", "Optical",
                                           "Mnist2m"));

}  // namespace
}  // namespace gcm
