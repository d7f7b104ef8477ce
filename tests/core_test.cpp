#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/any_matrix.hpp"
#include "core/blocked_matrix.hpp"
#include "core/gc_matrix.hpp"
#include "core/power_iteration.hpp"
#include "matrix/datasets.hpp"
#include "util/memory_tracker.hpp"
#include "util/rng.hpp"

namespace gcm {
namespace {

constexpr GcFormat kAllFormats[] = {GcFormat::kCsrv, GcFormat::kRe32,
                                    GcFormat::kReIv, GcFormat::kReAns};

DenseMatrix PaperFigure1Matrix() {
  return DenseMatrix(6, 5,
                     {1.2, 3.4, 5.6, 0.0, 2.3,  //
                      2.3, 0.0, 2.3, 4.5, 1.7,  //
                      1.2, 3.4, 2.3, 4.5, 0.0,  //
                      3.4, 0.0, 5.6, 0.0, 2.3,  //
                      2.3, 0.0, 2.3, 4.5, 0.0,  //
                      1.2, 3.4, 2.3, 4.5, 3.4});
}

std::vector<double> RandomVector(std::size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng->NextDouble() * 2.0 - 1.0;
  return v;
}

TEST(GcFormatTest, NamesRoundTrip) {
  for (GcFormat format : kAllFormats) {
    EXPECT_EQ(FormatByName(FormatName(format)), format);
  }
  EXPECT_THROW(FormatByName("bogus"), std::invalid_argument);
}

class GcMatrixFormatTest : public ::testing::TestWithParam<GcFormat> {};

TEST_P(GcMatrixFormatTest, PaperExampleRoundTrip) {
  DenseMatrix m = PaperFigure1Matrix();
  GcBuildOptions options;
  options.format = GetParam();
  GcMatrix gc = GcMatrix::FromDense(m, options);
  EXPECT_EQ(gc.rows(), 6u);
  EXPECT_EQ(gc.cols(), 5u);
  EXPECT_EQ(gc.ToDense(), m);
}

TEST_P(GcMatrixFormatTest, MultiplicationsMatchDense) {
  Rng rng(101);
  DenseMatrix m = DenseMatrix::Random(60, 23, 0.4, 12, &rng);
  GcBuildOptions options;
  options.format = GetParam();
  GcMatrix gc = GcMatrix::FromDense(m, options);
  AnyMatrix engine = AnyMatrix::Ref(gc);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> x = RandomVector(23, &rng);
    std::vector<double> y = RandomVector(60, &rng);
    EXPECT_LT(MaxAbsDiff(engine.MultiplyRight(x), m.MultiplyRight(x)), 1e-9);
    EXPECT_LT(MaxAbsDiff(engine.MultiplyLeft(y), m.MultiplyLeft(y)), 1e-9);
  }
}

TEST_P(GcMatrixFormatTest, EmptyAndDegenerateMatrices) {
  GcBuildOptions options;
  options.format = GetParam();
  // All-zero matrix: every row is just a sentinel.
  DenseMatrix zeros(4, 3);
  GcMatrix gc = GcMatrix::FromDense(zeros, options);
  EXPECT_EQ(gc.ToDense(), zeros);
  std::vector<double> y(4, -1.0);
  gc.MultiplyRightInto(std::vector<double>{1.0, 2.0, 3.0}, y);
  EXPECT_EQ(y, (std::vector<double>(4, 0.0)));
  // Single-cell matrix.
  DenseMatrix one(1, 1, {5.0});
  GcMatrix gc1 = GcMatrix::FromDense(one, options);
  std::vector<double> out(1);
  gc1.MultiplyRightInto(std::vector<double>{2.0}, out);
  EXPECT_DOUBLE_EQ(out[0], 10.0);
  gc1.MultiplyLeftInto(std::vector<double>{3.0}, out);
  EXPECT_DOUBLE_EQ(out[0], 15.0);
}

TEST_P(GcMatrixFormatTest, SerializationRoundTrip) {
  Rng rng(103);
  DenseMatrix m = DenseMatrix::Random(40, 11, 0.5, 7, &rng);
  GcBuildOptions options;
  options.format = GetParam();
  GcMatrix gc = GcMatrix::FromDense(m, options);
  ByteWriter w;
  gc.Serialize(&w);
  ByteReader r(w.buffer());
  GcMatrix restored = GcMatrix::Deserialize(&r, gc.shared_dictionary());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(restored.ToDense(), m);
  EXPECT_EQ(restored.CompressedBytes(), gc.CompressedBytes());
}

TEST_P(GcMatrixFormatTest, WrongVectorLengthThrows) {
  GcBuildOptions options;
  options.format = GetParam();
  GcMatrix gc = GcMatrix::FromDense(PaperFigure1Matrix(), options);
  std::vector<double> y(6);
  std::vector<double> x(5);
  EXPECT_THROW(gc.MultiplyRightInto(std::vector<double>(4), y), Error);
  EXPECT_THROW(gc.MultiplyLeftInto(std::vector<double>(5), x), Error);
  // The output's length is checked too.
  EXPECT_THROW(gc.MultiplyRightInto(x, std::span<double>(y).first(5)), Error);
  EXPECT_THROW(gc.MultiplyLeftInto(y, std::span<double>(x).first(4)), Error);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, GcMatrixFormatTest,
                         ::testing::Values(GcFormat::kCsrv, GcFormat::kRe32,
                                           GcFormat::kReIv, GcFormat::kReAns),
                         [](const auto& suffix_info) {
                           return FormatName(suffix_info.param);
                         });

TEST(GcMatrixTest, CsrvFormatHasNoRules) {
  GcBuildOptions options;
  options.format = GcFormat::kCsrv;
  GcMatrix gc = GcMatrix::FromDense(PaperFigure1Matrix(), options);
  EXPECT_EQ(gc.rule_count(), 0u);
  // csrv size = 4|S| + 8|V|.
  CsrvMatrix csrv = CsrvMatrix::FromDense(PaperFigure1Matrix());
  EXPECT_EQ(gc.CompressedBytes(), csrv.SizeInBytes());
}

TEST(GcMatrixTest, GrammarShrinksRepetitiveMatrix) {
  // Many identical rows with 20 non-zeros each: RePair collapses every row
  // body to one nonterminal, so |C| -> 2 symbols/row while csrv keeps 21.
  // (Sentinels never compress, which caps the gain at (t+n)/2n.)
  DenseMatrix m(200, 40);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < 40; c += 2) {
      m.Set(r, c, 1.5 + static_cast<double>(c));
    }
  }
  GcBuildOptions csrv_opts{GcFormat::kCsrv, 12, 0};
  GcBuildOptions re32_opts{GcFormat::kRe32, 12, 0};
  GcMatrix csrv = GcMatrix::FromDense(m, csrv_opts);
  GcMatrix re32 = GcMatrix::FromDense(m, re32_opts);
  EXPECT_LT(re32.CompressedBytes(), csrv.CompressedBytes() / 4);
}

TEST(GcMatrixTest, PackedVariantSmallerThan32Bit) {
  // The re_32 > re_iv > re_ans size ordering of the paper's Table 1 needs
  // enough rows that the rANS model header amortizes.
  const DatasetProfile& profile = DatasetByName("Census");
  DenseMatrix m = GenerateDatasetRows(profile, 6000);
  GcMatrix re32 = GcMatrix::FromDense(m, {GcFormat::kRe32, 12, 0});
  GcMatrix reiv = GcMatrix::FromDense(m, {GcFormat::kReIv, 12, 0});
  GcMatrix reans = GcMatrix::FromDense(m, {GcFormat::kReAns, 12, 0});
  EXPECT_LT(reiv.CompressedBytes(), re32.CompressedBytes());
  EXPECT_LT(reans.CompressedBytes(), reiv.CompressedBytes());
}

TEST(GcMatrixTest, DecompressSequenceMatchesCsrv) {
  Rng rng(107);
  DenseMatrix m = DenseMatrix::Random(30, 9, 0.6, 5, &rng);
  CsrvMatrix csrv = CsrvMatrix::FromDense(m);
  for (GcFormat format : kAllFormats) {
    GcMatrix gc = GcMatrix::FromCsrv(csrv, {format, 12, 0});
    EXPECT_EQ(gc.DecompressSequence(), csrv.sequence())
        << FormatName(format);
  }
}

TEST(GcMatrixTest, CorruptSerializationRejected) {
  GcMatrix gc = GcMatrix::FromDense(PaperFigure1Matrix(),
                                    {GcFormat::kRe32, 12, 0});
  ByteWriter w;
  gc.Serialize(&w);
  std::vector<u8> bytes = w.buffer();
  bytes[0] = 0xff;  // invalid format byte
  ByteReader r(bytes);
  EXPECT_THROW(GcMatrix::Deserialize(&r, gc.shared_dictionary()), Error);
}

// --------------------------------------------------------------------------
// BlockedGcMatrix
// --------------------------------------------------------------------------

struct BlockedCase {
  GcFormat format;
  std::size_t blocks;
};

class BlockedTest : public ::testing::TestWithParam<BlockedCase> {};

TEST_P(BlockedTest, MatchesDenseAcrossBlockCounts) {
  Rng rng(211);
  DenseMatrix m = DenseMatrix::Random(97, 13, 0.45, 9, &rng);
  GcBuildOptions options;
  options.format = GetParam().format;
  BlockedGcMatrix blocked = BlockedGcMatrix::Build(m, GetParam().blocks,
                                                   options);
  EXPECT_EQ(blocked.rows(), 97u);
  std::vector<double> x = RandomVector(13, &rng);
  std::vector<double> y = RandomVector(97, &rng);
  AnyMatrix engine = AnyMatrix::Ref(blocked);
  EXPECT_LT(MaxAbsDiff(engine.MultiplyRight(x), m.MultiplyRight(x)), 1e-9);
  EXPECT_LT(MaxAbsDiff(engine.MultiplyLeft(y), m.MultiplyLeft(y)), 1e-9);
  EXPECT_EQ(blocked.ToDense(), m);
}

TEST_P(BlockedTest, ParallelMatchesSequential) {
  Rng rng(223);
  DenseMatrix m = DenseMatrix::Random(120, 10, 0.5, 6, &rng);
  GcBuildOptions options;
  options.format = GetParam().format;
  BlockedGcMatrix blocked =
      BlockedGcMatrix::Build(m, GetParam().blocks, options);
  ThreadPool pool(4);
  std::vector<double> x = RandomVector(10, &rng);
  std::vector<double> y = RandomVector(120, &rng);
  AnyMatrix engine = AnyMatrix::Ref(blocked);
  EXPECT_EQ(engine.MultiplyRight(x, {&pool}), engine.MultiplyRight(x));
  EXPECT_LT(MaxAbsDiff(engine.MultiplyLeft(y, {&pool}), engine.MultiplyLeft(y)),
            1e-12);
}

// CTest names each case after the bytes GetParam() prints, padding
// included. A static array starts zeroed, so the padding after `format`
// is 0 in every build; cases built as temporaries carried stack garbage
// there and got a new CTest name on every build.
const BlockedCase kBlockedCases[] = {
    {GcFormat::kCsrv, 1},  {GcFormat::kCsrv, 4},  {GcFormat::kRe32, 3},
    {GcFormat::kRe32, 16}, {GcFormat::kReIv, 2},  {GcFormat::kReIv, 8},
    {GcFormat::kReAns, 4}, {GcFormat::kReAns, 7}, {GcFormat::kRe32, 200}};

INSTANTIATE_TEST_SUITE_P(Sweep, BlockedTest,
                         ::testing::ValuesIn(kBlockedCases));

TEST(BlockedTest, MoreBlocksThanRowsStillWorks) {
  Rng rng(227);
  DenseMatrix m = DenseMatrix::Random(5, 4, 0.8, 3, &rng);
  BlockedGcMatrix blocked =
      BlockedGcMatrix::Build(m, 64, {GcFormat::kRe32, 12, 0});
  EXPECT_LE(blocked.block_count(), 5u);
  EXPECT_EQ(blocked.ToDense(), m);
}

TEST(BlockedTest, PerBlockTraversalOrdersPreserveSemantics) {
  Rng rng(229);
  DenseMatrix m = DenseMatrix::Random(40, 6, 0.7, 4, &rng);
  std::vector<std::vector<u32>> orders = {
      {0, 1, 2, 3, 4, 5}, {5, 4, 3, 2, 1, 0}, {2, 0, 4, 1, 5, 3},
      {1, 3, 5, 0, 2, 4}};
  BlockedGcMatrix blocked =
      BlockedGcMatrix::Build(m, 4, {GcFormat::kRe32, 12, 0}, orders);
  EXPECT_EQ(blocked.ToDense(), m);
  std::vector<double> x = RandomVector(6, &rng);
  EXPECT_LT(MaxAbsDiff(AnyMatrix::Ref(blocked).MultiplyRight(x),
                       m.MultiplyRight(x)),
            1e-9);
}

TEST(BlockedTest, WrongOrderCountThrows) {
  DenseMatrix m(10, 3);
  std::vector<std::vector<u32>> orders = {{0, 1, 2}};
  EXPECT_THROW(
      BlockedGcMatrix::Build(m, 4, {GcFormat::kRe32, 12, 0}, orders), Error);
}

TEST(BlockedTest, SharedDictionaryAccountedOnce) {
  const DatasetProfile& profile = DatasetByName("Census");
  DenseMatrix m = GenerateDatasetRows(profile, 600);
  BlockedGcMatrix blocked =
      BlockedGcMatrix::Build(m, 4, {GcFormat::kRe32, 12, 0});
  u64 payloads = 0;
  for (std::size_t b = 0; b < blocked.block_count(); ++b) {
    payloads += blocked.block(b).PayloadBytes();
  }
  u64 dict_bytes =
      blocked.block(0).dictionary().size() * sizeof(double);
  EXPECT_EQ(blocked.CompressedBytes(), payloads + dict_bytes);
}

// --------------------------------------------------------------------------
// Power iteration (Eq. 4)
// --------------------------------------------------------------------------

TEST(PowerIterationTest, AgreesBetweenDenseAndCompressed) {
  Rng rng(233);
  DenseMatrix m = DenseMatrix::Random(50, 8, 0.6, 5, &rng);
  PowerIterationResult dense = RunPowerIteration(AnyMatrix::Ref(m), 20);
  for (GcFormat format : kAllFormats) {
    GcMatrix gc = GcMatrix::FromDense(m, {format, 12, 0});
    PowerIterationResult compressed =
        RunPowerIteration(AnyMatrix::Ref(gc), 20);
    EXPECT_LT(MaxAbsDiff(dense.x, compressed.x), 1e-6) << FormatName(format);
  }
}

TEST(PowerIterationTest, BlockedAgreesWithSingle) {
  Rng rng(239);
  DenseMatrix m = DenseMatrix::Random(64, 9, 0.5, 6, &rng);
  GcMatrix single = GcMatrix::FromDense(m, {GcFormat::kReIv, 12, 0});
  BlockedGcMatrix blocked =
      BlockedGcMatrix::Build(m, 8, {GcFormat::kReIv, 12, 0});
  ThreadPool pool(4);
  PowerIterationResult a = RunPowerIteration(AnyMatrix::Ref(single), 15);
  PowerIterationResult b =
      RunPowerIteration(AnyMatrix::Ref(blocked), 15, &pool);
  EXPECT_LT(MaxAbsDiff(a.x, b.x), 1e-9);
}

TEST(PowerIterationTest, ConvergesToDominantSingularDirection) {
  // For M = diag(3, 1): x -> M^t M x converges to e1.
  DenseMatrix m(2, 2, {3, 0, 0, 1});
  PowerIterationResult result = RunPowerIteration(AnyMatrix::Ref(m), 50);
  EXPECT_NEAR(std::fabs(result.x[0]), 1.0, 1e-9);
  EXPECT_NEAR(result.x[1], 0.0, 1e-6);
}

TEST(PowerIterationTest, ZeroMatrixYieldsZeroVector) {
  DenseMatrix zeros(5, 5);
  PowerIterationResult result =
      RunPowerIteration(AnyMatrix::Ref(zeros), 3);
  EXPECT_EQ(result.x, std::vector<double>(5, 0.0));
}

TEST(PowerIterationTest, ReportsTimingAndMemory) {
  Rng rng(241);
  DenseMatrix m = DenseMatrix::Random(100, 10, 0.5, 5, &rng);
  GcMatrix gc = GcMatrix::FromDense(m, {GcFormat::kRe32, 12, 0});
  PowerIterationResult result = RunPowerIteration(AnyMatrix::Ref(gc), 10);
  EXPECT_EQ(result.iterations, 10u);
  EXPECT_GT(result.seconds_total, 0.0);
  if (MemoryTracker::TrackingActive()) {
    EXPECT_GT(result.peak_heap_bytes, 0u);
  } else {
    EXPECT_EQ(result.peak_heap_bytes, 0u)
        << "heap tracking is compiled out under sanitizers";
  }
}

// --------------------------------------------------------------------------
// Integration over the synthetic paper datasets
// --------------------------------------------------------------------------

class DatasetIntegrationTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DatasetIntegrationTest, AllFormatsLosslessAndConsistent) {
  const DatasetProfile& profile = DatasetByName(GetParam());
  DenseMatrix m = GenerateDatasetRows(profile, 400);
  Rng rng(251);
  std::vector<double> x = RandomVector(m.cols(), &rng);
  std::vector<double> expected = m.MultiplyRight(x);
  for (GcFormat format : kAllFormats) {
    BlockedGcMatrix blocked =
        BlockedGcMatrix::Build(m, 4, {format, 12, 0});
    EXPECT_LT(MaxAbsDiff(AnyMatrix::Ref(blocked).MultiplyRight(x), expected),
              1e-6)
        << profile.name << "/" << FormatName(format);
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, DatasetIntegrationTest,
                         ::testing::Values("Susy", "Higgs", "Airline78",
                                           "Covtype", "Census", "Optical",
                                           "Mnist2m"));

}  // namespace
}  // namespace gcm
