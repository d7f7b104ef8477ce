// End-to-end and property-based suites crossing module boundaries:
// algebraic identities on compressed multiplication, full pipeline
// (generate -> reorder -> block -> compress -> iterate) consistency,
// serialization corruption resistance, and entropy-tracking sanity.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "baselines/cla/cla_matrix.hpp"
#include "core/any_matrix.hpp"
#include "core/blocked_matrix.hpp"
#include "core/power_iteration.hpp"
#include "matrix/datasets.hpp"
#include "matrix/stats.hpp"
#include "reorder/block_reorder.hpp"
#include "util/rng.hpp"

namespace gcm {
namespace {

std::vector<double> RandomVector(std::size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng->NextDouble() * 2.0 - 1.0;
  return v;
}

struct PipelineCase {
  const char* dataset;
  GcFormat format;
};

// CTest names each case after what GetParam() prints; without this the
// default printer dumps the `dataset` pointer, whose value differs per run.
void PrintTo(const PipelineCase& param, std::ostream* os) {
  *os << param.dataset << "/" << FormatName(param.format);
}

class PipelineTest : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineTest, ReorderBlockCompressIterate) {
  const DatasetProfile& profile = DatasetByName(GetParam().dataset);
  DenseMatrix dense = GenerateDatasetRows(profile, 250);

  CsmOptions csm;
  csm.prune = CsmPrune::kLocal;
  csm.k = 8;
  csm.row_sample = 128;
  std::vector<std::vector<u32>> orders =
      ComputeBlockOrders(dense, 4, ReorderAlgorithm::kPathCover, csm);
  BlockedGcMatrix blocked = BlockedGcMatrix::Build(
      dense, 4, {GetParam().format, 12, 0}, orders);

  ThreadPool pool(3);
  PowerIterationResult compressed =
      RunPowerIteration(AnyMatrix::Ref(blocked), 8, &pool);
  PowerIterationResult reference = RunPowerIteration(AnyMatrix::Ref(dense), 8);
  EXPECT_LT(MaxAbsDiff(compressed.x, reference.x), 1e-6)
      << profile.name << "/" << FormatName(GetParam().format);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineTest,
    ::testing::Values(PipelineCase{"Census", GcFormat::kRe32},
                      PipelineCase{"Census", GcFormat::kReAns},
                      PipelineCase{"Covtype", GcFormat::kReIv},
                      PipelineCase{"Airline78", GcFormat::kReAns},
                      PipelineCase{"Higgs", GcFormat::kReIv},
                      PipelineCase{"Mnist2m", GcFormat::kRe32},
                      PipelineCase{"Susy", GcFormat::kCsrv},
                      PipelineCase{"Optical", GcFormat::kReIv}),
    [](const auto& suffix_info) {
      return std::string(suffix_info.param.dataset) + "_" +
             FormatName(suffix_info.param.format);
    });

// --------------------------------------------------------------------------
// Algebraic identities on the compressed kernels
// --------------------------------------------------------------------------

class AlgebraTest : public ::testing::TestWithParam<GcFormat> {};

TEST_P(AlgebraTest, RightMultiplicationIsLinear) {
  Rng rng(301);
  DenseMatrix m = DenseMatrix::Random(45, 14, 0.5, 7, &rng);
  GcMatrix gc = GcMatrix::FromDense(m, {GetParam(), 12, 0});
  AnyMatrix engine = AnyMatrix::Ref(gc);
  std::vector<double> a = RandomVector(14, &rng);
  std::vector<double> b = RandomVector(14, &rng);
  const double alpha = 2.5, beta = -1.25;
  std::vector<double> combo(14);
  for (std::size_t i = 0; i < 14; ++i) combo[i] = alpha * a[i] + beta * b[i];
  std::vector<double> lhs = engine.MultiplyRight(combo);
  std::vector<double> ya = engine.MultiplyRight(a);
  std::vector<double> yb = engine.MultiplyRight(b);
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_NEAR(lhs[i], alpha * ya[i] + beta * yb[i], 1e-9);
  }
}

TEST_P(AlgebraTest, InnerProductDuality) {
  // <y, Mx> == <y^t M, x> must hold exactly up to floating-point noise.
  Rng rng(307);
  DenseMatrix m = DenseMatrix::Random(50, 11, 0.45, 6, &rng);
  GcMatrix gc = GcMatrix::FromDense(m, {GetParam(), 12, 0});
  AnyMatrix engine = AnyMatrix::Ref(gc);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> x = RandomVector(11, &rng);
    std::vector<double> y = RandomVector(50, &rng);
    std::vector<double> mx = engine.MultiplyRight(x);
    std::vector<double> ytm = engine.MultiplyLeft(y);
    double lhs = 0.0, rhs = 0.0;
    for (std::size_t i = 0; i < y.size(); ++i) lhs += y[i] * mx[i];
    for (std::size_t j = 0; j < x.size(); ++j) rhs += ytm[j] * x[j];
    EXPECT_NEAR(lhs, rhs, 1e-8);
  }
}

TEST_P(AlgebraTest, ColumnPermutationInvariance) {
  // Any traversal order yields the same multiplication results.
  Rng rng(311);
  DenseMatrix m = DenseMatrix::Random(40, 9, 0.6, 5, &rng);
  std::vector<u32> order = {8, 6, 4, 2, 0, 1, 3, 5, 7};
  CsrvMatrix plain = CsrvMatrix::FromDense(m);
  CsrvMatrix shuffled = CsrvMatrix::FromDense(m, &order);
  GcMatrix gc_plain = GcMatrix::FromCsrv(plain, {GetParam(), 12, 0});
  GcMatrix gc_shuffled = GcMatrix::FromCsrv(shuffled, {GetParam(), 12, 0});
  AnyMatrix engine_plain = AnyMatrix::Ref(gc_plain);
  AnyMatrix engine_shuffled = AnyMatrix::Ref(gc_shuffled);
  std::vector<double> x = RandomVector(9, &rng);
  std::vector<double> y = RandomVector(40, &rng);
  EXPECT_LT(MaxAbsDiff(engine_plain.MultiplyRight(x),
                       engine_shuffled.MultiplyRight(x)),
            1e-10);
  EXPECT_LT(MaxAbsDiff(engine_plain.MultiplyLeft(y),
                       engine_shuffled.MultiplyLeft(y)),
            1e-10);
}

TEST_P(AlgebraTest, BlockCountInvariance) {
  Rng rng(313);
  DenseMatrix m = DenseMatrix::Random(60, 8, 0.5, 4, &rng);
  std::vector<double> x = RandomVector(8, &rng);
  std::vector<double> reference;
  for (std::size_t blocks : {1u, 2u, 5u, 13u, 60u}) {
    BlockedGcMatrix blocked =
        BlockedGcMatrix::Build(m, blocks, {GetParam(), 12, 0});
    std::vector<double> y = AnyMatrix::Ref(blocked).MultiplyRight(x);
    if (reference.empty()) {
      reference = y;
    } else {
      EXPECT_LT(MaxAbsDiff(reference, y), 1e-10) << blocks << " blocks";
    }
  }
}

TEST_P(AlgebraTest, AgreesWithClaOnSameInput) {
  Rng rng(317);
  DenseMatrix m = DenseMatrix::Random(120, 16, 0.4, 6, &rng);
  GcMatrix gc = GcMatrix::FromDense(m, {GetParam(), 12, 0});
  ClaMatrix cla = ClaMatrix::Compress(m);
  AnyMatrix engine_gc = AnyMatrix::Ref(gc);
  AnyMatrix engine_cla = AnyMatrix::Ref(cla);
  std::vector<double> x = RandomVector(16, &rng);
  std::vector<double> y = RandomVector(120, &rng);
  EXPECT_LT(MaxAbsDiff(engine_gc.MultiplyRight(x), engine_cla.MultiplyRight(x)),
            1e-9);
  EXPECT_LT(MaxAbsDiff(engine_gc.MultiplyLeft(y), engine_cla.MultiplyLeft(y)),
            1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, AlgebraTest,
                         ::testing::Values(GcFormat::kCsrv, GcFormat::kRe32,
                                           GcFormat::kReIv,
                                           GcFormat::kReAns),
                         [](const auto& suffix_info) {
                           return FormatName(suffix_info.param);
                         });

// --------------------------------------------------------------------------
// Corruption resistance of the serialized formats
// --------------------------------------------------------------------------

class CorruptionTest : public ::testing::TestWithParam<GcFormat> {};

TEST_P(CorruptionTest, TruncationsNeverCrash) {
  Rng rng(331);
  DenseMatrix m = DenseMatrix::Random(30, 7, 0.5, 5, &rng);
  GcMatrix gc = GcMatrix::FromDense(m, {GetParam(), 12, 0});
  ByteWriter writer;
  gc.Serialize(&writer);
  const std::vector<u8>& bytes = writer.buffer();
  // Every truncation point must raise gcm::Error (never crash / UB).
  for (std::size_t cut = 0; cut < bytes.size();
       cut += std::max<std::size_t>(1, bytes.size() / 64)) {
    ByteReader reader(bytes.data(), cut);
    EXPECT_THROW(GcMatrix::Deserialize(&reader, gc.shared_dictionary()),
                 Error)
        << "cut at " << cut;
  }
}

TEST_P(CorruptionTest, HeaderBitFlipsDetectedOrHarmless) {
  Rng rng(337);
  DenseMatrix m = DenseMatrix::Random(25, 6, 0.6, 4, &rng);
  GcMatrix gc = GcMatrix::FromDense(m, {GetParam(), 12, 0});
  ByteWriter writer;
  gc.Serialize(&writer);
  std::vector<u8> bytes = writer.buffer();
  // Flip each of the first 12 header bytes; deserialization must either
  // throw or produce a structurally valid object (no crash / hang).
  for (std::size_t i = 0; i < std::min<std::size_t>(12, bytes.size()); ++i) {
    std::vector<u8> mutated = bytes;
    mutated[i] ^= 0x5a;
    try {
      ByteReader reader(mutated);
      GcMatrix restored =
          GcMatrix::Deserialize(&reader, gc.shared_dictionary());
      (void)restored.CompressedBytes();
    } catch (const Error&) {
      // detected -- fine
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, CorruptionTest,
                         ::testing::Values(GcFormat::kCsrv, GcFormat::kRe32,
                                           GcFormat::kReIv,
                                           GcFormat::kReAns),
                         [](const auto& suffix_info) {
                           return FormatName(suffix_info.param);
                         });

// --------------------------------------------------------------------------
// Entropy tracking: grammar output follows the H_k ordering of inputs
// --------------------------------------------------------------------------

TEST(EntropyTrackingTest, CompressedSizeOrdersWithEntropy) {
  // Three matrices of identical shape and density but increasing entropy
  // in their CSRV sequences must compress to increasing sizes.
  Rng rng(347);
  DenseMatrix low(400, 20), mid(400, 20), high(400, 20);
  for (std::size_t r = 0; r < 400; ++r) {
    for (std::size_t c = 0; c < 20; c += 2) {
      low.Set(r, c, 1.0 + static_cast<double>(c));  // identical rows
      mid.Set(r, c, 1.0 + static_cast<double>(rng.Below(4)));
      high.Set(r, c, 1.0 + static_cast<double>(rng.Below(64)));
    }
  }
  auto h1 = [](const DenseMatrix& m) {
    return EmpiricalEntropy(CsrvMatrix::FromDense(m).sequence().ToVector(), 1);
  };
  ASSERT_LT(h1(low), h1(mid));
  ASSERT_LT(h1(mid), h1(high));
  auto size = [](const DenseMatrix& m) {
    return GcMatrix::FromDense(m, {GcFormat::kReAns, 12, 0})
        .CompressedBytes();
  };
  EXPECT_LT(size(low), size(mid));
  EXPECT_LT(size(mid), size(high));
}

TEST(EntropyTrackingTest, RansApproachesOrderZeroEntropy) {
  // The rANS stream of a skewed literal-only sequence must land within a
  // modest factor of the H_0 bound.
  Rng rng(349);
  std::vector<u32> symbols(1 << 16);
  for (auto& s : symbols) s = static_cast<u32>(rng.SkewedBelow(200, 0.9));
  double h0_bits = EntropyBoundBits(symbols, 0);
  RansStream stream = RansEncode(symbols);
  double actual_bits = static_cast<double>(stream.SizeInBytes()) * 8.0;
  EXPECT_LT(actual_bits, 1.15 * h0_bits + 8 * 4096);  // 15% + model slack
  EXPECT_EQ(RansDecoder(stream).DecodeAll(), symbols);
}

}  // namespace
}  // namespace gcm
