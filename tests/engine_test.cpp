// Conformance suite for the AnyMatrix engine API: every registered spec
// (plus parameterized variants) must build, report sane metadata, agree
// with the dense oracle on both multiplications, give the same bits with
// and without a pool, and enforce the *Into size / aliasing preconditions.
// Also covers the spec parser, the name round-trips shared with the CLI
// flags, the AdviseFormat engine overload, and pooled multi-vector
// batches.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/cla/cla_matrix.hpp"
#include "core/any_matrix.hpp"
#include "core/blocked_matrix.hpp"
#include "core/format_advisor.hpp"
#include "core/gc_matrix.hpp"
#include "core/power_iteration.hpp"
#include "encoding/snapshot.hpp"
#include "grammar/repair.hpp"
#include "matrix/csr.hpp"
#include "matrix/csrv.hpp"
#include "matrix/sparse_builder.hpp"
#include "conformance_specs.hpp"
#include "util/memory_tracker.hpp"
#include "util/rng.hpp"

namespace gcm {
namespace {

std::vector<double> RandomVector(std::size_t n, Rng* rng) {
  std::vector<double> v(n);
  for (auto& x : v) x = rng->NextDouble() * 2.0 - 1.0;
  return v;
}

bool BitwiseEqual(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool BitwiseEqual(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         BitwiseEqual(a.data(), b.data());
}

DenseMatrix TestMatrix() {
  Rng rng(4242);
  return DenseMatrix::Random(48, 13, 0.5, 6, &rng);
}

// ConformanceSpecs() / SpecTestName() live in tests/conformance_specs.hpp,
// shared with the SIMD equivalence suite.

class EngineConformanceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(EngineConformanceTest, BuildsWithSaneMetadata) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(dense, GetParam());
  EXPECT_EQ(m.rows(), dense.rows());
  EXPECT_EQ(m.cols(), dense.cols());
  EXPECT_GT(m.CompressedBytes(), 0u);
  EXPECT_FALSE(m.FormatTag().empty());
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.ToDense(), dense), 0.0);
}

TEST_P(EngineConformanceTest, MultiplicationsMatchDenseOracle) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(dense, GetParam());
  Rng rng(77);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<double> x = RandomVector(dense.cols(), &rng);
    std::vector<double> y = RandomVector(dense.rows(), &rng);
    EXPECT_LT(MaxAbsDiff(m.MultiplyRight(x), dense.MultiplyRight(x)), 1e-9);
    EXPECT_LT(MaxAbsDiff(m.MultiplyLeft(y), dense.MultiplyLeft(y)), 1e-9);
  }
}

TEST_P(EngineConformanceTest, IntoKernelsOverwriteDirtyBuffers) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(dense, GetParam());
  Rng rng(78);
  std::vector<double> x = RandomVector(dense.cols(), &rng);
  std::vector<double> y(dense.rows(), 123.456);  // stale garbage
  m.MultiplyRightInto(x, y);
  EXPECT_LT(MaxAbsDiff(y, dense.MultiplyRight(x)), 1e-9);

  std::vector<double> w = RandomVector(dense.rows(), &rng);
  std::vector<double> back(dense.cols(), -987.6);
  m.MultiplyLeftInto(w, back);
  EXPECT_LT(MaxAbsDiff(back, dense.MultiplyLeft(w)), 1e-9);
}

TEST_P(EngineConformanceTest, IntoKernelsRejectWrongSizes) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(dense, GetParam());
  std::vector<double> good_x(dense.cols(), 1.0);
  std::vector<double> good_y(dense.rows(), 0.0);
  std::vector<double> bad(dense.cols() + dense.rows() + 1, 0.0);
  EXPECT_THROW(m.MultiplyRightInto(bad, good_y), Error);
  EXPECT_THROW(m.MultiplyRightInto(good_x, bad), Error);
  EXPECT_THROW(m.MultiplyLeftInto(bad, good_x), Error);
  EXPECT_THROW(m.MultiplyLeftInto(good_y, bad), Error);
}

TEST_P(EngineConformanceTest, IntoKernelsRejectAliasedSpans) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(dense, GetParam());
  // One buffer, input and output spans overlapping in one element.
  std::vector<double> buffer(dense.cols() + dense.rows() - 1, 1.0);
  std::span<const double> x(buffer.data(), dense.cols());
  std::span<double> y(buffer.data() + dense.cols() - 1, dense.rows());
  EXPECT_THROW(m.MultiplyRightInto(x, y), Error);
}

TEST_P(EngineConformanceTest, PoolAndNoPoolAgree) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(dense, GetParam());
  ThreadPool pool(3);
  Rng rng(79);
  std::vector<double> x = RandomVector(dense.cols(), &rng);
  std::vector<double> y = RandomVector(dense.rows(), &rng);
  EXPECT_TRUE(BitwiseEqual(m.MultiplyRight(x, {&pool}), m.MultiplyRight(x)));
  EXPECT_TRUE(BitwiseEqual(m.MultiplyLeft(y, {&pool}), m.MultiplyLeft(y)));
}

TEST_P(EngineConformanceTest, MultiVectorMatchesSequentialBitwise) {
  // The batching server coalesces k single-vector requests into one
  // MultiplyRightMulti / MultiplyLeftMulti call; its correctness argument
  // is exactly this contract: vector j of the multi-vector result is
  // BITWISE identical to the sequential single-vector call on input j.
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(dense, GetParam());
  Rng rng(80);
  const std::size_t k = 3;

  DenseMatrix xs(dense.cols(), k);
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<double> x = RandomVector(dense.cols(), &rng);
    for (std::size_t r = 0; r < dense.cols(); ++r) xs.Set(r, j, x[r]);
  }
  DenseMatrix right = m.MultiplyRightMulti(xs);
  ASSERT_EQ(right.rows(), dense.rows());
  ASSERT_EQ(right.cols(), k);
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<double> x(dense.cols());
    for (std::size_t r = 0; r < dense.cols(); ++r) x[r] = xs.At(r, j);
    std::vector<double> expect = m.MultiplyRight(x);
    for (std::size_t r = 0; r < dense.rows(); ++r) {
      ASSERT_EQ(right.At(r, j), expect[r]) << "column " << j << " row " << r;
    }
  }

  DenseMatrix ys(k, dense.rows());
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<double> y = RandomVector(dense.rows(), &rng);
    for (std::size_t c = 0; c < dense.rows(); ++c) ys.Set(j, c, y[c]);
  }
  DenseMatrix left = m.MultiplyLeftMulti(ys);
  ASSERT_EQ(left.rows(), k);
  ASSERT_EQ(left.cols(), dense.cols());
  for (std::size_t j = 0; j < k; ++j) {
    std::vector<double> y(dense.rows());
    for (std::size_t c = 0; c < dense.rows(); ++c) y[c] = ys.At(j, c);
    std::vector<double> expect = m.MultiplyLeft(y);
    for (std::size_t c = 0; c < dense.cols(); ++c) {
      ASSERT_EQ(left.At(j, c), expect[c]) << "row " << j << " col " << c;
    }
  }

  // A pool changes no bit of the multi-vector result either.
  ThreadPool pool(3);
  EXPECT_TRUE(BitwiseEqual(m.MultiplyRightMulti(xs, {&pool}), right));
  EXPECT_TRUE(BitwiseEqual(m.MultiplyLeftMulti(ys, {&pool}), left));

  DenseMatrix bad(dense.cols() + 1, k);
  EXPECT_THROW(m.MultiplyRightMulti(bad), Error);
  DenseMatrix bad_left(k, dense.rows() + 1);
  EXPECT_THROW(m.MultiplyLeftMulti(bad_left), Error);
}

TEST_P(EngineConformanceTest, PowerIterationMatchesDense) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(dense, GetParam());
  PowerIterationResult reference =
      RunPowerIteration(AnyMatrix::Ref(dense), 10);
  PowerIterationResult result = RunPowerIteration(m, 10);
  EXPECT_LT(MaxAbsDiff(reference.x, result.x), 1e-6);
}

TEST_P(EngineConformanceTest, SnapshotRoundTripMatchesDenseOracle) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix original = AnyMatrix::Build(dense, GetParam());

  u64 repair_before = RePairInvocationCount();
  AnyMatrix restored =
      AnyMatrix::LoadSnapshotBytes(original.SaveSnapshotBytes());
  // Loading adopts the stored representation as-is; the construction
  // pipeline (RePair in particular) must never re-run.
  EXPECT_EQ(RePairInvocationCount(), repair_before) << GetParam();

  EXPECT_EQ(restored.rows(), original.rows());
  EXPECT_EQ(restored.cols(), original.cols());
  EXPECT_EQ(restored.FormatTag(), original.FormatTag());
  EXPECT_EQ(restored.CompressedBytes(), original.CompressedBytes());
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(restored.ToDense(), dense), 0.0);

  Rng rng(80);
  std::vector<double> x = RandomVector(dense.cols(), &rng);
  std::vector<double> y = RandomVector(dense.rows(), &rng);
  EXPECT_LT(MaxAbsDiff(restored.MultiplyRight(x), dense.MultiplyRight(x)),
            1e-9);
  EXPECT_LT(MaxAbsDiff(restored.MultiplyLeft(y), dense.MultiplyLeft(y)),
            1e-9);
}

TEST_P(EngineConformanceTest, SnapshotFileRoundTrip) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix original = AnyMatrix::Build(dense, GetParam());
  std::string path = ::testing::TempDir() + "engine_" +
                     SpecTestName(::testing::TestParamInfo<std::string>(
                         GetParam(), 0)) +
                     ".gcsnap";
  original.Save(path);
  AnyMatrix restored = AnyMatrix::Load(path);
  EXPECT_EQ(restored.FormatTag(), original.FormatTag());
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(restored.ToDense(), dense), 0.0);
  std::remove(path.c_str());
}

TEST_P(EngineConformanceTest, SnapshotFileCrcDerivesFromTheHeader) {
  std::vector<u8> bytes =
      AnyMatrix::Build(TestMatrix(), GetParam()).SaveSnapshotBytes();
  EXPECT_EQ(SnapshotFileCrc32(bytes), Crc32(bytes.data(), bytes.size()));
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, EngineConformanceTest,
                         ::testing::ValuesIn(ConformanceSpecs()),
                         SpecTestName);

TEST(SnapshotFileCrcTest, V1FixturesDeriveTheirFileCrcFromTheHeader) {
  std::size_t files = 0;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(
           GCM_TEST_DATA_DIR)) {
    if (entry.path().extension() != ".gcsnap") continue;
    std::vector<u8> bytes = ReadFileBytes(entry.path().string());
    EXPECT_EQ(SnapshotFileCrc32(bytes), Crc32(bytes.data(), bytes.size()))
        << entry.path();
    ++files;
  }
  EXPECT_GE(files, 9u);  // five matrices, a store manifest, three shards
}

// --------------------------------------------------------------------------
// Spec parser
// --------------------------------------------------------------------------

TEST(MatrixSpecTest, ParsesFamilyVariantAndParams) {
  MatrixSpec spec = MatrixSpec::Parse("gcm:re_ans?blocks=8&fold_bits=10");
  EXPECT_EQ(spec.family, "gcm");
  EXPECT_EQ(spec.variant, "re_ans");
  EXPECT_EQ(spec.GetSize("blocks", 1), 8u);
  EXPECT_EQ(spec.GetSize("fold_bits", 12), 10u);
  EXPECT_EQ(spec.GetSize("max_rules", 0), 0u);  // fallback
  EXPECT_EQ(spec.ToString(), "gcm:re_ans?blocks=8&fold_bits=10");
}

TEST(MatrixSpecTest, ParsesByteSizes) {
  MatrixSpec spec = MatrixSpec::Parse("auto?budget=64MiB");
  EXPECT_EQ(spec.GetBytes("budget", 0), 64ULL * 1024 * 1024);
  EXPECT_EQ(MatrixSpec::Parse("auto?budget=2KB").GetBytes("budget", 0),
            2000u);
  EXPECT_EQ(MatrixSpec::Parse("auto?budget=123").GetBytes("budget", 0),
            123u);
  EXPECT_THROW(
      MatrixSpec::Parse("auto?budget=lots").GetBytes("budget", 0),
      std::invalid_argument);
}

TEST(MatrixSpecTest, RejectsMalformedSpecs) {
  EXPECT_THROW(MatrixSpec::Parse(""), std::invalid_argument);
  EXPECT_THROW(MatrixSpec::Parse("gcm:"), std::invalid_argument);
  EXPECT_THROW(MatrixSpec::Parse("gcm?blocks"), std::invalid_argument);
  EXPECT_THROW(MatrixSpec::Parse("gcm?=8"), std::invalid_argument);
  EXPECT_THROW(MatrixSpec::Parse("gcm?blocks=8&blocks=9"),
               std::invalid_argument);
}

TEST(MatrixSpecTest, UnknownFamilyErrorListsRegisteredSpecs) {
  DenseMatrix dense = TestMatrix();
  try {
    AnyMatrix::Build(dense, "wavelet");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("wavelet"), std::string::npos);
    for (const std::string& spec : AnyMatrix::ListSpecs()) {
      EXPECT_NE(message.find(spec), std::string::npos)
          << "error message must list " << spec;
    }
  }
}

TEST(MatrixSpecTest, UnknownVariantAndKeyAreRejected) {
  DenseMatrix dense = TestMatrix();
  EXPECT_THROW(AnyMatrix::Build(dense, "gcm:bogus"), std::invalid_argument);
  EXPECT_THROW(AnyMatrix::Build(dense, "gcm:re_32?bogus_key=1"),
               std::invalid_argument);
  EXPECT_THROW(AnyMatrix::Build(dense, "dense?blocks=2"),
               std::invalid_argument);
  EXPECT_THROW(AnyMatrix::Build(dense, "csrv:re_32"), std::invalid_argument);
  EXPECT_THROW(AnyMatrix::Build(dense, "gcm?blocks=two"),
               std::invalid_argument);
  // std::stoull would silently wrap negative values; the parser must not.
  EXPECT_THROW(AnyMatrix::Build(dense, "gcm?blocks=-1"),
               std::invalid_argument);
  EXPECT_THROW(
      MatrixSpec::Parse("auto?budget=-1MiB").GetBytes("budget", 0),
      std::invalid_argument);
}

TEST(MatrixSpecTest, ListSpecsCoversAllSevenBackends) {
  std::vector<std::string> specs = AnyMatrix::ListSpecs();
  for (const char* expected :
       {"dense", "csr", "csr_iv", "csrv", "gcm:csrv", "gcm:re_32",
        "gcm:re_iv", "gcm:re_ans", "cla", "sharded", "auto"}) {
    EXPECT_NE(std::find(specs.begin(), specs.end(), expected), specs.end())
        << expected;
  }
}

// --------------------------------------------------------------------------
// Name round-trips (shared helper behind CLI flags and spec variants)
// --------------------------------------------------------------------------

TEST(NameRoundTripTest, GcFormatNamesAreTotal) {
  for (GcFormat format : {GcFormat::kCsrv, GcFormat::kRe32, GcFormat::kReIv,
                          GcFormat::kReAns}) {
    EXPECT_EQ(FormatByName(FormatName(format)), format);
  }
  try {
    FormatByName("zstd");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("zstd"), std::string::npos);
    EXPECT_NE(message.find("re_ans"), std::string::npos);
  }
}

TEST(NameRoundTripTest, ClaEncodingNamesAreTotal) {
  for (ClaEncoding encoding : {ClaEncoding::kUc, ClaEncoding::kDdc,
                               ClaEncoding::kRle, ClaEncoding::kOle}) {
    EXPECT_EQ(ClaEncodingByName(ClaEncodingName(encoding)), encoding);
  }
  try {
    ClaEncodingByName("LZW");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    std::string message = e.what();
    EXPECT_NE(message.find("LZW"), std::string::npos);
    EXPECT_NE(message.find("OLE"), std::string::npos);
  }
}

// --------------------------------------------------------------------------
// Wrap / Ref / triplet ingestion / advisor overload
// --------------------------------------------------------------------------

// Wrap and Ref are one template each over the backend list: a
// non-backend type does not compile, and neither does a view of a
// temporary (Ref of an rvalue is deleted).
template <typename M>
concept Wrappable = requires(M m) { AnyMatrix::Wrap(std::move(m)); };
template <typename M>
concept RefOfLvalue = requires(const M& m) { AnyMatrix::Ref(m); };
template <typename M>
concept RefOfTemporary = requires { AnyMatrix::Ref(std::declval<M>()); };

static_assert(Wrappable<GcMatrix> && Wrappable<ClaMatrix>);
static_assert(!Wrappable<int> && !Wrappable<std::vector<double>>);
static_assert(!Wrappable<AnyMatrix>);
static_assert(RefOfLvalue<DenseMatrix> && RefOfLvalue<BlockedGcMatrix>);
static_assert(!RefOfTemporary<DenseMatrix> && !RefOfTemporary<CsrvMatrix>);

TEST(AnyMatrixTest, WrapAndRefAgree) {
  DenseMatrix dense = TestMatrix();
  GcMatrix gc = GcMatrix::FromDense(dense, {GcFormat::kReIv, 12, 0});
  AnyMatrix owned = AnyMatrix::Wrap(GcMatrix(gc));
  AnyMatrix ref = AnyMatrix::Ref(gc);
  EXPECT_EQ(owned.FormatTag(), "gcm:re_iv");
  EXPECT_EQ(ref.FormatTag(), "gcm:re_iv");
  EXPECT_EQ(owned.CompressedBytes(), ref.CompressedBytes());
  std::vector<double> x(dense.cols(), 0.5);
  EXPECT_EQ(owned.MultiplyRight(x), ref.MultiplyRight(x));
}

TEST(AnyMatrixTest, EmptyAnyMatrixThrows) {
  AnyMatrix empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW(empty.rows(), Error);
}

TEST(AnyMatrixTest, TripletBuildMatchesDenseBuild) {
  DenseMatrix dense = TestMatrix();
  std::vector<Triplet> triplets = TripletsFromDense(dense);
  for (const std::string& spec :
       {std::string("csr"), std::string("csrv"), std::string("gcm:re_ans"),
        std::string("gcm:re_iv?blocks=4"), std::string("cla")}) {
    AnyMatrix m =
        AnyMatrix::Build(dense.rows(), dense.cols(), triplets, spec);
    EXPECT_EQ(m.rows(), dense.rows()) << spec;
    EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.ToDense(), dense), 0.0) << spec;
  }
}

TEST(AnyMatrixTest, AdviseFormatOverloadReturnsBuiltEngineMatrix) {
  DenseMatrix dense = TestMatrix();
  AdvisorConstraints constraints;
  constraints.blocks = 2;
  AdvisorReport report;
  AnyMatrix m = AdviseFormat(dense, constraints, &report);
  EXPECT_EQ(report.estimates.size(), 4u);
  EXPECT_EQ(m.rows(), dense.rows());
  std::string tag = m.FormatTag();
  EXPECT_NE(tag.find("gcm:"), std::string::npos);
  EXPECT_NE(tag.find("blocks=2"), std::string::npos);
  std::vector<double> x(dense.cols(), 1.0);
  EXPECT_LT(MaxAbsDiff(m.MultiplyRight(x), dense.MultiplyRight(x)), 1e-9);
}

// --------------------------------------------------------------------------
// Pooled multi-vector batches
// --------------------------------------------------------------------------

// A batch is split only where a single vector is: one grammar block
// answers the whole batch on the calling thread, and `?blocks=N` runs each
// vector's blocks on the pool. Either way the pooled batch is the
// sequential one bit for bit, here at the 1600x30 size of the pooled
// single-vector test below, with wider batches than the conformance suite.
std::vector<AnyMatrix> OneAndFourBlocks(const DenseMatrix& dense,
                                        GcFormat format) {
  const std::string spec = std::string("gcm:") + FormatName(format);
  return {AnyMatrix::Build(dense, spec),
          AnyMatrix::Build(dense, spec + "?blocks=4")};
}

class MultiPoolTest : public ::testing::TestWithParam<GcFormat> {};

TEST_P(MultiPoolTest, RightMultiMatchesSequential) {
  Rng rng(91);
  DenseMatrix dense = DenseMatrix::Random(1600, 30, 0.5, 5, &rng);
  DenseMatrix x = DenseMatrix::Random(30, 9, 1.0, 0, &rng);
  ThreadPool pool(4);
  for (const AnyMatrix& m : OneAndFourBlocks(dense, GetParam())) {
    EXPECT_TRUE(BitwiseEqual(m.MultiplyRightMulti(x, {&pool}),
                             m.MultiplyRightMulti(x)))
        << m.FormatTag();
  }
}

TEST_P(MultiPoolTest, LeftMultiMatchesSequential) {
  Rng rng(92);
  DenseMatrix dense = DenseMatrix::Random(1600, 30, 0.5, 5, &rng);
  DenseMatrix x = DenseMatrix::Random(7, 1600, 1.0, 0, &rng);
  ThreadPool pool(3);
  for (const AnyMatrix& m : OneAndFourBlocks(dense, GetParam())) {
    EXPECT_TRUE(BitwiseEqual(m.MultiplyLeftMulti(x, {&pool}),
                             m.MultiplyLeftMulti(x)))
        << m.FormatTag();
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, MultiPoolTest,
                         ::testing::Values(GcFormat::kCsrv, GcFormat::kRe32,
                                           GcFormat::kReIv,
                                           GcFormat::kReAns),
                         [](const auto& suffix_info) {
                           return std::string(FormatName(suffix_info.param));
                         });

// An engine k-vector call holds one result block: the backend kernel
// fills the block AnyMatrix allocates, so the call's heap peak is at most
// the kernel's own auxiliary space (its k-wide W array) plus that block.
TEST(EngineMultiMemoryTest, KVectorCallHoldsOneResultBlock) {
  if (!MemoryTracker::TrackingActive()) {
    GTEST_SKIP() << "heap tracking is compiled out in sanitizer builds";
  }
  Rng rng(93);
  DenseMatrix dense = DenseMatrix::Random(2000, 40, 0.5, 6, &rng);
  GcMatrix gc = GcMatrix::FromDense(dense, {GcFormat::kRe32, 12, 0});
  AnyMatrix m = AnyMatrix::Ref(gc);
  ASSERT_EQ(m.FormatTag(), "gcm:re_32");
  const std::size_t k = 16;
  DenseMatrix xr(dense.cols(), k);
  DenseMatrix xl(k, dense.rows());
  for (std::size_t r = 0; r < xr.rows(); ++r) {
    for (std::size_t t = 0; t < k; ++t) xr.Set(r, t, rng.NextDouble() - 0.5);
  }
  for (std::size_t t = 0; t < k; ++t) {
    for (std::size_t r = 0; r < xl.cols(); ++r) {
      xl.Set(t, r, rng.NextDouble() - 0.5);
    }
  }
  // Heap high-water of `call` above the live bytes just before it.
  auto peak_of = [](auto&& call) {
    MemoryTracker::ResetPeak();
    const u64 before = MemoryTracker::CurrentBytes();
    call();
    return MemoryTracker::PeakBytes() - before;
  };

  DenseMatrix right(dense.rows(), k);
  const u64 right_aux = peak_of([&] { gc.MultiplyRightMulti(xr, &right); });
  const u64 right_engine = peak_of([&] {
    DenseMatrix y = m.MultiplyRightMulti(xr);
    EXPECT_EQ(y, right);
  });
  const u64 right_block = dense.rows() * k * sizeof(double);
  EXPECT_GE(right_engine, right_block);
  EXPECT_LE(right_engine, right_aux + right_block)
      << "kernel aux " << right_aux << " B, result block " << right_block
      << " B";

  DenseMatrix left(k, dense.cols());
  const u64 left_aux = peak_of([&] { gc.MultiplyLeftMulti(xl, &left); });
  const u64 left_engine = peak_of([&] {
    DenseMatrix y = m.MultiplyLeftMulti(xl);
    EXPECT_EQ(y, left);
  });
  const u64 left_block = k * dense.cols() * sizeof(double);
  EXPECT_GE(left_engine, left_block);
  EXPECT_LE(left_engine, left_aux + left_block)
      << "kernel aux " << left_aux << " B, result block " << left_block
      << " B";
}

// --------------------------------------------------------------------------
// Pooled single-vector calls on one grammar block
// --------------------------------------------------------------------------

class SingleVectorPoolTest : public ::testing::TestWithParam<GcFormat> {};

TEST_P(SingleVectorPoolTest, PooledSingleVectorKernelsMatchSequential) {
  // One block is one task: a pool handed to a single-block matrix leaves
  // its single-vector kernels on the calling thread, so the pooled answer
  // is the sequential one bit for bit. C holds over 14,000 symbols here
  // (about 25,000 for csrv), so a split of the C scan across the pool's
  // threads would re-associate row sums and show.
  Rng rng(93);
  DenseMatrix dense = DenseMatrix::Random(1600, 30, 0.5, 5, &rng);
  AnyMatrix m = AnyMatrix::Build(
      dense, std::string("gcm:") + FormatName(GetParam()));
  ThreadPool pool(4);

  std::vector<double> x = RandomVector(dense.cols(), &rng);
  std::vector<double> y = RandomVector(dense.rows(), &rng);

  std::vector<double> right = m.MultiplyRight(x);
  EXPECT_TRUE(BitwiseEqual(m.MultiplyRight(x, {&pool}), right));
  EXPECT_LT(MaxAbsDiff(right, dense.MultiplyRight(x)), 1e-9);

  std::vector<double> left = m.MultiplyLeft(y);
  EXPECT_TRUE(BitwiseEqual(m.MultiplyLeft(y, {&pool}), left));
  EXPECT_LT(MaxAbsDiff(left, dense.MultiplyLeft(y)), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, SingleVectorPoolTest,
                         ::testing::Values(GcFormat::kCsrv, GcFormat::kRe32,
                                           GcFormat::kReIv,
                                           GcFormat::kReAns),
                         [](const auto& suffix_info) {
                           return std::string(FormatName(suffix_info.param));
                         });

}  // namespace
}  // namespace gcm
