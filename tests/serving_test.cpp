// Serving subsystem suite: ShardManifest (round trip, validation, corrupt
// sections named), MatrixStore (partition -> reopen -> scatter/gather
// equals the dense oracle -> evict/reload, zero RePair constructions on
// reopen, checksum-verified shard files), ShardedMatrix residency control,
// and the "sharded" spec family (in-memory build, nested rejection, inner
// spec escaping, single-file snapshot round trip, manifest loading through
// the engine front door). Runs under the `sharded_serving_smoke` CTest
// label so CI exercises the store layout on every compiler configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/any_matrix.hpp"
#include "core/matrix_file.hpp"
#include "encoding/byte_stream.hpp"
#include "encoding/snapshot.hpp"
#include "grammar/repair.hpp"
#include "matrix/dense_matrix.hpp"
#include "matrix/sparse_builder.hpp"
#include "serving/matrix_store.hpp"
#include "serving/shard_manifest.hpp"
#include "serving/sharded_matrix.hpp"
#include "test_paths.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace gcm {
namespace {

namespace fs = std::filesystem;

DenseMatrix TestMatrix() {
  Rng rng(2024);
  return DenseMatrix::Random(60, 11, 0.5, 5, &rng);
}

std::vector<double> RandomVector(std::size_t n, u64 seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.NextDouble() * 2.0 - 1.0;
  return v;
}

const ShardedMatrix& Sharded(const AnyMatrix& m) {
  const ShardedMatrix* sharded = ShardedMatrix::FromKernel(m.kernel());
  EXPECT_NE(sharded, nullptr) << m.FormatTag();
  return *sharded;
}

bool BitwiseEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// One MultiplyBatch call over owned vectors: out[j] for in[j].
std::vector<std::vector<double>> RunBatch(
    const ShardedMatrix& sharded, MvmDirection dir, std::size_t begin,
    std::size_t end, const std::vector<std::vector<double>>& xs,
    const MulContext& ctx) {
  const std::size_t out_size =
      dir == MvmDirection::kRight ? end - begin : sharded.cols();
  std::vector<std::vector<double>> ys(xs.size(),
                                      std::vector<double>(out_size));
  std::vector<std::span<const double>> in(xs.begin(), xs.end());
  std::vector<std::span<double>> out(ys.begin(), ys.end());
  sharded.MultiplyBatch(dir, begin, end, in, out, ctx);
  return ys;
}

ShardManifest SmallManifest() {
  ShardManifest manifest;
  manifest.rows = 10;
  manifest.cols = 3;
  manifest.shards.push_back({0, 6, "shard_00000.gcsnap", "csr", 7u, 11, 13});
  manifest.shards.push_back({6, 10, "shard_00001.gcsnap", "csr", 8u, 17, 19});
  return manifest;
}

// --------------------------------------------------------------------------
// ShardingPolicy / inner-spec escaping
// --------------------------------------------------------------------------

TEST(ShardingPolicyTest, ResolvesEachField) {
  EXPECT_EQ(ShardingPolicy{.rows_per_shard = 16}.ResolveRowsPerShard(60, 11),
            16u);
  EXPECT_EQ(ShardingPolicy{.shards = 4}.ResolveRowsPerShard(60, 11), 15u);
  // target 10 dense rows of 11 cols.
  EXPECT_EQ(ShardingPolicy{.target_bytes = 10 * 11 * sizeof(double)}
                .ResolveRowsPerShard(60, 11),
            10u);
  // Default: kDefaultShards ranges.
  EXPECT_EQ(ShardingPolicy{}.ResolveRowsPerShard(60, 11), 15u);
  // Clamped to [1, rows].
  EXPECT_EQ(ShardingPolicy{.rows_per_shard = 999}.ResolveRowsPerShard(60, 11),
            60u);
  EXPECT_EQ(ShardingPolicy{.shards = 999}.ResolveRowsPerShard(5, 11), 1u);
}

TEST(ShardingPolicyTest, RejectsConflictingFields) {
  ShardingPolicy policy{.rows_per_shard = 8, .shards = 2};
  EXPECT_THROW(policy.ResolveRowsPerShard(60, 11), std::invalid_argument);
  EXPECT_THROW(AnyMatrix::Build(TestMatrix(),
                                "sharded?rows_per_shard=8&shards=2"),
               std::invalid_argument);
}

TEST(InnerSpecTest, EscapingIsTotal) {
  const std::string inner = "gcm:re_32?blocks=2&fold_bits=10";
  EXPECT_EQ(EncodeInnerSpec(inner), "gcm:re_32?blocks=2+fold_bits=10");
  EXPECT_EQ(DecodeInnerSpec(EncodeInnerSpec(inner)), inner);
}

// --------------------------------------------------------------------------
// ShardManifest
// --------------------------------------------------------------------------

TEST(ShardManifestTest, FileRoundTrip) {
  ShardManifest manifest = SmallManifest();
  std::string path = TestTempPath("manifest_rt");
  fs::create_directories(path);
  std::string file = (fs::path(path) / kShardManifestFileName).string();
  manifest.Save(file);
  EXPECT_EQ(ShardManifest::Load(file), manifest);
  EXPECT_EQ(manifest.TotalCompressedBytes(), 13u + 19u);
  EXPECT_EQ(manifest.FormatTag(), "sharded?inner=csr&shards=2");
}

TEST(ShardManifestTest, ValidateRejectsBadTilings) {
  ShardManifest gap = SmallManifest();
  gap.shards[1].row_begin = 7;  // rows 6..7 uncovered
  EXPECT_THROW(gap.Validate(), Error);

  ShardManifest overlap = SmallManifest();
  overlap.shards[1].row_begin = 5;
  EXPECT_THROW(overlap.Validate(), Error);

  ShardManifest short_cover = SmallManifest();
  short_cover.rows = 12;  // shards stop at 10
  EXPECT_THROW(short_cover.Validate(), Error);

  ShardManifest empty_range = SmallManifest();
  empty_range.shards[0].row_end = 0;
  EXPECT_THROW(empty_range.Validate(), Error);

  ShardManifest no_shards;
  no_shards.rows = 4;
  no_shards.cols = 4;
  EXPECT_THROW(no_shards.Validate(), Error);
}

TEST(ShardManifestTest, CorruptManifestSectionIsNamed) {
  SnapshotWriter writer("sharded?inner=csr&shards=1");
  writer.BeginSection(kShardManifestSection).PutVarint(99);  // bad version
  try {
    ShardManifest::FromSnapshot(SnapshotReader(writer.Finish()));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("manifest"), std::string::npos)
        << e.what();
  }
}

// --------------------------------------------------------------------------
// MatrixStore: partition -> open -> scatter/gather -> evict/reload
// --------------------------------------------------------------------------

TEST(MatrixStoreTest, PartitionOpenMatchesDenseOracle) {
  DenseMatrix dense = TestMatrix();
  std::string dir = TestTempPath("oracle");
  ShardManifest manifest = MatrixStore::Partition(
      dense, "gcm:re_iv", {.rows_per_shard = 16}, dir);
  EXPECT_EQ(manifest.shards.size(), 4u);
  EXPECT_TRUE(fs::exists(fs::path(dir) / kShardManifestFileName));
  EXPECT_TRUE(fs::exists(fs::path(dir) / manifest.shards.back().file));

  for (ShardLoadMode mode : {ShardLoadMode::kEager, ShardLoadMode::kLazy}) {
    AnyMatrix m = MatrixStore::Open(dir, mode);
    EXPECT_EQ(m.rows(), dense.rows());
    EXPECT_EQ(m.cols(), dense.cols());
    EXPECT_GT(m.CompressedBytes(), 0u);
    EXPECT_EQ(m.FormatTag(), "sharded?inner=gcm:re_iv&shards=4");
    std::vector<double> x = RandomVector(dense.cols(), 1);
    std::vector<double> y = RandomVector(dense.rows(), 2);
    EXPECT_LT(MaxAbsDiff(m.MultiplyRight(x), dense.MultiplyRight(x)), 1e-9);
    EXPECT_LT(MaxAbsDiff(m.MultiplyLeft(y), dense.MultiplyLeft(y)), 1e-9);
    EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.ToDense(), dense), 0.0);
  }
}

TEST(MatrixStoreTest, PooledAndUnpooledScatterGatherAreBitwiseEqual) {
  DenseMatrix dense = TestMatrix();
  std::string dir = TestTempPath("pool");
  MatrixStore::Partition(dense, "csrv", {.shards = 5}, dir);
  AnyMatrix m = MatrixStore::Open(dir);
  ThreadPool pool(3);
  std::vector<double> x = RandomVector(dense.cols(), 3);
  std::vector<double> y = RandomVector(dense.rows(), 4);
  EXPECT_EQ(m.MultiplyRight(x), m.MultiplyRight(x, {&pool}));
  EXPECT_EQ(m.MultiplyLeft(y), m.MultiplyLeft(y, {&pool}));
}

TEST(MatrixStoreTest, DenseShardsReproduceTheOracleBitForBit) {
  // With dense shards the scatter path runs exactly the oracle's per-row
  // accumulation over disjoint row ranges, so even the bits must match.
  DenseMatrix dense = TestMatrix();
  std::string dir = TestTempPath("bitwise");
  MatrixStore::Partition(dense, "dense", {.shards = 4}, dir);
  AnyMatrix m = MatrixStore::Open(dir);
  ThreadPool pool(4);
  std::vector<double> x = RandomVector(dense.cols(), 5);
  EXPECT_EQ(m.MultiplyRight(x), dense.MultiplyRight(x));
  EXPECT_EQ(m.MultiplyRight(x, {&pool}), dense.MultiplyRight(x));
}

TEST(MatrixStoreTest, LazyLoadsOnFirstTouchAndReloadsAfterEvict) {
  DenseMatrix dense = TestMatrix();
  std::string dir = TestTempPath("lazy");
  MatrixStore::Partition(dense, "csr", {.shards = 3}, dir);

  AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kLazy);
  const ShardedMatrix& sharded = Sharded(m);
  EXPECT_EQ(sharded.LoadedShardCount(), 0u);  // manifest only

  std::vector<double> x = RandomVector(dense.cols(), 6);
  std::vector<double> reference = m.MultiplyRight(x);
  EXPECT_EQ(sharded.LoadedShardCount(), 3u);

  EXPECT_TRUE(sharded.EvictShard(1));
  EXPECT_FALSE(sharded.EvictShard(1));  // already evicted
  EXPECT_EQ(sharded.LoadedShardCount(), 2u);
  EXPECT_FALSE(sharded.ShardResident(1));

  // The evicted shard transparently reloads and answers identically.
  EXPECT_EQ(m.MultiplyRight(x), reference);
  EXPECT_EQ(sharded.LoadedShardCount(), 3u);
}

TEST(MatrixStoreTest, EagerOpenLoadsEverything) {
  DenseMatrix dense = TestMatrix();
  std::string dir = TestTempPath("eager");
  MatrixStore::Partition(dense, "csr", {.shards = 3}, dir);
  AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kEager);
  EXPECT_EQ(Sharded(m).LoadedShardCount(), 3u);
}

TEST(MatrixStoreTest, EvictToResidentBytesKeepsTheMostRecentlyTouched) {
  DenseMatrix dense = TestMatrix();
  std::string dir = TestTempPath("lru");
  MatrixStore::Partition(dense, "csr", {.shards = 4}, dir);
  AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kEager);
  const ShardedMatrix& sharded = Sharded(m);

  sharded.LoadShard(2);  // freshest touch
  // A budget of exactly one shard's footprint keeps only the freshest.
  u64 one_shard = sharded.ShardResidencyInfo(2).resident_bytes;
  ASSERT_GT(one_shard, 0u);
  EXPECT_EQ(sharded.EvictToResidentBytes(one_shard), 3u);
  EXPECT_EQ(sharded.LoadedShardCount(), 1u);
  EXPECT_TRUE(sharded.ShardResident(2));
  EXPECT_EQ(sharded.EvictToResidentBytes(one_shard), 0u);  // within budget
}

TEST(MatrixStoreTest, ReopeningRunsZeroRePairConstructions) {
  DenseMatrix dense = TestMatrix();
  std::string dir = TestTempPath("norepair");
  MatrixStore::Partition(dense, "gcm:re_ans", {.shards = 3}, dir);

  u64 repair_before = RePairInvocationCount();
  AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kEager);
  std::vector<double> x = RandomVector(dense.cols(), 7);
  EXPECT_LT(MaxAbsDiff(m.MultiplyRight(x), dense.MultiplyRight(x)), 1e-9);
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.ToDense(), dense), 0.0);
  EXPECT_EQ(RePairInvocationCount(), repair_before)
      << "reopening a partitioned store must never re-run RePair";
}

TEST(MatrixStoreTest, CorruptShardFileFailsItsChecksumByName) {
  DenseMatrix dense = TestMatrix();
  std::string dir = TestTempPath("corrupt");
  ShardManifest manifest =
      MatrixStore::Partition(dense, "csrv", {.shards = 3}, dir);

  std::string victim = (fs::path(dir) / manifest.shards[1].file).string();
  std::vector<u8> bytes = ReadFileBytes(victim);
  bytes[bytes.size() / 2] ^= 0x40;
  WriteFileBytes(victim, bytes);

  try {
    MatrixStore::Open(dir, ShardLoadMode::kEager);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    std::string message = e.what();
    EXPECT_NE(message.find(manifest.shards[1].file), std::string::npos)
        << message;
    EXPECT_NE(message.find("checksum"), std::string::npos) << message;
  }

  // Lazy open succeeds (manifest only); the first touch fails instead.
  AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kLazy);
  std::vector<double> x(dense.cols(), 1.0);
  std::vector<double> y(dense.rows(), 0.0);
  EXPECT_THROW(m.MultiplyRightInto(x, y), Error);
}

TEST(MatrixStoreTest, EverySingleByteFlipInAShardFileFailsItsChecksumByName) {
  // The load gate reads only a shard's length and 12-byte header, and the
  // parse makes the one pass over the body: between them, a flip anywhere
  // must still fail the first touch, naming the file and the checksum.
  DenseMatrix dense = TestMatrix();
  std::string dir = TestTempPath("byteflip");
  ShardManifest manifest =
      MatrixStore::Partition(dense, "csrv", {.shards = 3}, dir);
  const std::string& name = manifest.shards[1].file;
  const std::string victim = (fs::path(dir) / name).string();
  const std::vector<u8> original = ReadFileBytes(victim);
  ASSERT_GT(original.size(), kSnapshotHeaderBytes);

  Rng rng(2404);
  std::vector<std::size_t> offsets;
  for (std::size_t i = 0; i < kSnapshotHeaderBytes; ++i) offsets.push_back(i);
  const u64 body_bytes = original.size() - kSnapshotHeaderBytes;
  for (int i = 0; i < 32; ++i) {
    offsets.push_back(kSnapshotHeaderBytes +
                      static_cast<std::size_t>(rng.Next() % body_bytes));
  }
  for (std::size_t offset : offsets) {
    std::vector<u8> bytes = original;
    bytes[offset] ^= static_cast<u8>(1 + rng.Next() % 255);
    WriteFileBytes(victim, bytes);
    AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kLazy);
    try {
      Sharded(m).LoadShard(1);
      ADD_FAILURE() << "a flip of byte " << offset << " loaded";
    } catch (const Error& e) {
      std::string message = e.what();
      EXPECT_NE(message.find(name), std::string::npos)
          << "byte " << offset << ": " << message;
      EXPECT_NE(message.find("checksum"), std::string::npos)
          << "byte " << offset << ": " << message;
    }
  }

  WriteFileBytes(victim, original);
  AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kLazy);
  Sharded(m).LoadShard(1);
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.ToDense(), dense), 0.0);
}

TEST(MatrixStoreTest, MissingShardFileIsNamed) {
  DenseMatrix dense = TestMatrix();
  std::string dir = TestTempPath("missing");
  ShardManifest manifest =
      MatrixStore::Partition(dense, "csr", {.shards = 2}, dir);
  fs::remove(fs::path(dir) / manifest.shards[0].file);
  AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kLazy);
  try {
    Sharded(m).LoadShard(0);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(manifest.shards[0].file),
              std::string::npos)
        << e.what();
  }
}

/// Sorted names of the files in `dir`.
std::vector<std::string> FileNames(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// The error an eager open of the store at `dir` throws ("" if none).
std::string ServeError(const std::string& dir) {
  try {
    MatrixStore::Open(dir, ShardLoadMode::kEager);
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// Resave must refuse exactly what serving refuses: it throws the error an
/// eager open gives, which names shard file `name`, and leaves the
/// manifest and the directory as they were. Returns the error message.
std::string ExpectResaveRefuses(const std::string& dir,
                                const std::string& name) {
  const std::string served = ServeError(dir);
  EXPECT_NE(served.find(name), std::string::npos) << served;
  const std::string manifest_path = MatrixStore::ManifestPath(dir);
  const std::vector<u8> manifest_before = ReadFileBytes(manifest_path);
  const std::vector<std::string> files_before = FileNames(dir);
  std::string message;
  try {
    MatrixStore::Resave(dir);
    ADD_FAILURE() << "Resave re-stamped " << name;
  } catch (const Error& e) {
    message = e.what();
  }
  EXPECT_EQ(message, served);
  EXPECT_EQ(ReadFileBytes(manifest_path), manifest_before);
  EXPECT_EQ(FileNames(dir), files_before);
  EXPECT_EQ(ServeError(dir), served);
  return message;
}

TEST(MatrixStoreTest, ResaveRefusesSwappedShardFiles) {
  // Two shards with one sparsity pattern and different values: their csr
  // files have the same length, so only the manifest CRC tells them apart.
  Rng rng(2405);
  DenseMatrix half = DenseMatrix::Random(20, 6, 0.5, 5, &rng);
  DenseMatrix dense(40, 6);
  for (std::size_t r = 0; r < half.rows(); ++r) {
    for (std::size_t c = 0; c < half.cols(); ++c) {
      dense.Set(r, c, half.At(r, c));
      dense.Set(r + half.rows(), c, 2.0 * half.At(r, c));
    }
  }
  std::string dir = TestTempPath("swapped");
  ShardManifest manifest =
      MatrixStore::Partition(dense, "csr", {.shards = 2}, dir);
  const fs::path first = fs::path(dir) / manifest.shards[0].file;
  const fs::path second = fs::path(dir) / manifest.shards[1].file;
  const std::vector<u8> first_bytes = ReadFileBytes(first.string());
  const std::vector<u8> second_bytes = ReadFileBytes(second.string());
  ASSERT_EQ(first_bytes.size(), second_bytes.size());
  ASSERT_NE(first_bytes, second_bytes);
  WriteFileBytes(first.string(), second_bytes);
  WriteFileBytes(second.string(), first_bytes);

  std::string message = ExpectResaveRefuses(dir, manifest.shards[0].file);
  EXPECT_NE(message.find("checksum"), std::string::npos) << message;
}

TEST(MatrixStoreTest, ResaveRefusesATruncatedShardFile) {
  DenseMatrix dense = TestMatrix();
  std::string dir = TestTempPath("truncated");
  ShardManifest manifest =
      MatrixStore::Partition(dense, "csrv", {.shards = 3}, dir);
  const std::string& name = manifest.shards[1].file;
  const std::string victim = (fs::path(dir) / name).string();
  std::vector<u8> bytes = ReadFileBytes(victim);
  bytes.resize(bytes.size() - 8);
  WriteFileBytes(victim, bytes);

  // Shard 0 is written before shard 1 fails; the failure removes it.
  std::string message = ExpectResaveRefuses(dir, name);
  EXPECT_NE(message.find("the manifest records"), std::string::npos)
      << message;
}

TEST(MatrixStoreTest, TripletPartitionMatchesDensePartition) {
  DenseMatrix dense = TestMatrix();
  std::string dir = TestTempPath("triplets");
  MatrixStore::Partition(dense.rows(), dense.cols(),
                         TripletsFromDense(dense), "csrv",
                         {.rows_per_shard = 25}, dir);
  AnyMatrix m = MatrixStore::Open(dir);
  EXPECT_EQ(m.FormatTag(), "sharded?inner=csrv&shards=3");
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.ToDense(), dense), 0.0);
}

TEST(MatrixStoreTest, TargetBytesPolicyBoundsTheDenseSliceSize) {
  DenseMatrix dense = TestMatrix();
  std::string dir = TestTempPath("bytes");
  ShardManifest manifest = MatrixStore::Partition(
      dense, "csr",
      {.target_bytes = 20 * dense.cols() * sizeof(double)}, dir);
  EXPECT_EQ(manifest.shards.size(), 3u);  // 60 rows / 20 rows per shard
  for (const ShardManifestEntry& shard : manifest.shards) {
    EXPECT_LE(shard.rows() * dense.cols() * sizeof(double),
              20 * dense.cols() * sizeof(double));
  }
}

// --------------------------------------------------------------------------
// "sharded" spec family through the engine
// --------------------------------------------------------------------------

TEST(ShardedSpecTest, InMemoryBuildServesAndRefusesEviction) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(dense, "sharded?inner=gcm:re_32&shards=3");
  EXPECT_EQ(m.FormatTag(), "sharded?inner=gcm:re_32&shards=3");
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.ToDense(), dense), 0.0);
  const ShardedMatrix& sharded = Sharded(m);
  EXPECT_EQ(sharded.LoadedShardCount(), 3u);
  EXPECT_FALSE(sharded.EvictShard(0));  // no file to reload from
  EXPECT_EQ(sharded.EvictToResidentBytes(0), 0u);
  EXPECT_EQ(sharded.LoadedShardCount(), 3u);
}

TEST(ShardedSpecTest, RejectsNestingAndUnknownInner) {
  DenseMatrix dense = TestMatrix();
  // Only core families nest: neither scatter/gather family may be the
  // inner spec of the other or of itself.
  for (const char* spec :
       {"sharded?inner=sharded", "sharded?inner=cluster",
        "cluster?inner=sharded", "cluster?inner=cluster"}) {
    EXPECT_THROW(AnyMatrix::Build(dense, spec), std::invalid_argument)
        << spec;
  }
  EXPECT_THROW(AnyMatrix::Build(dense, "sharded?inner=wavelet"),
               std::invalid_argument);
  EXPECT_THROW(MatrixStore::Partition(dense, "sharded?inner=csr", {},
                                      TestTempPath("nested")),
               std::invalid_argument);
}

TEST(ShardedSpecTest, EscapedInnerSpecCarriesItsParameters) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(
      dense, "sharded?inner=gcm:re_32?blocks=2+fold_bits=10&rows_per_shard=30");
  const ShardedMatrix& sharded = Sharded(m);
  EXPECT_EQ(sharded.shard_count(), 2u);
  EXPECT_EQ(sharded.manifest().shards[0].spec, "gcm:re_32?blocks=2");
  // The tag itself must stay parseable and buildable.
  AnyMatrix again = AnyMatrix::Build(dense, m.FormatTag());
  EXPECT_EQ(again.FormatTag(), m.FormatTag());
}

TEST(ShardedSpecTest, TripletBuildMatchesDenseBuild) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix m = AnyMatrix::Build(dense.rows(), dense.cols(),
                                 TripletsFromDense(dense),
                                 "sharded?inner=gcm:re_iv&shards=4");
  EXPECT_EQ(m.FormatTag(), "sharded?inner=gcm:re_iv&shards=4");
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.ToDense(), dense), 0.0);
}

TEST(ShardedSpecTest, SingleFileSnapshotRoundTrip) {
  DenseMatrix dense = TestMatrix();
  AnyMatrix original =
      AnyMatrix::Build(dense, "sharded?inner=gcm:re_ans&shards=3");
  u64 repair_before = RePairInvocationCount();
  AnyMatrix restored =
      AnyMatrix::LoadSnapshotBytes(original.SaveSnapshotBytes());
  EXPECT_EQ(RePairInvocationCount(), repair_before);
  EXPECT_EQ(restored.FormatTag(), original.FormatTag());
  EXPECT_EQ(restored.CompressedBytes(), original.CompressedBytes());
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(restored.ToDense(), dense), 0.0);
}

TEST(ShardedSpecTest, StoreManifestLoadsThroughTheEngineFrontDoor) {
  DenseMatrix dense = TestMatrix();
  std::string dir = TestTempPath("frontdoor");
  MatrixStore::Partition(dense, "csr", {.shards = 3}, dir);
  std::string manifest_path = MatrixStore::ManifestPath(dir);

  // AnyMatrix::Load and LoadAuto both open the store lazily.
  for (const AnyMatrix& m :
       {AnyMatrix::Load(manifest_path), LoadAuto(manifest_path)}) {
    EXPECT_EQ(Sharded(m).LoadedShardCount(), 0u);
    EXPECT_EQ(DenseMatrix::MaxAbsDiff(m.ToDense(), dense), 0.0);
  }

  // The bytes alone cannot resolve sibling shard files.
  try {
    AnyMatrix::LoadSnapshotBytes(ReadFileBytes(manifest_path));
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("store manifest"),
              std::string::npos)
        << e.what();
  }
}

TEST(ShardedSpecTest, StoreConsolidatesIntoASingleFileSnapshot) {
  DenseMatrix dense = TestMatrix();
  std::string dir = TestTempPath("consolidate");
  MatrixStore::Partition(dense, "csr_iv", {.shards = 3}, dir);
  AnyMatrix store = MatrixStore::Open(dir);

  std::string single = (fs::path(dir) / "consolidated.gcsnap").string();
  store.Save(single);
  AnyMatrix restored = AnyMatrix::Load(single);
  EXPECT_EQ(restored.FormatTag(), store.FormatTag());
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(restored.ToDense(), dense), 0.0);
  // The consolidated form is self-contained: in-memory shards, no files.
  EXPECT_FALSE(Sharded(restored).EvictShard(0));
}

TEST(ShardedMatrixTest, FromShardsValidatesShape) {
  DenseMatrix a(4, 3);
  DenseMatrix b(2, 5);  // wrong column count
  std::vector<AnyMatrix> mismatched;
  mismatched.push_back(AnyMatrix::Wrap(DenseMatrix(a)));
  mismatched.push_back(AnyMatrix::Wrap(DenseMatrix(b)));
  EXPECT_THROW(ShardedMatrix::FromShards(3, std::move(mismatched)), Error);
  EXPECT_THROW(ShardedMatrix::FromShards(3, {}), Error);
}


// --------------------------------------------------------------------------
// MultiplyBatch: the one scatter/gather routine over (direction, row range,
// k vectors)
// --------------------------------------------------------------------------

TEST(ShardedMatrixTest, PooledAndSequentialRangeBatchesAreBitwiseEqual) {
  struct Case {
    MvmDirection dir;
    std::size_t begin;
    std::size_t end;
  };
  struct Input {
    DenseMatrix dense;
    std::string spec;
    std::vector<Case> cases;
  };
  Rng rng(2025);
  // Right: partly covered shards at both ends, a range inside one shard,
  // the full range. Left (shard-aligned only): over several shards, over
  // one, and the full range. The second input's 1600-row shards are large
  // enough that a range over one shard, which hands the pool to that
  // shard's kernel, would show any split of the kernel's scan across
  // threads.
  const Input inputs[] = {
      {TestMatrix(),  // shards of 15 rows
       "sharded?inner=gcm:re_32&shards=4",
       {{MvmDirection::kRight, 7, 52},
        {MvmDirection::kRight, 16, 29},
        {MvmDirection::kRight, 0, 60},
        {MvmDirection::kLeft, 15, 45},
        {MvmDirection::kLeft, 30, 45},
        {MvmDirection::kLeft, 0, 60}}},
      {DenseMatrix::Random(3200, 30, 0.5, 5, &rng),  // shards of 1600 rows
       "sharded?inner=gcm:re_32&shards=2",
       {{MvmDirection::kRight, 400, 2900},
        {MvmDirection::kRight, 1700, 2500},
        {MvmDirection::kRight, 0, 3200},
        {MvmDirection::kLeft, 0, 1600},
        {MvmDirection::kLeft, 1600, 3200},
        {MvmDirection::kLeft, 0, 3200}}},
  };
  ThreadPool pool(3);
  for (const Input& input : inputs) {
    AnyMatrix m = AnyMatrix::Build(input.dense, input.spec);
    const ShardedMatrix& sharded = Sharded(m);
    for (const Case& c : input.cases) {
      const bool right = c.dir == MvmDirection::kRight;
      const std::string where = input.spec + (right ? " right [" : " left [") +
                                std::to_string(c.begin) + ", " +
                                std::to_string(c.end) + ")";
      for (std::size_t k : {1u, 3u}) {
        std::vector<std::vector<double>> xs;
        for (std::size_t j = 0; j < k; ++j) {
          xs.push_back(RandomVector(right ? m.cols() : c.end - c.begin,
                                    300 + 10 * k + j));
        }
        auto sequential = RunBatch(sharded, c.dir, c.begin, c.end, xs, {});
        auto pooled = RunBatch(sharded, c.dir, c.begin, c.end, xs, {&pool});
        for (std::size_t j = 0; j < k; ++j) {
          EXPECT_TRUE(BitwiseEqual(pooled[j], sequential[j]))
              << where << " k=" << k << " vector " << j;
          // Vector j of a batch is the k = 1 call on its input.
          auto single =
              RunBatch(sharded, c.dir, c.begin, c.end, {xs[j]}, {});
          EXPECT_TRUE(BitwiseEqual(sequential[j], single[0]))
              << where << " k=" << k << " vector " << j;
          if (right) {
            // A right range is rows of the full multiply.
            std::vector<double> full = m.MultiplyRight(xs[j]);
            EXPECT_TRUE(BitwiseEqual(
                sequential[j],
                std::vector<double>(
                    full.begin() + static_cast<std::ptrdiff_t>(c.begin),
                    full.begin() + static_cast<std::ptrdiff_t>(c.end))))
                << where;
          } else if (c.begin == 0 && c.end == m.rows()) {
            EXPECT_TRUE(BitwiseEqual(sequential[j], m.MultiplyLeft(xs[j])))
                << where;
          }
        }
      }
    }
  }
}

TEST(ShardedMatrixTest, PooledRangeFaultsInOnlyOverlappingShards) {
  DenseMatrix dense = TestMatrix();
  std::string dir = TestTempPath("pooled_range");
  MatrixStore::Partition(dense, "csr", {.shards = 6}, dir);  // 10 rows each
  AnyMatrix m = MatrixStore::Open(dir, ShardLoadMode::kLazy);
  const ShardedMatrix& sharded = Sharded(m);
  ThreadPool pool(3);
  std::vector<double> x = RandomVector(m.cols(), 71);
  std::vector<double> y(10);
  sharded.MultiplyRightRangeInto(x, y, 25, 35, {&pool});  // shards 2 and 3
  EXPECT_EQ(sharded.LoadedShardCount(), 2u);
  EXPECT_TRUE(sharded.ShardResident(2));
  EXPECT_TRUE(sharded.ShardResident(3));
}

TEST(ShardedMatrixTest, BatchRejectsBadRangesAndShapes) {
  AnyMatrix m = AnyMatrix::Build(TestMatrix(), "sharded?inner=csr&shards=4");
  const ShardedMatrix& sharded = Sharded(m);
  std::vector<double> x = RandomVector(m.cols(), 81);
  std::vector<double> y(10);
  // Inverted, empty and out-of-bounds ranges.
  EXPECT_THROW(sharded.MultiplyRightRangeInto(x, y, 20, 10), Error);
  EXPECT_THROW(sharded.MultiplyRightRangeInto(x, y, 10, 10), Error);
  EXPECT_THROW(sharded.MultiplyRightRangeInto(x, y, 55, 65), Error);
  // An output span of the wrong size.
  EXPECT_THROW(sharded.MultiplyRightRangeInto(x, y, 0, 11), Error);
  // A left range that does not start and end on shard boundaries.
  EXPECT_FALSE(sharded.RangeAlignedToShards(1, 15));
  std::vector<double> in(14, 1.0);
  std::vector<double> out(m.cols());
  std::span<const double> in_span(in);
  std::span<double> out_span(out);
  EXPECT_THROW(sharded.MultiplyBatch(MvmDirection::kLeft, 1, 15,
                                     {&in_span, 1}, {&out_span, 1}),
               Error);
}

}  // namespace
}  // namespace gcm
