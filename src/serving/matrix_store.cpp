#include "serving/matrix_store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <optional>
#include <regex>
#include <utility>

#include "encoding/snapshot.hpp"
#include "matrix/dense_matrix.hpp"
#include "matrix/sparse_builder.hpp"
#include "util/thread_pool.hpp"

namespace gcm {
namespace {

namespace fs = std::filesystem;

/// Shard file `index` of store generation `generation`.
std::string ShardFileName(u64 generation, std::size_t index) {
  char name[64];
  std::snprintf(name, sizeof(name), "shard_g%llu_%05zu.gcsnap",
                static_cast<unsigned long long>(generation), index);
  return name;
}

/// The generation of a shard-pattern file name (0 for shard_<i>.gcsnap),
/// or nullopt. A killed writer's temp sibling counts as its target's.
std::optional<u64> ShardFileGeneration(const std::string& name) {
  static const std::regex kPattern(R"(shard_(?:g(\d{1,18})_)?\d+\.gcsnap.*)");
  std::smatch match;
  if (!std::regex_match(name, match, kPattern)) return std::nullopt;
  return match[1].matched ? std::stoull(match[1].str()) : 0;
}

/// Row ranges of `per_shard` rows (the last one shorter) tiling [0, rows).
std::vector<ShardManifestEntry> UniformLayout(std::size_t rows,
                                              std::size_t per_shard) {
  std::vector<ShardManifestEntry> layout;
  for (std::size_t begin = 0; begin < rows; begin += per_shard) {
    ShardManifestEntry& shard = layout.emplace_back();
    shard.row_begin = begin;
    shard.row_end = std::min(rows, begin + per_shard);
  }
  return layout;
}

/// Shared producer pipeline: `build_shard(i, layout[i])` returns shard i
/// for that row range. Shards are built and written concurrently on the
/// BuildContext pool, each task holding only its own shard, into per-shard
/// manifest slots, so every file is byte-identical to the sequential
/// output. They take a new generation's names, which no manifest in `dir`
/// references; the manifest rename is the single commit point. A failure
/// before it removes only this generation's files; after it, the shard
/// files of other generations and a killed writer's manifest temp file go.
ShardManifest WriteStore(
    std::size_t rows, std::size_t cols,
    const std::vector<ShardManifestEntry>& layout, const std::string& dir,
    const BuildContext& ctx,
    const std::function<AnyMatrix(std::size_t, const ShardManifestEntry&)>&
        build_shard) {
  std::error_code ec;
  bool created_dir = fs::create_directories(dir, ec);
  GCM_CHECK_MSG(!ec, "cannot create store directory " << dir << ": "
                                                      << ec.message());
  u64 generation = 1;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (auto found = ShardFileGeneration(entry.path().filename().string())) {
      generation = std::max(generation, *found + 1);
    }
  }
  std::string manifest_path = (fs::path(dir) / kShardManifestFileName).string();

  ShardManifest manifest{rows, cols, layout};
  try {
    MaybeParallelFor(ctx.pool, layout.size(), [&](std::size_t i) {
      AnyMatrix shard = build_shard(i, layout[i]);
      std::vector<u8> bytes = shard.SaveSnapshotBytes();
      ShardManifestEntry& entry = manifest.shards[i];
      entry.file = ShardFileName(generation, i);
      entry.spec = shard.FormatTag();
      entry.crc32 = SnapshotFileCrc32(bytes);
      entry.snapshot_bytes = bytes.size();
      entry.compressed_bytes = shard.CompressedBytes();
      WriteFileBytes((fs::path(dir) / entry.file).string(), bytes);
    });
    manifest.Save(manifest_path);
  } catch (...) {
    // Only a failed directory fsync throws after the rename; the new
    // manifest is then live and its shards must stay.
    bool live = false;
    try {
      live = ShardManifest::Load(manifest_path).shards[0].file ==
             ShardFileName(generation, 0);
    } catch (const Error&) {
      live = false;
    }
    if (!live) {
      std::error_code ignore;
      for (std::size_t i = 0; i < layout.size(); ++i) {
        fs::remove(fs::path(dir) / ShardFileName(generation, i), ignore);
      }
      // remove() refuses a non-empty directory.
      if (created_dir) fs::remove(dir, ignore);
    }
    throw;
  }
  const std::string manifest_temp =
      std::string(kShardManifestFileName) + ".tmp.";
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    std::string name = entry.path().filename().string();
    std::optional<u64> found = ShardFileGeneration(name);
    if ((found && *found != generation) || name.starts_with(manifest_temp)) {
      fs::remove(entry.path(), ec);
    }
  }
  return manifest;
}

}  // namespace

ShardManifest MatrixStore::Partition(const DenseMatrix& dense,
                                     const std::string& inner_spec,
                                     const ShardingPolicy& policy,
                                     const std::string& dir,
                                     const BuildContext& ctx) {
  MatrixSpec inner = ParseInnerSpec(inner_spec);
  std::size_t per_shard =
      policy.ResolveRowsPerShard(dense.rows(), dense.cols());
  return WriteStore(
      dense.rows(), dense.cols(), UniformLayout(dense.rows(), per_shard), dir,
      ctx, [&](std::size_t, const ShardManifestEntry& shard) {
        return AnyMatrix::Build(
            dense.RowSlice(shard.row_begin, shard.row_end), inner, ctx);
      });
}

ShardManifest MatrixStore::Partition(std::size_t rows, std::size_t cols,
                                     std::vector<Triplet> entries,
                                     const std::string& inner_spec,
                                     const ShardingPolicy& policy,
                                     const std::string& dir,
                                     const BuildContext& ctx) {
  MatrixSpec inner = ParseInnerSpec(inner_spec);
  std::size_t per_shard = policy.ResolveRowsPerShard(rows, cols);
  std::vector<std::vector<Triplet>> buckets =
      BucketTripletsByShard(rows, per_shard, std::move(entries));
  return WriteStore(rows, cols, UniformLayout(rows, per_shard), dir, ctx,
                    [&](std::size_t i, const ShardManifestEntry& shard) {
                      return AnyMatrix::Build(shard.rows(), cols,
                                              std::move(buckets[i]), inner,
                                              ctx);
                    });
}

std::string MatrixStore::ManifestPath(const std::string& dir_or_manifest) {
  fs::path path(dir_or_manifest);
  std::error_code ec;
  bool is_directory = fs::is_directory(path, ec);
  // Nonexistence is not an error here -- the caller's manifest read
  // reports a missing file with the usual cannot-open message. Anything
  // else (EACCES on a parent, an I/O error) is a real filesystem failure
  // that must not masquerade as "not a directory" and send the caller to
  // a nonexistent manifest path.
  if (ec == std::errc::no_such_file_or_directory ||
      ec == std::errc::not_a_directory) {
    ec.clear();
  }
  GCM_CHECK_MSG(!ec, "cannot inspect " << dir_or_manifest << ": "
                                       << ec.message());
  if (is_directory) path /= kShardManifestFileName;
  return path.string();
}

ShardManifest MatrixStore::Resave(const std::string& dir_or_manifest) {
  std::string manifest_path = ManifestPath(dir_or_manifest);
  ShardManifest old = ShardManifest::Load(manifest_path);
  std::string dir = fs::path(manifest_path).parent_path().string();
  // Each "build" is just a load of the existing shard file: the snapshot
  // payload is adopted as-is and re-emitted in the current container
  // version over the same row ranges, and the manifest rename commits the
  // migration. Loads go through the serving loader, so a shard file the
  // manifest does not vouch for (length, whole-file CRC, shape, spec)
  // fails here as it would when served, instead of being re-stamped.
  std::shared_ptr<ShardedMatrix> served =
      ShardedMatrix::FromManifest(old, dir, ShardLoadMode::kLazy);
  return WriteStore(old.rows, old.cols, old.shards, dir, {},
                    [&](std::size_t i, const ShardManifestEntry&) {
                      AnyMatrix shard = served->LoadShard(i);
                      // The handle alone keeps the shard alive until it
                      // is written, so Resave holds one shard per task.
                      served->EvictShard(i);
                      return shard;
                    });
}

AnyMatrix MatrixStore::Open(const std::string& dir_or_manifest,
                            ShardLoadMode mode) {
  std::string manifest_path = ManifestPath(dir_or_manifest);
  ShardManifest manifest = ShardManifest::Load(manifest_path);
  std::string dir = fs::path(manifest_path).parent_path().string();
  return AnyMatrix(
      ShardedMatrix::FromManifest(std::move(manifest), dir, mode));
}

}  // namespace gcm
