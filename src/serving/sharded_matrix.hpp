// ShardedMatrix: scatter/gather serving kernel over per-shard snapshots.
//
// The serving-scale counterpart of the engine API: a matrix is split into
// contiguous row ranges, each range is an independent AnyMatrix (typically
// persisted as its own snapshot file, see serving/matrix_store.hpp), and
// ShardedMatrix implements IMatrixKernel over the collection -- so a
// sharded store drops straight into every existing engine loop:
//
//    AnyMatrix m = MatrixStore::Open("store/");       // reads manifest only
//    m.MultiplyRightInto(x, y, {.pool = &pool});      // shard-parallel
//
// Every multiply -- either direction, full or row range, one vector or a
// batch of k -- runs through one scatter/gather routine, MultiplyBatch.
// A right multiply hands each shard a disjoint slice of the output (the
// gather is free, and pooled/unpooled runs are bitwise identical); a left
// multiply collects one partial per shard and sums the partials in shard
// order, so the reduction is deterministic with and without a pool. When
// a pool is present, the shards a call touches run in parallel and each
// shard kernel runs sequentially inside its task; with no pool (or one
// shard touched) the context is forwarded so a lone shard can still use
// its own internal parallelism. The batching server runs every batch
// through this routine, serving an unsharded matrix as a one-shard
// FromShards.
//
// Residency: shards backed by files load lazily (read on first touch,
// checksum-verified against the manifest) or eagerly at open, and can be
// evicted one at a time (EvictShard) or least recently touched first down
// to a byte budget (EvictToResidentBytes) for memory-bounded serving; a
// later touch transparently reloads. In-memory shards (built via the
// "sharded" spec family) are always resident. All residency operations are
// const and thread-safe -- callers reach them through the engine with
//
//    auto* sharded = ShardedMatrix::FromKernel(m.kernel());
//
// Spec grammar:  sharded?inner=SPEC&rows_per_shard=N|shards=N|target_bytes=B
// where SPEC is any core engine spec with '&' written as '+'
// (EncodeInnerSpec), e.g. "sharded?inner=gcm:re_ans?blocks=2&shards=8".
// Snapshots round-trip through AnyMatrix::Save/Load: the single-file form
// embeds a "manifest" section plus one "shard_<i>" section per shard; a
// store manifest (sections "meta" + "manifest" only) loads through the same
// path when opened from a file, resolving shard files next to it.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/any_matrix.hpp"
#include "core/spec_family.hpp"
#include "serving/shard_manifest.hpp"
#include "util/common.hpp"

namespace gcm {

class DenseMatrix;
struct Triplet;

/// How MatrixStore::Open / manifest loading materializes shard payloads.
enum class ShardLoadMode {
  kEager,  ///< read and deserialize every shard at open
  kLazy,   ///< read a shard's snapshot on its first touch
};

/// How to cut a matrix into row-range shards. At most one field may be
/// set; all-zero picks the default shard count. target_bytes estimates
/// rows per shard from the *dense* row footprint (cols * 8 bytes), i.e. it
/// bounds the uncompressed slice a shard covers, not its compressed size.
struct ShardingPolicy {
  std::size_t rows_per_shard = 0;
  std::size_t shards = 0;
  u64 target_bytes = 0;

  static constexpr std::size_t kDefaultShards = 4;

  /// Reads rows_per_shard / shards / target_bytes spec keys.
  static ShardingPolicy FromSpec(const MatrixSpec& spec);

  /// The resolved rows-per-shard for a rows x cols matrix, clamped to
  /// [1, rows]. Throws std::invalid_argument when more than one policy
  /// field is set.
  std::size_t ResolveRowsPerShard(std::size_t rows, std::size_t cols) const;
};

class MappedFile;
class SnapshotReader;

/// The side a batch multiplies: y = M x (kRight) or x^t = y^t M (kLeft).
enum class MvmDirection : u8 { kRight, kLeft };

/// A routine over a batch of k vectors, one input and one output span per
/// vector (ShardedMatrix::MultiplyBatch, the cluster coordinator's
/// scatter).
using BatchRoutine =
    std::function<void(std::span<const std::span<const double>> in,
                       std::span<const std::span<double>> out)>;

/// Runs an engine multi-vector call through a batch routine. The engine
/// keeps vector j in column j (right: x is cols x k, y rows x k) or row j
/// (left: x is k x rows, y k x cols); the vectors are copied out of x into
/// spans, and the outputs back into y, which must already have its shape.
void MultiplyMultiByBatch(MvmDirection dir, const DenseMatrix& x,
                          DenseMatrix* y, const BatchRoutine& run);

class ShardedMatrix final : public IMatrixKernel {
 public:
  /// In-memory construction: consecutive shards in row order; every shard
  /// must have `cols` columns and at least one row. Shards are always
  /// resident (EvictShard refuses -- there is no file to reload from).
  static std::shared_ptr<ShardedMatrix> FromShards(
      std::size_t cols, std::vector<AnyMatrix> shards);

  /// File-backed construction over a validated manifest; shard files are
  /// resolved relative to `dir`. kEager loads every shard now, kLazy on
  /// first touch. Loads are checksum-verified against the manifest and a
  /// mismatch (or a missing / swapped shard file) throws gcm::Error naming
  /// the shard.
  static std::shared_ptr<ShardedMatrix> FromManifest(ShardManifest manifest,
                                                     std::string dir,
                                                     ShardLoadMode mode);

  /// Downcast helper for callers holding an engine matrix: returns nullptr
  /// when the kernel is not sharded.
  static const ShardedMatrix* FromKernel(const IMatrixKernel& kernel) {
    return dynamic_cast<const ShardedMatrix*>(&kernel);
  }

  // ---- Shard inspection / residency control (const + thread-safe).

  const ShardManifest& manifest() const { return manifest_; }
  std::size_t shard_count() const { return states_.size(); }

  bool ShardResident(std::size_t index) const;
  std::size_t LoadedShardCount() const;

  /// Ensures shard `index` is resident and returns an engine handle to it
  /// (a cheap shared reference: eviction never invalidates it).
  AnyMatrix LoadShard(std::size_t index) const;

  /// Drops a file-backed shard's resident payload. A mapped shard first
  /// gets madvise(MADV_DONTNEED) so the OS releases its clean pages
  /// immediately (outstanding engine handles stay valid -- they retain the
  /// mapping and simply re-fault pages from disk on the next touch).
  /// Returns false for in-memory shards and shards that are not resident.
  bool EvictShard(std::size_t index) const;

  /// Page-granular residency snapshot of one shard (`model_server --stats`
  /// and byte-bounded eviction read these).
  struct ShardResidency {
    bool resident = false;   ///< deserialized kernel currently cached
    u64 mapped_bytes = 0;    ///< live file mapping size (0 = copied/evicted)
    u64 resident_bytes = 0;  ///< RAM actually held: mincore over the
                             ///< mapping, or the owned copy's full size
  };
  ShardResidency ShardResidencyInfo(std::size_t index) const;

  /// Sum of ShardResidencyInfo(i).resident_bytes over all shards -- the
  /// page-granular serving footprint. A mapped shard counts only the pages
  /// the OS actually holds (mincore), so the footprint can sit far below
  /// the snapshot size when kernels touch a fraction of the payload.
  u64 ResidentPayloadBytes() const;

  /// Evicts least-recently-touched file-backed shards until the
  /// page-granular resident footprint is at most `max_bytes`. In-memory
  /// shards are pinned and keep counting toward the footprint. Returns the
  /// number evicted; a serving-loop hint that concurrent touches may race,
  /// not an invariant.
  std::size_t EvictToResidentBytes(u64 max_bytes) const;

  // ---- IMatrixKernel.

  std::size_t rows() const override { return manifest_.rows; }
  std::size_t cols() const override { return manifest_.cols; }
  u64 CompressedBytes() const override {
    return manifest_.TotalCompressedBytes();
  }
  std::string FormatTag() const override { return manifest_.FormatTag(); }

  /// The four engine kernels are MultiplyBatch over the full row range
  /// (a multi-vector call copies its DenseMatrix columns or rows in and
  /// out of spans; MultiplyMultiByBatch).
  void MultiplyRightInto(std::span<const double> x, std::span<double> y,
                         const MulContext& ctx) const override;
  void MultiplyLeftInto(std::span<const double> y, std::span<double> x,
                        const MulContext& ctx) const override;
  void MultiplyRightMulti(const DenseMatrix& x, DenseMatrix* y,
                          const MulContext& ctx) const override;
  void MultiplyLeftMulti(const DenseMatrix& x, DenseMatrix* y,
                         const MulContext& ctx) const override;

  /// The one scatter/gather routine: multiplies a batch of k vectors, one
  /// span each, by the rows [row_begin, row_end).
  ///   right: out[j] = M[row_begin:row_end, :] in[j]; in[j] holds cols()
  ///          entries, out[j] row_end - row_begin.
  ///   left:  out[j] = in[j]^t M[row_begin:row_end, :]; in[j] holds
  ///          row_end - row_begin entries, out[j] cols(). The range must be
  ///          shard-aligned (RangeAlignedToShards).
  /// Only shards overlapping the range are acquired, so a range query
  /// against a residency-limited store faults in exactly the shards it
  /// needs. With a pool and more than one such shard, shards run in
  /// parallel and each shard kernel runs sequentially inside its task;
  /// otherwise the context is forwarded, so a lone shard can still use
  /// its own internal parallelism. Right: when k = 1 a shard the range
  /// covers writes straight into out[0]; a partly covered shard, and every
  /// shard of a k > 1 batch, computes all its rows into scratch whose rows
  /// in range are copied out. Left: out[j] is zeroed,
  /// then each shard's partial is added in shard order. Both gathers are
  /// bitwise identical with and without a pool, vector j is bitwise
  /// identical to a k = 1 call on in[j], and a k = 1 call reaches each
  /// shard's single-vector kernel. Throws gcm::Error on an invalid or
  /// misaligned range and on mis-sized spans.
  void MultiplyBatch(MvmDirection dir, std::size_t row_begin,
                     std::size_t row_end,
                     std::span<const std::span<const double>> in,
                     std::span<const std::span<double>> out,
                     const MulContext& ctx = {}) const;

  /// A one-vector right MultiplyBatch: y holds row_end - row_begin
  /// entries.
  void MultiplyRightRangeInto(std::span<const double> x, std::span<double> y,
                              std::size_t row_begin, std::size_t row_end,
                              const MulContext& ctx = {}) const;

  /// True when [row_begin, row_end) is a valid range that starts on some
  /// shard's first row and ends on some shard's last row -- the ranges a
  /// left multiply can serve (shards tile contiguously, so an aligned
  /// range covers whole shards exactly).
  bool RangeAlignedToShards(std::size_t row_begin, std::size_t row_end) const;

  DenseMatrix ToDense() const override;

  /// Sums the counters of *resident* shards only -- collecting stats must
  /// never fault an evicted shard back in (it is a read-only probe the
  /// serving loop calls between requests).
  void CollectStats(KernelStats* stats) const override;

  /// Single-file persistence: embeds the manifest plus every shard's
  /// snapshot bytes as sections (loading lazily-evicted shards first).
  void SaveSections(SnapshotWriter* out) const override;

 private:
  struct ShardState {
    ShardManifestEntry entry;
    bool file_backed = false;
    mutable std::mutex mu;
    mutable AnyMatrix resident;  ///< invalid when evicted / not yet loaded
    /// Live mapping of the shard's snapshot file; null when the load fell
    /// back to a heap copy (or the shard is in-memory / evicted). Held
    /// here -- in addition to the keepalive inside `resident` -- so
    /// eviction can madvise the pages away and stats can mincore them.
    mutable std::shared_ptr<MappedFile> mapping;
    mutable u64 last_touch = 0;
  };

  ShardedMatrix() = default;

  const ShardState& state(std::size_t index) const;
  /// Loads (if needed), stamps the LRU clock, returns the shard handle.
  AnyMatrix Acquire(const ShardState& shard) const;
  /// Page-granular resident bytes of one shard; caller holds `shard.mu`.
  u64 ResidentBytesLocked(const ShardState& shard) const;

  ShardManifest manifest_;
  std::string dir_;  ///< base for shard files; empty when fully in-memory
  std::vector<std::unique_ptr<ShardState>> states_;
  mutable std::atomic<u64> clock_{0};
};

/// Splits triplets into one bucket per row-range shard of `per_shard`
/// rows, rebasing each row index to its shard's local origin. Rows at or
/// beyond `rows` throw gcm::Error naming the offending triplet. Shared by
/// the in-memory build path and MatrixStore::Partition so the rebase
/// invariant lives in one place.
std::vector<std::vector<Triplet>> BucketTripletsByShard(
    std::size_t rows, std::size_t per_shard, std::vector<Triplet> entries);

/// The "sharded" spec family (core/spec_family.hpp): builds in memory
/// from dense data or triplets, loads single-file snapshots and store
/// manifests.
SpecFamily ShardedSpecFamily();

/// Parses the spec a scatter/gather layout puts in each shard (a sharded
/// spec's "inner" key, a MatrixStore shard spec). Only core families
/// nest; anything else throws std::invalid_argument.
MatrixSpec ParseInnerSpec(const std::string& inner_spec);

/// The decoded "inner" key (default "csr") of a sharded spec or of a
/// family layered on it, checked by ParseInnerSpec.
MatrixSpec InnerSpecFromSharded(const MatrixSpec& spec);

}  // namespace gcm
