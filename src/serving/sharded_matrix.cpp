#include "serving/sharded_matrix.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <stdexcept>
#include <utility>

#include "encoding/snapshot.hpp"
#include "matrix/dense_matrix.hpp"
#include "matrix/sparse_builder.hpp"
#include "util/check.hpp"
#include "util/mapped_file.hpp"
#include "util/partials.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace gcm {
namespace {

/// Validates that `loaded` is the shard the manifest promised; `what`
/// names the source (file path or section name) for error messages.
void CheckLoadedShard(const AnyMatrix& loaded, const ShardManifestEntry& entry,
                      std::size_t cols, const std::string& what) {
  GCM_CHECK_MSG(loaded.rows() == entry.rows() && loaded.cols() == cols,
                "shard " << what << " holds a " << loaded.rows() << "x"
                         << loaded.cols()
                         << " matrix but the manifest promises "
                         << entry.rows() << "x" << cols);
  GCM_CHECK_MSG(loaded.FormatTag() == entry.spec,
                "shard " << what << " holds spec \"" << loaded.FormatTag()
                         << "\" but the manifest promises \"" << entry.spec
                         << '"');
}

/// Manifest gate before any payload parsing: a swapped, truncated or
/// re-stamped shard must fail here, naming the shard, not deep inside a
/// section parser. It reads the length and the snapshot header only
/// (SnapshotFileCrc32); the parse that follows makes the one pass over the
/// body and rejects it unless it matches the CRC this gate vouched for.
void CheckShardBytes(std::span<const u8> bytes,
                     const ShardManifestEntry& entry, const std::string& what) {
  GCM_CHECK_MSG(bytes.size() == entry.snapshot_bytes,
                "shard " << what << " is " << bytes.size()
                         << " bytes but the manifest records "
                         << entry.snapshot_bytes);
  u32 crc = SnapshotFileCrc32(bytes);
  GCM_CHECK_MSG(crc == entry.crc32,
                "shard " << what << " fails its manifest checksum (stored "
                         << entry.crc32 << ", computed " << crc << ")");
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardingPolicy
// ---------------------------------------------------------------------------

ShardingPolicy ShardingPolicy::FromSpec(const MatrixSpec& spec) {
  ShardingPolicy policy;
  policy.rows_per_shard = spec.GetSize("rows_per_shard", 0);
  policy.shards = spec.GetSize("shards", 0);
  policy.target_bytes = spec.GetBytes("target_bytes", 0);
  return policy;
}

std::size_t ShardingPolicy::ResolveRowsPerShard(std::size_t rows,
                                                std::size_t cols) const {
  int fields_set = (rows_per_shard != 0) + (shards != 0) + (target_bytes != 0);
  if (fields_set > 1) {
    throw std::invalid_argument(
        "sharding policy sets more than one of rows_per_shard / shards / "
        "target_bytes; pick exactly one");
  }
  GCM_CHECK_MSG(rows > 0, "cannot shard a matrix with no rows");
  std::size_t per_shard;
  if (rows_per_shard != 0) {
    per_shard = rows_per_shard;
  } else if (target_bytes != 0) {
    u64 bytes_per_row = static_cast<u64>(std::max<std::size_t>(cols, 1)) *
                        sizeof(double);
    per_shard = static_cast<std::size_t>(
        std::max<u64>(1, target_bytes / bytes_per_row));
  } else {
    std::size_t count = shards != 0 ? shards : kDefaultShards;
    count = std::clamp<std::size_t>(count, 1, rows);
    per_shard = (rows + count - 1) / count;
  }
  return std::clamp<std::size_t>(per_shard, 1, rows);
}

// ---------------------------------------------------------------------------
// ShardedMatrix construction
// ---------------------------------------------------------------------------

std::shared_ptr<ShardedMatrix> ShardedMatrix::FromShards(
    std::size_t cols, std::vector<AnyMatrix> shards) {
  GCM_CHECK_MSG(!shards.empty(), "a sharded matrix needs at least one shard");
  auto sharded = std::shared_ptr<ShardedMatrix>(new ShardedMatrix());
  sharded->manifest_.cols = cols;
  std::size_t row = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const AnyMatrix& shard = shards[i];
    GCM_CHECK_MSG(shard.cols() == cols,
                  "shard " << i << " has " << shard.cols()
                           << " columns, expected " << cols);
    GCM_CHECK_MSG(shard.rows() > 0, "shard " << i << " has no rows");
    ShardManifestEntry entry;
    entry.row_begin = row;
    entry.row_end = row + shard.rows();
    entry.spec = shard.FormatTag();
    entry.compressed_bytes = shard.CompressedBytes();
    row = entry.row_end;
    auto state = std::make_unique<ShardState>();
    state->entry = entry;
    state->resident = shard;
    sharded->manifest_.shards.push_back(std::move(entry));
    sharded->states_.push_back(std::move(state));
  }
  sharded->manifest_.rows = row;
  sharded->manifest_.Validate();
  return sharded;
}

std::shared_ptr<ShardedMatrix> ShardedMatrix::FromManifest(
    ShardManifest manifest, std::string dir, ShardLoadMode mode) {
  manifest.Validate();
  auto sharded = std::shared_ptr<ShardedMatrix>(new ShardedMatrix());
  sharded->dir_ = std::move(dir);
  for (std::size_t i = 0; i < manifest.shards.size(); ++i) {
    GCM_CHECK_MSG(!manifest.shards[i].file.empty(),
                  "manifest shard " << i
                                    << " names no snapshot file (a store "
                                       "manifest must reference one per "
                                       "shard)");
    auto state = std::make_unique<ShardState>();
    state->entry = manifest.shards[i];
    state->file_backed = true;
    sharded->states_.push_back(std::move(state));
  }
  sharded->manifest_ = std::move(manifest);
  if (mode == ShardLoadMode::kEager) {
    for (std::size_t i = 0; i < sharded->states_.size(); ++i) {
      sharded->LoadShard(i);
    }
  }
  return sharded;
}

// ---------------------------------------------------------------------------
// Residency
// ---------------------------------------------------------------------------

const ShardedMatrix::ShardState& ShardedMatrix::state(
    std::size_t index) const {
  GCM_CHECK_MSG(index < states_.size(), "shard index " << index
                                                       << " out of range (have "
                                                       << states_.size()
                                                       << " shards)");
  return *states_[index];
}

AnyMatrix ShardedMatrix::Acquire(const ShardState& shard) const {
  std::lock_guard<std::mutex> lock(shard.mu);
  if (!shard.resident.valid()) {
    std::string path =
        (std::filesystem::path(dir_) / shard.entry.file).string();
    // Map the file when the platform allows it: the container's CRC check
    // walks the mapping once (a sequential fault-in the OS can discard
    // again), the deserializer borrows its payload arrays out of it, and
    // only the pages the kernels touch stay resident afterwards. The
    // heap-read fallback keeps the exact pre-mmap behaviour.
    std::shared_ptr<MappedFile> mapping = MappedFile::TryMap(path);
    std::vector<u8> heap_copy;
    std::span<const u8> bytes;
    if (mapping != nullptr) {
      bytes = mapping->bytes();
    } else {
      heap_copy = ReadFileBytes(path);
      bytes = heap_copy;
    }
    CheckShardBytes(bytes, shard.entry, "file " + path);
    AnyMatrix loaded;
    try {
      loaded = mapping != nullptr
                   ? AnyMatrix::LoadSnapshot(
                         SnapshotReader::FromSpan(bytes, mapping))
                   : AnyMatrix::LoadSnapshotBytes(std::move(heap_copy));
    } catch (const Error& e) {
      throw Error("shard file " + path + ": " + e.what());
    }
    CheckLoadedShard(loaded, shard.entry, cols(), "file " + path);
    shard.resident = std::move(loaded);
    shard.mapping = std::move(mapping);
  }
  shard.last_touch = ++clock_;
  return shard.resident;
}

bool ShardedMatrix::ShardResident(std::size_t index) const {
  const ShardState& shard = state(index);
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.resident.valid();
}

std::size_t ShardedMatrix::LoadedShardCount() const {
  std::size_t count = 0;
  for (const auto& shard : states_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    if (shard->resident.valid()) ++count;
  }
  return count;
}

AnyMatrix ShardedMatrix::LoadShard(std::size_t index) const {
  return Acquire(state(index));
}

bool ShardedMatrix::EvictShard(std::size_t index) const {
  const ShardState& shard = state(index);
  if (!shard.file_backed) return false;  // nothing to reload from
  std::lock_guard<std::mutex> lock(shard.mu);
  if (!shard.resident.valid()) return false;
  // Eviction of a mapped shard is advice + handle drop: MADV_DONTNEED
  // releases the clean file-backed pages right now instead of waiting for
  // memory pressure, and dropping our references lets the mapping unmap
  // once outstanding engine handles (which retain it) are gone.
  if (shard.mapping != nullptr) {
    shard.mapping->Advise(MappedFile::Advice::kDontNeed);
  }
  shard.resident = AnyMatrix();
  shard.mapping.reset();
  return true;
}

u64 ShardedMatrix::ResidentBytesLocked(const ShardState& shard) const {
  if (!shard.resident.valid()) return 0;
  // A mapped shard holds exactly the pages the OS has faulted in; a
  // heap-loaded shard owns its whole snapshot copy. In-memory shards
  // (never snapshotted) are charged their compressed representation.
  if (shard.mapping != nullptr) return shard.mapping->ResidentBytes();
  if (shard.entry.snapshot_bytes != 0) return shard.entry.snapshot_bytes;
  return shard.entry.compressed_bytes;
}

ShardedMatrix::ShardResidency ShardedMatrix::ShardResidencyInfo(
    std::size_t index) const {
  const ShardState& shard = state(index);
  std::lock_guard<std::mutex> lock(shard.mu);
  ShardResidency info;
  info.resident = shard.resident.valid();
  info.mapped_bytes = shard.mapping != nullptr ? shard.mapping->size() : 0;
  info.resident_bytes = ResidentBytesLocked(shard);
  return info;
}

u64 ShardedMatrix::ResidentPayloadBytes() const {
  u64 total = 0;
  for (const auto& shard : states_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += ResidentBytesLocked(*shard);
  }
  return total;
}

std::size_t ShardedMatrix::EvictToResidentBytes(u64 max_bytes) const {
  // Snapshot (last_touch, index) of every resident shard, then evict the
  // least recently touched file-backed ones until the page-granular
  // footprint fits: each shard is charged what it actually holds (mincore
  // over its mapping, or its owned copy). Pinned in-memory shards keep
  // counting against the budget, so a limit below the pinned footprint
  // evicts every file-backed shard.
  std::vector<std::pair<u64, std::size_t>> resident;  // (last_touch, index)
  u64 total = 0;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    std::lock_guard<std::mutex> lock(states_[i]->mu);
    u64 bytes = ResidentBytesLocked(*states_[i]);
    total += bytes;
    if (bytes != 0 && states_[i]->file_backed) {
      resident.emplace_back(states_[i]->last_touch, i);
    }
  }
  std::sort(resident.begin(), resident.end());
  std::size_t evicted = 0;
  for (const auto& [touch, index] : resident) {
    if (total <= max_bytes) break;
    // Re-measure under the lock right before evicting: pages may have
    // been reclaimed (or faulted) since the snapshot above.
    u64 bytes;
    {
      const ShardState& shard = *states_[index];
      std::lock_guard<std::mutex> lock(shard.mu);
      bytes = ResidentBytesLocked(shard);
    }
    if (EvictShard(index)) {
      ++evicted;
      total = total > bytes ? total - bytes : 0;
    }
  }
  return evicted;
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

void ShardedMatrix::MultiplyBatch(MvmDirection dir, std::size_t row_begin,
                                  std::size_t row_end,
                                  std::span<const std::span<const double>> in,
                                  std::span<const std::span<double>> out,
                                  const MulContext& ctx) const {
  const bool right = dir == MvmDirection::kRight;
  GCM_CHECK_MSG(row_begin < row_end && row_end <= rows(),
                "row range [" << row_begin << ", " << row_end
                              << ") invalid for " << rows() << " rows");
  GCM_CHECK_MSG(right || RangeAlignedToShards(row_begin, row_end),
                "left range [" << row_begin << ", " << row_end
                               << ") is not shard-aligned");
  const std::size_t k = in.size();
  GCM_CHECK_MSG(out.size() == k, "batch has " << k << " inputs but "
                                              << out.size() << " outputs");
  const std::size_t in_size = right ? cols() : row_end - row_begin;
  const std::size_t out_size = right ? row_end - row_begin : cols();
  for (std::size_t j = 0; j < k; ++j) {
    GCM_CHECK_MSG(in[j].size() == in_size && out[j].size() == out_size,
                  "batch vector " << j << ": input has " << in[j].size()
                                  << " entries and output " << out[j].size()
                                  << ", expected " << in_size << " and "
                                  << out_size);
  }
  if (k == 0) return;

  // Shards tile the rows in order, so the ones the range overlaps are the
  // run [first, first + touched); only those are acquired (faulted in and
  // LRU-stamped).
  const std::vector<ShardManifestEntry>& entries = manifest_.shards;
  const std::size_t first = static_cast<std::size_t>(
      std::partition_point(entries.begin(), entries.end(),
                           [&](const ShardManifestEntry& e) {
                             return e.row_end <= row_begin;
                           }) -
      entries.begin());
  const std::size_t touched =
      static_cast<std::size_t>(
          std::partition_point(entries.begin(), entries.end(),
                               [&](const ShardManifestEntry& e) {
                                 return e.row_begin < row_end;
                               }) -
          entries.begin()) -
      first;

  // A right batch of k > 1 is packed once into the engine's cols x k
  // layout, which every shard reads; a left batch gets one k x cols
  // partial per touched shard (row-major, vector j at offset j * cols).
  DenseMatrix x_block;
  if (right && k > 1) {
    x_block = DenseMatrix(cols(), k);
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t c = 0; c < cols(); ++c) x_block.Set(c, j, in[j][c]);
    }
  }
  PartialVectors partials(right ? 0 : touched, k * cols());

  auto run_shard = [&](std::size_t t, const MulContext& inner) {
    const ShardState& shard = *states_[first + t];
    const ShardManifestEntry& entry = shard.entry;
    AnyMatrix m = Acquire(shard);
    if (!right) {
      // Aligned, so the shard lies inside the range.
      const std::size_t offset = entry.row_begin - row_begin;
      std::span<double> part = partials.part(t);
      if (k == 1) {
        m.MultiplyLeftInto(in[0].subspan(offset, entry.rows()), part, inner);
        return;
      }
      DenseMatrix slice(k, entry.rows());
      for (std::size_t j = 0; j < k; ++j) {
        for (std::size_t r = 0; r < entry.rows(); ++r) {
          slice.Set(j, r, in[j][offset + r]);
        }
      }
      DenseMatrix p = m.MultiplyLeftMulti(slice, inner);
      for (std::size_t j = 0; j < k; ++j) {
        for (std::size_t c = 0; c < cols(); ++c) {
          part[j * cols() + c] = p.At(j, c);
        }
      }
      return;
    }
    const std::size_t begin = std::max(row_begin, entry.row_begin);
    const std::size_t end = std::min(row_end, entry.row_end);
    if (k == 1) {
      std::span<double> y = out[0].subspan(begin - row_begin, end - begin);
      if (begin == entry.row_begin && end == entry.row_end) {
        m.MultiplyRightInto(in[0], y, inner);
        return;
      }
      // Row slicing below the shard grain would need another kernel: the
      // shard computes all its rows and the overlap is copied.
      std::vector<double> scratch(entry.rows());
      m.MultiplyRightInto(in[0], scratch, inner);
      for (std::size_t r = begin; r < end; ++r) {
        y[r - begin] = scratch[r - entry.row_begin];
      }
      return;
    }
    DenseMatrix block = m.MultiplyRightMulti(x_block, inner);
    for (std::size_t j = 0; j < k; ++j) {
      for (std::size_t r = begin; r < end; ++r) {
        out[j][r - row_begin] = block.At(r - entry.row_begin, j);
      }
    }
  };
  if (ctx.pool != nullptr && touched > 1) {
    // Shards are the parallel grain; shard kernels run sequentially inside
    // their task. Nested ParallelFor is safe (the worker helps drain its
    // own range), but one task per shard already saturates the pool, so
    // forwarding it inward would only add fan-out overhead.
    ctx.pool->ParallelFor(touched,
                          [&](std::size_t t) { run_shard(t, MulContext{}); });
  } else {
    for (std::size_t t = 0; t < touched; ++t) run_shard(t, ctx);
  }

  if (!right) {
    // Zero, then add each shard's partial in shard order: the same sums
    // whichever thread computed which partial.
    for (std::size_t j = 0; j < k; ++j) {
      std::fill(out[j].begin(), out[j].end(), 0.0);
      for (std::size_t t = 0; t < touched; ++t) {
        simd::Add(out[j].data(), partials.part(t).data() + j * cols(), cols());
      }
    }
  }
}

void ShardedMatrix::MultiplyRightInto(std::span<const double> x,
                                      std::span<double> y,
                                      const MulContext& ctx) const {
  MultiplyBatch(MvmDirection::kRight, 0, rows(), {&x, 1}, {&y, 1}, ctx);
}

void ShardedMatrix::MultiplyLeftInto(std::span<const double> y,
                                     std::span<double> x,
                                     const MulContext& ctx) const {
  MultiplyBatch(MvmDirection::kLeft, 0, rows(), {&y, 1}, {&x, 1}, ctx);
}

void ShardedMatrix::MultiplyRightMulti(const DenseMatrix& x, DenseMatrix* y,
                                       const MulContext& ctx) const {
  MultiplyMultiByBatch(MvmDirection::kRight, x, y, [&](auto in, auto out) {
    MultiplyBatch(MvmDirection::kRight, 0, rows(), in, out, ctx);
  });
}

void ShardedMatrix::MultiplyLeftMulti(const DenseMatrix& x, DenseMatrix* y,
                                      const MulContext& ctx) const {
  MultiplyMultiByBatch(MvmDirection::kLeft, x, y, [&](auto in, auto out) {
    MultiplyBatch(MvmDirection::kLeft, 0, rows(), in, out, ctx);
  });
}

void ShardedMatrix::MultiplyRightRangeInto(std::span<const double> x,
                                           std::span<double> y,
                                           std::size_t row_begin,
                                           std::size_t row_end,
                                           const MulContext& ctx) const {
  MultiplyBatch(MvmDirection::kRight, row_begin, row_end, {&x, 1}, {&y, 1},
                ctx);
}

bool ShardedMatrix::RangeAlignedToShards(std::size_t row_begin,
                                         std::size_t row_end) const {
  if (row_begin >= row_end || row_end > rows()) return false;
  bool begin_ok = false;
  bool end_ok = false;
  for (const std::unique_ptr<ShardState>& state : states_) {
    if (state->entry.row_begin == row_begin) begin_ok = true;
    if (state->entry.row_end == row_end) end_ok = true;
  }
  return begin_ok && end_ok;
}

void MultiplyMultiByBatch(MvmDirection dir, const DenseMatrix& x,
                          DenseMatrix* y, const BatchRoutine& run) {
  const bool right = dir == MvmDirection::kRight;
  const std::size_t k = right ? x.cols() : x.rows();
  const std::size_t in_size = right ? x.rows() : x.cols();
  const std::size_t out_size = right ? y->rows() : y->cols();
  std::vector<double> in_data(k * in_size);
  std::vector<double> out_data(k * out_size);
  std::vector<std::span<const double>> in(k);
  std::vector<std::span<double>> out(k);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < in_size; ++i) {
      in_data[j * in_size + i] = right ? x.At(i, j) : x.At(j, i);
    }
    in[j] = {in_data.data() + j * in_size, in_size};
    out[j] = {out_data.data() + j * out_size, out_size};
  }
  run(in, out);
  for (std::size_t j = 0; j < k; ++j) {
    for (std::size_t i = 0; i < out_size; ++i) {
      if (right) {
        y->Set(i, j, out[j][i]);
      } else {
        y->Set(j, i, out[j][i]);
      }
    }
  }
}

DenseMatrix ShardedMatrix::ToDense() const {
  DenseMatrix out(rows(), cols());
  for (std::size_t i = 0; i < states_.size(); ++i) {
    const ShardState& shard = *states_[i];
    DenseMatrix block = Acquire(shard).ToDense();
    for (std::size_t r = 0; r < block.rows(); ++r) {
      for (std::size_t c = 0; c < block.cols(); ++c) {
        out.Set(shard.entry.row_begin + r, c, block.At(r, c));
      }
    }
  }
  return out;
}

void ShardedMatrix::CollectStats(KernelStats* stats) const {
  // Resident shards only: a stats probe must never fault an evicted shard
  // back in, so this peeks under each state's mutex instead of Acquire().
  for (const std::unique_ptr<ShardState>& state : states_) {
    std::lock_guard<std::mutex> lock(state->mu);
    if (state->resident.valid()) state->resident.kernel().CollectStats(stats);
  }
}

// ---------------------------------------------------------------------------
// Snapshot persistence
// ---------------------------------------------------------------------------

void ShardedMatrix::SaveSections(SnapshotWriter* out) const {
  // Single-file form: the manifest section describes the embedded shard
  // sections (file names cleared, checksums of the embedded bytes), so the
  // store layout and the single file stay mutually convertible.
  std::vector<std::vector<u8>> blobs(states_.size());
  ShardManifest embedded = manifest_;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    AnyMatrix shard = Acquire(*states_[i]);
    blobs[i] = shard.SaveSnapshotBytes();
    ShardManifestEntry& entry = embedded.shards[i];
    entry.file.clear();
    entry.spec = shard.FormatTag();
    entry.crc32 = SnapshotFileCrc32(blobs[i]);
    entry.snapshot_bytes = blobs[i].size();
    entry.compressed_bytes = shard.CompressedBytes();
  }
  embedded.SerializeInto(&out->BeginSection(kShardManifestSection));
  for (std::size_t i = 0; i < blobs.size(); ++i) {
    // Cache-line alignment so each embedded container starts where its
    // own internal padding expects it -- a mapped single-file snapshot
    // then borrows shard payload arrays exactly like sibling shard files.
    out->BeginSection(ShardSectionName(i), kPayloadSectionAlignment)
        .PutBytes(blobs[i].data(), blobs[i].size());
  }
}

// ---------------------------------------------------------------------------
// The "sharded" spec family
// ---------------------------------------------------------------------------

MatrixSpec ParseInnerSpec(const std::string& inner_spec) {
  MatrixSpec inner = MatrixSpec::Parse(inner_spec);
  const std::vector<SpecFamily>& core = CoreSpecFamilies();
  if (std::none_of(core.begin(), core.end(), [&](const SpecFamily& family) {
        return family.name == inner.family;
      })) {
    std::string names;
    for (const SpecFamily& family : core) {
      names += ' ' + std::string(family.name);
    }
    throw std::invalid_argument(
        "inner spec \"" + inner_spec +
        "\" must name a core backend family (scatter/gather families do not "
        "nest); core families:" + names);
  }
  return inner;
}

MatrixSpec InnerSpecFromSharded(const MatrixSpec& spec) {
  auto it = spec.params.find("inner");
  return ParseInnerSpec(it == spec.params.end() ? std::string("csr")
                                                : DecodeInnerSpec(it->second));
}

std::vector<std::vector<Triplet>> BucketTripletsByShard(
    std::size_t rows, std::size_t per_shard, std::vector<Triplet> entries) {
  // The rebase below narrows shard-local rows to the u32 index space of
  // Triplet::row; a shard taller than that space would alias rows
  // silently, so oversized shards are rejected here by name.
  GCM_CHECK_MSG(per_shard <= std::numeric_limits<u32>::max(),
                "rows_per_shard " << per_shard
                                  << " exceeds the u32 row index space of a "
                                     "shard ("
                                  << std::numeric_limits<u32>::max()
                                  << "); use more shards");
  std::size_t shard_count = (rows + per_shard - 1) / per_shard;
  std::vector<std::vector<Triplet>> buckets(shard_count);
  for (const Triplet& t : entries) {
    GCM_CHECK_MSG(t.row < rows, "triplet row " << t.row
                                               << " outside the declared "
                                               << rows << " rows");
    Triplet rebased = t;
    std::size_t shard = t.row / per_shard;
    rebased.row = static_cast<u32>(t.row - shard * per_shard);
    buckets[shard].push_back(rebased);
  }
  return buckets;
}

namespace {

/// Builds an in-memory sharded matrix per the spec's inner spec and
/// sharding policy (row slices of `dense`).
AnyMatrix BuildShardedFromSpec(const DenseMatrix& dense,
                               const MatrixSpec& spec,
                               const BuildContext& ctx) {
  MatrixSpec inner = InnerSpecFromSharded(spec);
  std::size_t per_shard = ShardingPolicy::FromSpec(spec).ResolveRowsPerShard(
      dense.rows(), dense.cols());
  std::size_t shard_count = (dense.rows() + per_shard - 1) / per_shard;
  // Shards are independent builds over disjoint row slices; run them on
  // the pool, forwarding ctx so a blocked inner spec can fan out too
  // (ParallelFor is nesting-safe). Each task writes only its own slot, so
  // the assembled matrix is identical to the sequential build.
  std::vector<AnyMatrix> shards(shard_count);
  MaybeParallelFor(ctx.pool, shard_count, [&](std::size_t i) {
    std::size_t begin = i * per_shard;
    std::size_t end = std::min(dense.rows(), begin + per_shard);
    shards[i] = AnyMatrix::Build(dense.RowSlice(begin, end), inner, ctx);
  });
  return AnyMatrix(ShardedMatrix::FromShards(dense.cols(), std::move(shards)));
}

/// Dense-free ingestion: triplets are bucketed by row range and each
/// bucket feeds the inner spec's own triplet pipeline (shard-parallel on
/// the BuildContext pool, like BuildShardedFromSpec).
AnyMatrix BuildShardedFromTriplets(std::size_t rows, std::size_t cols,
                                   std::vector<Triplet> entries,
                                   const MatrixSpec& spec,
                                   const BuildContext& ctx) {
  MatrixSpec inner = InnerSpecFromSharded(spec);
  std::size_t per_shard =
      ShardingPolicy::FromSpec(spec).ResolveRowsPerShard(rows, cols);
  std::vector<std::vector<Triplet>> buckets =
      BucketTripletsByShard(rows, per_shard, std::move(entries));
  // Each task consumes its own bucket and writes its own slot (the buckets
  // are disjoint by construction), so the shard builds parallelize without
  // any synchronization beyond the ParallelFor barrier.
  std::vector<AnyMatrix> shards(buckets.size());
  MaybeParallelFor(ctx.pool, buckets.size(), [&](std::size_t i) {
    std::size_t begin = i * per_shard;
    std::size_t shard_rows = std::min(rows - begin, per_shard);
    shards[i] =
        AnyMatrix::Build(shard_rows, cols, std::move(buckets[i]), inner, ctx);
  });
  return AnyMatrix(ShardedMatrix::FromShards(cols, std::move(shards)));
}

/// Restores a sharded matrix from a snapshot: the single-file form loads
/// its embedded shard sections; a store manifest resolves shard files
/// relative to `origin_path` (empty origin -> gcm::Error, the bytes alone
/// cannot locate sibling files) and opens them lazily.
AnyMatrix LoadShardedFromSnapshot(const SnapshotReader& in,
                                  const MatrixSpec& spec,
                                  const std::string& origin_path) {
  ShardManifest manifest = ShardManifest::FromSnapshot(in);
  std::size_t declared = spec.GetSize("shards", manifest.shards.size());
  GCM_CHECK_MSG(declared == manifest.shards.size(),
                "snapshot spec declares " << declared
                                          << " shards but the manifest holds "
                                          << manifest.shards.size());
  if (in.HasSection(ShardSectionName(0))) {
    // Single-file form: every shard snapshot is embedded as a section.
    std::vector<AnyMatrix> shards;
    shards.reserve(manifest.shards.size());
    for (std::size_t i = 0; i < manifest.shards.size(); ++i) {
      std::string section = ShardSectionName(i);
      // The embedded container is parsed in place: FromSpan views the
      // outer reader's bytes and shares its backing, so a mapped
      // single-file snapshot never copies a shard -- each loaded handle
      // retains the outer mapping (or heap buffer) instead.
      std::span<const u8> bytes = in.SectionSpan(section);
      try {
        CheckShardBytes(bytes, manifest.shards[i], "section \"" + section +
                                                       '"');
        AnyMatrix shard = AnyMatrix::LoadSnapshot(
            SnapshotReader::FromSpan(bytes, in.backing()));
        CheckLoadedShard(shard, manifest.shards[i], manifest.cols,
                         "section \"" + section + '"');
        shards.push_back(std::move(shard));
      } catch (const Error& e) {
        throw Error("snapshot section \"" + section +
                    "\" is corrupt: " + e.what());
      }
    }
    return AnyMatrix(
        ShardedMatrix::FromShards(manifest.cols, std::move(shards)));
  }
  // Store-manifest form: shard snapshots are sibling files.
  if (origin_path.empty()) {
    throw Error(
        "this sharded snapshot is a store manifest referencing sibling "
        "shard files; load it from its file path (AnyMatrix::Load or "
        "MatrixStore::Open), not from a byte buffer");
  }
  std::string dir = std::filesystem::path(origin_path).parent_path().string();
  return AnyMatrix(ShardedMatrix::FromManifest(std::move(manifest), dir,
                                               ShardLoadMode::kLazy));
}

}  // namespace

SpecFamily ShardedSpecFamily() {
  return {"sharded",
          {},
          {"inner", "rows_per_shard", "shards", "target_bytes"},
          &BuildShardedFromSpec,
          &BuildShardedFromTriplets,
          &LoadShardedFromSnapshot};
}

}  // namespace gcm
