// Native reimplementation of Compressed Linear Algebra (CLA), the paper's
// state-of-the-art comparator (Elgohary et al., VLDB J. 2018 / CACM 2019).
//
// CLA compresses a matrix as a set of *column groups*. Correlated columns
// are co-coded into one group whose per-row value tuples come from a small
// dictionary; each group is stored with the cheapest of four encodings:
//
//   * UC   -- uncompressed dense columns (fallback for incompressible data)
//   * DDC  -- dense dictionary coding: one dictionary id per row
//             (1/2/4-byte ids depending on dictionary size)
//   * RLE  -- run-length encoding of consecutive equal non-zero tuples
//   * OLE  -- offset-list encoding: for every non-zero tuple, the sorted
//             list of rows where it occurs (all-zero tuples are implicit)
//
// Matrix-vector products run directly on the compressed groups using CLA's
// pre-aggregation trick: for y = Mx, each distinct tuple's dot product with
// the group slice of x is computed once and then scattered to rows; for
// x^t = y^t M, row weights are first aggregated per tuple and the tuple
// values are scaled once.
//
// The compression planner mirrors CLA's sampling-based design: candidate
// grouping decisions are taken from size estimates on a row sample
// (greedy first-fit co-coding), and the final encoding per group is chosen
// by exact size on the full data. The original system additionally
// re-partitions rows for cache locality inside SystemDS; our driver gets
// the same effect from the shared ThreadPool row-group parallelism.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "matrix/dense_matrix.hpp"
#include "util/array_ref.hpp"
#include "util/common.hpp"
#include "util/thread_pool.hpp"

namespace gcm {

class ByteReader;
class ByteWriter;

enum class ClaEncoding { kUc, kDdc, kRle, kOle };

const char* ClaEncodingName(ClaEncoding encoding);

/// Inverse of ClaEncodingName; the round trip name -> enum -> name is
/// total. Throws std::invalid_argument naming the offending string on a
/// miss.
ClaEncoding ClaEncodingByName(const std::string& name);

struct ClaOptions {
  bool co_code = true;           ///< enable column grouping (ablation knob)
  std::size_t sample_rows = 4096;  ///< planner sample size
  std::size_t max_group_size = 8;  ///< cap on columns per group
  std::size_t max_candidates = 48;  ///< groups probed per first-fit insert
};

class ClaMatrix {
 public:
  static ClaMatrix Compress(const DenseMatrix& dense,
                            const ClaOptions& options = {});

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t group_count() const { return groups_.size(); }

  /// Encoding chosen for group g (tests / introspection).
  ClaEncoding group_encoding(std::size_t g) const {
    return groups_[g].encoding;
  }
  const ArrayRef<u32>& group_columns(std::size_t g) const {
    return groups_[g].columns;
  }

  u64 CompressedBytes() const;

  /// Allocation-free kernels; the caller-provided output is fully
  /// overwritten. The pooled right-multiplication still allocates one
  /// partial vector per group (groups scatter to overlapping rows).
  void MultiplyRightInto(std::span<const double> x, std::span<double> y,
                         ThreadPool* pool = nullptr) const;
  void MultiplyLeftInto(std::span<const double> y, std::span<double> x,
                        ThreadPool* pool = nullptr) const;

  DenseMatrix ToDense() const;

  /// Human-readable per-group summary (encoding, #cols, #tuples, bytes).
  std::string PlanSummary() const;

  /// Snapshot payload: dims + every column group with its encoding-specific
  /// arrays. DeserializeFrom validates group structure (column/tuple/row
  /// ranges, offset monotonicity) so corrupt payloads fail loudly.
  void SerializeInto(ByteWriter* writer) const;
  static ClaMatrix DeserializeFrom(ByteReader* reader);

 private:
  // Group payload arrays are ArrayRefs so a snapshot loaded from a mapping
  // borrows them in place (see util/array_ref.hpp); Compress builds local
  // vectors and moves them in.
  struct Group {
    ArrayRef<u32> columns;
    ClaEncoding encoding = ClaEncoding::kUc;
    // Dictionary of distinct non-zero tuples, row-major
    // (tuple t occupies values[t*g .. t*g+g)). Unused for UC.
    ArrayRef<double> dictionary;
    std::size_t tuple_count = 0;

    // DDC: one id per row; id == tuple_count means the all-zero tuple.
    ArrayRef<u32> ddc_ids;
    // RLE: runs of equal non-zero tuples. The flat triple layout is what
    // the snapshot stores, so runs deserialize as one borrowable array.
    struct Run {
      u32 start;
      u32 length;
      u32 tuple;
    };
    ArrayRef<Run> rle_runs;
    // OLE: concatenated row lists per tuple; ole_offsets[t] .. [t+1] index
    // into ole_rows.
    ArrayRef<u32> ole_offsets;
    ArrayRef<u32> ole_rows;
    // UC: dense column-major payload (g columns * rows).
    ArrayRef<double> uc_values;

    u64 SizeInBytes() const;
  };

  void MultiplyRightGroup(const Group& group, std::span<const double> x,
                          std::span<double> y) const;
  void MultiplyLeftGroup(const Group& group, std::span<const double> y,
                         std::span<double> x) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Group> groups_;
};

}  // namespace gcm
