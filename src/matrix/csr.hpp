// Classical Compressed Sparse Row (CSR) and its indexed-value variant
// (CSR-IV, Kourtis et al.), included as comparison substrates (Section 2 of
// the paper discusses both as the starting point for CSRV).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "matrix/dense_matrix.hpp"
#include "util/array_ref.hpp"
#include "util/common.hpp"

namespace gcm {

class ByteReader;
class ByteWriter;

/// CSR: nz (values row-by-row), idx (column of each value), first (prefix
/// counts per row; length rows+1 here, the usual offset convention).
class CsrMatrix {
 public:
  static CsrMatrix FromDense(const DenseMatrix& dense);

  /// Assembles from prebuilt arrays (sparse ingestion or zero-copy
  /// deserialization); first must have rows+1 monotone offsets ending at
  /// nz.size().
  static CsrMatrix FromParts(std::size_t rows, std::size_t cols,
                             ArrayRef<double> nz, ArrayRef<u32> idx,
                             ArrayRef<u32> first);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros() const { return nz_.size(); }

  /// Allocation-free kernels; the caller-provided output is fully
  /// overwritten (see DenseMatrix for the contract).
  void MultiplyRightInto(std::span<const double> x,
                         std::span<double> y) const;
  void MultiplyLeftInto(std::span<const double> y, std::span<double> x) const;

  DenseMatrix ToDense() const;

  /// 8 bytes per value + 4 per column index + 4 per row offset.
  u64 SizeInBytes() const {
    return nz_.size() * sizeof(double) + idx_.size() * sizeof(u32) +
           first_.size() * sizeof(u32);
  }

  const ArrayRef<double>& nz() const { return nz_; }
  const ArrayRef<u32>& idx() const { return idx_; }
  const ArrayRef<u32>& first() const { return first_; }

  /// Snapshot payload: dims + the three CSR arrays. DeserializeFrom routes
  /// through FromParts, so a corrupt payload fails its structural checks.
  void SerializeInto(ByteWriter* writer) const;
  static CsrMatrix DeserializeFrom(ByteReader* reader);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  ArrayRef<double> nz_;
  ArrayRef<u32> idx_;
  ArrayRef<u32> first_;
};

/// CSR-IV: like CSR but nz holds indices into a dictionary V of distinct
/// non-zero values; pays off when the dictionary is small.
class CsrIvMatrix {
 public:
  static CsrIvMatrix FromDense(const DenseMatrix& dense);

  /// Assembles from prebuilt arrays (deserialization); validates the same
  /// offset/index invariants as CsrMatrix::FromParts plus value-id range.
  static CsrIvMatrix FromParts(std::size_t rows, std::size_t cols,
                               ArrayRef<u32> value_ids,
                               ArrayRef<u32> idx, ArrayRef<u32> first,
                               ArrayRef<double> dictionary);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros() const { return value_ids_.size(); }
  std::size_t distinct_values() const { return dictionary_.size(); }

  /// Allocation-free kernels; the caller-provided output is fully
  /// overwritten (see DenseMatrix for the contract).
  void MultiplyRightInto(std::span<const double> x,
                         std::span<double> y) const;
  void MultiplyLeftInto(std::span<const double> y, std::span<double> x) const;

  DenseMatrix ToDense() const;

  /// 4 bytes per value id + 4 per column index + 4 per row offset + 8 per
  /// dictionary entry.
  u64 SizeInBytes() const {
    return value_ids_.size() * sizeof(u32) + idx_.size() * sizeof(u32) +
           first_.size() * sizeof(u32) + dictionary_.size() * sizeof(double);
  }

  const ArrayRef<double>& dictionary() const { return dictionary_; }
  const ArrayRef<u32>& value_ids() const { return value_ids_; }
  const ArrayRef<u32>& idx() const { return idx_; }
  const ArrayRef<u32>& first() const { return first_; }

  /// Snapshot payload: dims + the four CSR-IV arrays, restored via
  /// FromParts.
  void SerializeInto(ByteWriter* writer) const;
  static CsrIvMatrix DeserializeFrom(ByteReader* reader);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  ArrayRef<u32> value_ids_;
  ArrayRef<u32> idx_;
  ArrayRef<u32> first_;
  ArrayRef<double> dictionary_;
};

/// Builds the sorted dictionary of distinct non-zero values of a dense
/// matrix; shared by CSR-IV and CSRV construction.
std::vector<double> BuildValueDictionary(const DenseMatrix& dense);

}  // namespace gcm
