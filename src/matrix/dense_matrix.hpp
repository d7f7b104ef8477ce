// Row-major dense matrix of doubles.
//
// This is the reference representation: the paper expresses all compression
// ratios as a percentage of the dense footprint rows*cols*8 bytes, and every
// compressed-MVM kernel in this code base is tested against DenseMatrix's
// straightforward multiplication routines.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/array_ref.hpp"
#include "util/check.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace gcm {

class ByteReader;
class ByteWriter;

class DenseMatrix {
 public:
  DenseMatrix() = default;

  /// Zero matrix with `rows` x `cols` entries.
  DenseMatrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols),
        data_(std::vector<double>(rows * cols, 0.0)) {}

  /// Builds from a row-major initializer payload; data.size() must equal
  /// rows*cols. Accepts an owned vector or a borrowed snapshot view.
  DenseMatrix(std::size_t rows, std::size_t cols, ArrayRef<double> data);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double At(std::size_t r, std::size_t c) const {
    GCM_DCHECK_BOUNDS(r, rows_);
    GCM_DCHECK_BOUNDS(c, cols_);
    return data_[r * cols_ + c];
  }
  void Set(std::size_t r, std::size_t c, double v) {
    GCM_DCHECK_BOUNDS(r, rows_);
    GCM_DCHECK_BOUNDS(c, cols_);
    data_.EnsureOwned()[r * cols_ + c] = v;
  }

  /// Row-major payload; borrowed (a view over a mapped snapshot) when the
  /// matrix came from a zero-copy load, owned otherwise.
  const ArrayRef<double>& data() const { return data_; }

  /// Bytes of the uncompressed full representation (rows*cols*8); the
  /// denominator of every compression ratio in the paper.
  u64 UncompressedBytes() const {
    return static_cast<u64>(rows_) * cols_ * sizeof(double);
  }

  std::size_t CountNonZeros() const;

  /// y = M x  (x has cols() entries, result has rows() entries).
  std::vector<double> MultiplyRight(const std::vector<double>& x) const;

  /// x^t = y^t M  (y has rows() entries, result has cols() entries).
  std::vector<double> MultiplyLeft(const std::vector<double>& y) const;

  /// Allocation-free kernels: the caller provides the output span, which is
  /// fully overwritten (x: cols() entries, y: rows() entries; x and y must
  /// not alias).
  void MultiplyRightInto(std::span<const double> x,
                         std::span<double> y) const;
  void MultiplyLeftInto(std::span<const double> y, std::span<double> x) const;

  DenseMatrix Transposed() const;

  /// Returns a copy whose columns are permuted: column j of the result is
  /// column perm[j] of *this.
  DenseMatrix WithColumnOrder(const std::vector<u32>& perm) const;

  /// Copy of rows [begin, end).
  DenseMatrix RowSlice(std::size_t begin, std::size_t end) const;

  /// Uniformly random matrix with the given non-zero density and
  /// `distinct_values` distinct non-zero values (0 = fully continuous).
  static DenseMatrix Random(std::size_t rows, std::size_t cols,
                            double density, std::size_t distinct_values,
                            Rng* rng);

  /// Snapshot payload: dims + row-major doubles. DeserializeFrom validates
  /// the payload length against the dimensions (gcm::Error on mismatch).
  void SerializeInto(ByteWriter* writer) const;
  static DenseMatrix DeserializeFrom(ByteReader* reader);

  bool operator==(const DenseMatrix& other) const = default;

  /// Max absolute elementwise difference (for approximate comparisons).
  static double MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  ArrayRef<double> data_;
};

/// Max absolute componentwise difference of two equal-length vectors.
double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b);

/// Infinity norm of a vector (paper Eq. 4 normalizes by this).
double InfinityNorm(const std::vector<double>& v);

}  // namespace gcm
