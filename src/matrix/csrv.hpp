// Compressed Sparse Row/Value (CSRV) representation -- Section 2 of the
// paper, with the integer encoding of Section 4:
//
//   * V is the dictionary of distinct non-zero values;
//   * S is a u32 sequence read row by row: each non-zero M[r][j] = V[i]
//     contributes the symbol 1 + i*m + j, and every row is terminated by
//     the sentinel symbol 0 (the paper's `$`).
//
// The same value appearing in different columns yields different symbols;
// only equal values in the same column share a symbol. This is what lets a
// grammar compressor capture correlated column content.
//
// Column reordering (Section 5) is supported at build time through an
// optional traversal order: pairs are emitted in permuted column order but
// always carry the *original* column index, so no permutation has to be
// stored and multiplication results stay in original coordinates (footnote
// 2 of the paper).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "matrix/dense_matrix.hpp"
#include "util/array_ref.hpp"
#include "util/common.hpp"

namespace gcm {

class ByteReader;
class ByteWriter;

/// Sentinel encoding of `$` in the u32 alphabet.
constexpr u32 kCsrvSentinel = 0;

/// Decoded CSRV symbol: either the row sentinel or a (value id, column) pair.
struct CsrvSymbol {
  bool is_sentinel;
  u32 value_id;  ///< index into V (0-based); valid when !is_sentinel
  u32 column;    ///< 0-based column;        valid when !is_sentinel
};

/// Encodes a (value id, column) pair for a matrix with `cols` columns.
inline u32 EncodeCsrvPair(u32 value_id, u32 column, std::size_t cols) {
  return 1 + value_id * static_cast<u32>(cols) + column;
}

/// Decodes a CSRV symbol for a matrix with `cols` columns.
inline CsrvSymbol DecodeCsrvSymbol(u32 symbol, std::size_t cols) {
  if (symbol == kCsrvSentinel) return {true, 0, 0};
  u32 packed = symbol - 1;
  return {false, packed / static_cast<u32>(cols),
          packed % static_cast<u32>(cols)};
}

/// Builds the CSRV symbol sequence for rows [row_begin, row_end) of `dense`
/// against an externally built dictionary (must contain every non-zero of
/// the range). If `traversal_order` is non-null, non-zeros of each row are
/// emitted in that column order; pairs always carry original column ids.
std::vector<u32> BuildCsrvSequence(const DenseMatrix& dense,
                                   std::size_t row_begin, std::size_t row_end,
                                   const std::vector<double>& dictionary,
                                   const std::vector<u32>* traversal_order);

class CsrvMatrix {
 public:
  /// Builds the CSRV representation of `dense`. If `traversal_order` is
  /// given (a permutation of [0, cols)), the non-zeros of each row are
  /// emitted in that column order.
  static CsrvMatrix FromDense(
      const DenseMatrix& dense,
      const std::vector<u32>* traversal_order = nullptr);

  /// Assembles directly from parts (deserialization, tests). Accepts
  /// owned vectors or borrowed snapshot views.
  static CsrvMatrix FromParts(std::size_t rows, std::size_t cols,
                              ArrayRef<double> dictionary,
                              ArrayRef<u32> sequence);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros() const { return sequence_.size() - rows_; }

  const ArrayRef<u32>& sequence() const { return sequence_; }
  const ArrayRef<double>& dictionary() const { return dictionary_; }

  /// 4|S| + 8|V| bytes, the paper's `csrv` size.
  u64 SizeInBytes() const {
    return sequence_.size() * sizeof(u32) +
           dictionary_.size() * sizeof(double);
  }

  /// y = M x and x^t = y^t M, each by a single scan of S (Section 2).
  /// Allocation-free: the caller-provided output is fully overwritten
  /// (see DenseMatrix for the contract).
  void MultiplyRightInto(std::span<const double> x,
                         std::span<double> y) const;
  void MultiplyLeftInto(std::span<const double> y, std::span<double> x) const;

  DenseMatrix ToDense() const;

  /// Splits the sequence into `blocks` row blocks of ceil(rows/blocks) rows
  /// each (Section 4.1); the dictionary is shared. Returns one CsrvMatrix
  /// per non-empty block.
  std::vector<CsrvMatrix> SplitRowBlocks(std::size_t blocks) const;

  /// Validates structural invariants (sentinel count == rows, symbols in
  /// range); throws gcm::Error on violation.
  void Validate() const;

  /// Snapshot payload: dims + dictionary + sequence, restored through
  /// FromParts (which runs Validate on the decoded arrays).
  void SerializeInto(ByteWriter* writer) const;
  static CsrvMatrix DeserializeFrom(ByteReader* reader);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  ArrayRef<double> dictionary_;
  ArrayRef<u32> sequence_;
};

}  // namespace gcm
