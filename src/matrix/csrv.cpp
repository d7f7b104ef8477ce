#include "matrix/csrv.hpp"

#include <algorithm>

#include "encoding/byte_stream.hpp"
#include "matrix/csr.hpp"
#include "util/check.hpp"
#include "util/fast_div.hpp"

namespace gcm {

std::vector<u32> BuildCsrvSequence(const DenseMatrix& dense,
                                   std::size_t row_begin, std::size_t row_end,
                                   const std::vector<double>& dictionary,
                                   const std::vector<u32>* traversal_order) {
  GCM_CHECK_MSG(row_begin <= row_end && row_end <= dense.rows(),
                "invalid row range");
  // The u32 symbol space must fit 1 + |V|*m values.
  u64 alphabet = 1 + static_cast<u64>(dictionary.size()) * dense.cols();
  GCM_CHECK_MSG(alphabet <= 0xffffffffULL,
                "CSRV alphabet overflow: |V|*cols = "
                    << alphabet << " does not fit in 32 bits");

  std::vector<u32> order;
  if (traversal_order != nullptr) {
    GCM_CHECK_MSG(traversal_order->size() == dense.cols(),
                  "traversal order length mismatch");
    order = *traversal_order;
  } else {
    order.resize(dense.cols());
    for (std::size_t j = 0; j < dense.cols(); ++j) {
      order[j] = static_cast<u32>(j);
    }
  }

  std::vector<u32> sequence;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    for (u32 j : order) {
      double v = dense.At(r, j);
      if (v == 0.0) continue;
      auto it = std::lower_bound(dictionary.begin(), dictionary.end(), v);
      GCM_CHECK_MSG(it != dictionary.end() && *it == v,
                    "value missing from CSRV dictionary");
      u32 value_id = static_cast<u32>(it - dictionary.begin());
      sequence.push_back(EncodeCsrvPair(value_id, j, dense.cols()));
    }
    sequence.push_back(kCsrvSentinel);
  }
  return sequence;
}

CsrvMatrix CsrvMatrix::FromDense(const DenseMatrix& dense,
                                 const std::vector<u32>* traversal_order) {
  CsrvMatrix csrv;
  csrv.rows_ = dense.rows();
  csrv.cols_ = dense.cols();
  std::vector<double> dictionary = BuildValueDictionary(dense);
  csrv.sequence_ = BuildCsrvSequence(dense, 0, dense.rows(), dictionary,
                                     traversal_order);
  csrv.dictionary_ = std::move(dictionary);
  return csrv;
}

CsrvMatrix CsrvMatrix::FromParts(std::size_t rows, std::size_t cols,
                                 ArrayRef<double> dictionary,
                                 ArrayRef<u32> sequence) {
  CsrvMatrix csrv;
  csrv.rows_ = rows;
  csrv.cols_ = cols;
  csrv.dictionary_ = std::move(dictionary);
  csrv.sequence_ = std::move(sequence);
  csrv.Validate();
  return csrv;
}

void CsrvMatrix::Validate() const {
  GCM_CHECK_MSG(cols_ > 0 || sequence_.empty(), "CSRV with zero columns");
  std::size_t sentinels = 0;
  for (u32 symbol : sequence_) {
    if (symbol == kCsrvSentinel) {
      ++sentinels;
      continue;
    }
    CsrvSymbol decoded = DecodeCsrvSymbol(symbol, cols_);
    GCM_CHECK_MSG(decoded.value_id < dictionary_.size(),
                  "CSRV symbol references value id "
                      << decoded.value_id << " outside dictionary of size "
                      << dictionary_.size());
  }
  GCM_CHECK_MSG(sentinels == rows_, "CSRV has " << sentinels
                                                << " sentinels for " << rows_
                                                << " rows");
}

void CsrvMatrix::MultiplyRightInto(std::span<const double> x,
                                   std::span<double> y) const {
  GCM_CHECK_MSG(x.size() == cols_, "MultiplyRight: wrong vector length");
  GCM_CHECK_MSG(y.size() == rows_, "MultiplyRight: wrong output length");
  // Validate() bounds every decoded value id and counts exactly rows_
  // sentinels; the row walk re-asserts per element in debug builds since a
  // malformed sequence here reads out of bounds silently. The magic
  // divisor replaces the per-symbol hardware divide (exact, so decoding
  // is bitwise unchanged); an empty sequence skips the loop, so the
  // zero-column placeholder divisor is never consulted.
  const u32 cols = static_cast<u32>(cols_);
  const U32Divisor by_cols(cols == 0 ? 1u : cols);
  std::size_t row = 0;
  double acc = 0.0;
  for (u32 symbol : sequence_) {
    if (symbol == kCsrvSentinel) {
      GCM_DCHECK_BOUNDS(row, rows_);
      y[row++] = acc;
      acc = 0.0;
      continue;
    }
    u32 packed = symbol - 1;
    u32 value_id = by_cols.Divide(packed);
    u32 column = packed - value_id * cols;
    GCM_DCHECK_BOUNDS(value_id, dictionary_.size());
    acc += dictionary_[value_id] * x[column];
  }
}

void CsrvMatrix::MultiplyLeftInto(std::span<const double> y,
                                  std::span<double> x) const {
  GCM_CHECK_MSG(y.size() == rows_, "MultiplyLeft: wrong vector length");
  GCM_CHECK_MSG(x.size() == cols_, "MultiplyLeft: wrong output length");
  std::fill(x.begin(), x.end(), 0.0);
  const u32 cols = static_cast<u32>(cols_);
  const U32Divisor by_cols(cols == 0 ? 1u : cols);
  std::size_t row = 0;
  for (u32 symbol : sequence_) {
    if (symbol == kCsrvSentinel) {
      ++row;
      continue;
    }
    u32 packed = symbol - 1;
    u32 value_id = by_cols.Divide(packed);
    u32 column = packed - value_id * cols;
    GCM_DCHECK_BOUNDS(row, rows_);
    GCM_DCHECK_BOUNDS(value_id, dictionary_.size());
    x[column] += y[row] * dictionary_[value_id];
  }
}

DenseMatrix CsrvMatrix::ToDense() const {
  DenseMatrix dense(rows_, cols_);
  std::size_t row = 0;
  for (u32 symbol : sequence_) {
    if (symbol == kCsrvSentinel) {
      ++row;
      continue;
    }
    CsrvSymbol decoded = DecodeCsrvSymbol(symbol, cols_);
    dense.Set(row, decoded.column, dictionary_[decoded.value_id]);
  }
  return dense;
}

std::vector<CsrvMatrix> CsrvMatrix::SplitRowBlocks(std::size_t blocks) const {
  GCM_CHECK_MSG(blocks >= 1, "block count must be positive");
  std::size_t rows_per_block = (rows_ + blocks - 1) / blocks;
  if (rows_per_block == 0) rows_per_block = 1;

  std::vector<CsrvMatrix> out;
  std::size_t row = 0;
  std::size_t begin = 0;  // sequence index where the current block starts
  std::size_t rows_in_block = 0;
  for (std::size_t i = 0; i < sequence_.size(); ++i) {
    if (sequence_[i] != kCsrvSentinel) continue;
    ++row;
    ++rows_in_block;
    bool block_full = rows_in_block == rows_per_block;
    bool last_row = row == rows_;
    if (!block_full && !last_row) continue;
    CsrvMatrix block;
    block.rows_ = rows_in_block;
    block.cols_ = cols_;
    block.dictionary_ = dictionary_;  // shared content; see BlockedGcMatrix
    // Iterator arithmetic takes a signed difference_type; both offsets are
    // bounded by sequence_.size(), so the casts cannot overflow.
    block.sequence_ = std::vector<u32>(sequence_.begin() + begin,
                                       sequence_.begin() + (i + 1));
    out.push_back(std::move(block));
    begin = i + 1;
    rows_in_block = 0;
  }
  return out;
}

void CsrvMatrix::SerializeInto(ByteWriter* writer) const {
  writer->PutVarint(rows_);
  writer->PutVarint(cols_);
  writer->PutArray(dictionary_);
  writer->PutArray(sequence_);
}

CsrvMatrix CsrvMatrix::DeserializeFrom(ByteReader* reader) {
  std::size_t rows = reader->GetVarint();
  std::size_t cols = reader->GetVarint();
  ArrayRef<double> dictionary = reader->GetArray<double>();
  ArrayRef<u32> sequence = reader->GetArray<u32>();
  return FromParts(rows, cols, std::move(dictionary), std::move(sequence));
}

}  // namespace gcm
