#include "matrix/csr.hpp"

#include <algorithm>

#include "encoding/byte_stream.hpp"
#include "util/check.hpp"

namespace gcm {

std::vector<double> BuildValueDictionary(const DenseMatrix& dense) {
  std::vector<double> values;
  values.reserve(dense.data().size());
  for (double v : dense.data()) {
    if (v != 0.0) values.push_back(v);
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  values.shrink_to_fit();  // the reserve() above was sized for all non-zeros
  return values;
}

CsrMatrix CsrMatrix::FromDense(const DenseMatrix& dense) {
  CsrMatrix csr;
  csr.rows_ = dense.rows();
  csr.cols_ = dense.cols();
  std::vector<double> nz;
  std::vector<u32> idx;
  std::vector<u32> first;
  first.reserve(dense.rows() + 1);
  first.push_back(0);
  for (std::size_t r = 0; r < dense.rows(); ++r) {
    for (std::size_t c = 0; c < dense.cols(); ++c) {
      double v = dense.At(r, c);
      if (v == 0.0) continue;
      nz.push_back(v);
      idx.push_back(static_cast<u32>(c));
    }
    first.push_back(static_cast<u32>(nz.size()));
  }
  csr.nz_ = std::move(nz);
  csr.idx_ = std::move(idx);
  csr.first_ = std::move(first);
  return csr;
}

CsrMatrix CsrMatrix::FromParts(std::size_t rows, std::size_t cols,
                               ArrayRef<double> nz, ArrayRef<u32> idx,
                               ArrayRef<u32> first) {
  GCM_CHECK_MSG(first.size() == rows + 1, "CSR offsets must have rows+1");
  GCM_CHECK_MSG(first.front() == 0 && first.back() == nz.size(),
                "CSR offsets must span the value array");
  GCM_CHECK_MSG(nz.size() == idx.size(), "CSR value/index length mismatch");
  for (std::size_t r = 0; r < rows; ++r) {
    GCM_CHECK_MSG(first[r] <= first[r + 1], "CSR offsets must be monotone");
  }
  for (u32 c : idx) {
    GCM_CHECK_MSG(c < cols, "CSR column index out of range");
  }
  CsrMatrix csr;
  csr.rows_ = rows;
  csr.cols_ = cols;
  csr.nz_ = std::move(nz);
  csr.idx_ = std::move(idx);
  csr.first_ = std::move(first);
  return csr;
}

void CsrMatrix::MultiplyRightInto(std::span<const double> x,
                                  std::span<double> y) const {
  GCM_CHECK(x.size() == cols_);
  GCM_CHECK(y.size() == rows_);
  // FromParts/FromDense guarantee monotone offsets ending at nz_.size()
  // and in-range column ids; the row walk re-asserts both in debug builds
  // because an out-of-contract offset here is silent UB.
  GCM_DCHECK(first_.size() == rows_ + 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    GCM_DCHECK(first_[r + 1] <= nz_.size());
    for (u32 k = first_[r]; k < first_[r + 1]; ++k) {
      GCM_DCHECK_BOUNDS(idx_[k], cols_);
      acc += nz_[k] * x[idx_[k]];
    }
    y[r] = acc;
  }
}

void CsrMatrix::MultiplyLeftInto(std::span<const double> y,
                                 std::span<double> x) const {
  GCM_CHECK(y.size() == rows_);
  GCM_CHECK(x.size() == cols_);
  GCM_DCHECK(first_.size() == rows_ + 1);
  std::fill(x.begin(), x.end(), 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double scale = y[r];
    if (scale == 0.0) continue;
    GCM_DCHECK(first_[r + 1] <= nz_.size());
    for (u32 k = first_[r]; k < first_[r + 1]; ++k) {
      GCM_DCHECK_BOUNDS(idx_[k], cols_);
      x[idx_[k]] += scale * nz_[k];
    }
  }
}

DenseMatrix CsrMatrix::ToDense() const {
  DenseMatrix dense(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (u32 k = first_[r]; k < first_[r + 1]; ++k) {
      dense.Set(r, idx_[k], nz_[k]);
    }
  }
  return dense;
}

CsrIvMatrix CsrIvMatrix::FromDense(const DenseMatrix& dense) {
  CsrIvMatrix csr;
  csr.rows_ = dense.rows();
  csr.cols_ = dense.cols();
  std::vector<double> dictionary = BuildValueDictionary(dense);
  std::vector<u32> value_ids;
  std::vector<u32> idx;
  std::vector<u32> first;
  first.reserve(dense.rows() + 1);
  first.push_back(0);
  for (std::size_t r = 0; r < dense.rows(); ++r) {
    for (std::size_t c = 0; c < dense.cols(); ++c) {
      double v = dense.At(r, c);
      if (v == 0.0) continue;
      auto it = std::lower_bound(dictionary.begin(), dictionary.end(), v);
      value_ids.push_back(static_cast<u32>(it - dictionary.begin()));
      idx.push_back(static_cast<u32>(c));
    }
    first.push_back(static_cast<u32>(value_ids.size()));
  }
  csr.dictionary_ = std::move(dictionary);
  csr.value_ids_ = std::move(value_ids);
  csr.idx_ = std::move(idx);
  csr.first_ = std::move(first);
  return csr;
}

void CsrIvMatrix::MultiplyRightInto(std::span<const double> x,
                                    std::span<double> y) const {
  GCM_CHECK(x.size() == cols_);
  GCM_CHECK(y.size() == rows_);
  GCM_DCHECK(first_.size() == rows_ + 1);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    GCM_DCHECK(first_[r + 1] <= value_ids_.size());
    for (u32 k = first_[r]; k < first_[r + 1]; ++k) {
      GCM_DCHECK_BOUNDS(value_ids_[k], dictionary_.size());
      GCM_DCHECK_BOUNDS(idx_[k], cols_);
      acc += dictionary_[value_ids_[k]] * x[idx_[k]];
    }
    y[r] = acc;
  }
}

void CsrIvMatrix::MultiplyLeftInto(std::span<const double> y,
                                   std::span<double> x) const {
  GCM_CHECK(y.size() == rows_);
  GCM_CHECK(x.size() == cols_);
  GCM_DCHECK(first_.size() == rows_ + 1);
  std::fill(x.begin(), x.end(), 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double scale = y[r];
    if (scale == 0.0) continue;
    GCM_DCHECK(first_[r + 1] <= value_ids_.size());
    for (u32 k = first_[r]; k < first_[r + 1]; ++k) {
      GCM_DCHECK_BOUNDS(value_ids_[k], dictionary_.size());
      GCM_DCHECK_BOUNDS(idx_[k], cols_);
      x[idx_[k]] += scale * dictionary_[value_ids_[k]];
    }
  }
}

DenseMatrix CsrIvMatrix::ToDense() const {
  DenseMatrix dense(rows_, cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (u32 k = first_[r]; k < first_[r + 1]; ++k) {
      dense.Set(r, idx_[k], dictionary_[value_ids_[k]]);
    }
  }
  return dense;
}

CsrIvMatrix CsrIvMatrix::FromParts(std::size_t rows, std::size_t cols,
                                   ArrayRef<u32> value_ids,
                                   ArrayRef<u32> idx,
                                   ArrayRef<u32> first,
                                   ArrayRef<double> dictionary) {
  GCM_CHECK_MSG(first.size() == rows + 1, "CSR-IV offsets must have rows+1");
  GCM_CHECK_MSG(first.front() == 0 && first.back() == value_ids.size(),
                "CSR-IV offsets must span the value-id array");
  GCM_CHECK_MSG(value_ids.size() == idx.size(),
                "CSR-IV value-id/index length mismatch");
  for (std::size_t r = 0; r < rows; ++r) {
    GCM_CHECK_MSG(first[r] <= first[r + 1],
                  "CSR-IV offsets must be monotone");
  }
  for (u32 c : idx) {
    GCM_CHECK_MSG(c < cols, "CSR-IV column index out of range");
  }
  for (u32 id : value_ids) {
    GCM_CHECK_MSG(id < dictionary.size(),
                  "CSR-IV value id " << id << " outside dictionary of "
                                     << dictionary.size());
  }
  CsrIvMatrix csr;
  csr.rows_ = rows;
  csr.cols_ = cols;
  csr.value_ids_ = std::move(value_ids);
  csr.idx_ = std::move(idx);
  csr.first_ = std::move(first);
  csr.dictionary_ = std::move(dictionary);
  return csr;
}

void CsrMatrix::SerializeInto(ByteWriter* writer) const {
  writer->PutVarint(rows_);
  writer->PutVarint(cols_);
  writer->PutArray(nz_);
  writer->PutArray(idx_);
  writer->PutArray(first_);
}

CsrMatrix CsrMatrix::DeserializeFrom(ByteReader* reader) {
  std::size_t rows = reader->GetVarint();
  std::size_t cols = reader->GetVarint();
  ArrayRef<double> nz = reader->GetArray<double>();
  ArrayRef<u32> idx = reader->GetArray<u32>();
  ArrayRef<u32> first = reader->GetArray<u32>();
  return FromParts(rows, cols, std::move(nz), std::move(idx),
                   std::move(first));
}

void CsrIvMatrix::SerializeInto(ByteWriter* writer) const {
  writer->PutVarint(rows_);
  writer->PutVarint(cols_);
  writer->PutArray(value_ids_);
  writer->PutArray(idx_);
  writer->PutArray(first_);
  writer->PutArray(dictionary_);
}

CsrIvMatrix CsrIvMatrix::DeserializeFrom(ByteReader* reader) {
  std::size_t rows = reader->GetVarint();
  std::size_t cols = reader->GetVarint();
  ArrayRef<u32> value_ids = reader->GetArray<u32>();
  ArrayRef<u32> idx = reader->GetArray<u32>();
  ArrayRef<u32> first = reader->GetArray<u32>();
  ArrayRef<double> dictionary = reader->GetArray<double>();
  return FromParts(rows, cols, std::move(value_ids), std::move(idx),
                   std::move(first), std::move(dictionary));
}

}  // namespace gcm
