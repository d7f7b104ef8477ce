#include "baselines/cla/cla_matrix.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <unordered_map>

#include "encoding/byte_stream.hpp"
#include "util/enum_names.hpp"
#include "util/partials.hpp"

namespace gcm {
namespace {

/// Bytes per dictionary id for a dictionary of `tuples` entries (DDC1/2/4
/// in CLA terms). +1 leaves room for the implicit all-zero tuple id.
u64 IdBytes(std::size_t tuples) {
  if (tuples + 1 <= 0xff) return 1;
  if (tuples + 1 <= 0xffff) return 2;
  return 4;
}

/// Hash key for a tuple of doubles (bitwise; distinguishes -0.0 from 0.0,
/// which is fine for dictionary purposes).
struct TupleKey {
  std::string bytes;
  bool operator==(const TupleKey&) const = default;
};
struct TupleKeyHash {
  std::size_t operator()(const TupleKey& k) const {
    return std::hash<std::string>()(k.bytes);
  }
};

TupleKey MakeKey(const DenseMatrix& dense, std::size_t row,
                 const std::vector<u32>& columns) {
  TupleKey key;
  key.bytes.resize(columns.size() * sizeof(double));
  for (std::size_t c = 0; c < columns.size(); ++c) {
    double v = dense.At(row, columns[c]);
    std::memcpy(key.bytes.data() + c * sizeof(double), &v, sizeof(double));
  }
  return key;
}

bool IsZeroTuple(const TupleKey& key) {
  for (char byte : key.bytes) {
    if (byte != 0) return false;
  }
  return true;
}

/// Statistics of a candidate group gathered from a row range.
struct GroupStats {
  std::size_t distinct_nonzero = 0;  ///< distinct non-zero tuples
  std::size_t nonzero_rows = 0;      ///< rows with a non-zero tuple
  std::size_t runs = 0;              ///< maximal runs of equal nonzero tuples
};

GroupStats CollectStats(const DenseMatrix& dense,
                        const std::vector<u32>& columns, std::size_t rows) {
  GroupStats stats;
  std::unordered_map<TupleKey, u32, TupleKeyHash> dictionary;
  TupleKey previous;
  bool have_previous = false;
  for (std::size_t r = 0; r < rows; ++r) {
    TupleKey key = MakeKey(dense, r, columns);
    if (IsZeroTuple(key)) {
      have_previous = false;
      continue;
    }
    ++stats.nonzero_rows;
    if (!have_previous || !(key == previous)) ++stats.runs;
    dictionary.emplace(key, static_cast<u32>(dictionary.size()));
    previous = std::move(key);
    have_previous = true;
  }
  stats.distinct_nonzero = dictionary.size();
  return stats;
}

/// CLA size formulas (bytes) for each encoding given group stats; `g` is
/// the number of columns in the group, `rows` the row count the encoding
/// would cover.
struct SizeEstimates {
  u64 uc, ddc, rle, ole;
  u64 Best() const { return std::min(std::min(uc, ddc), std::min(rle, ole)); }
};

SizeEstimates EstimateSizes(const GroupStats& stats, std::size_t g,
                            std::size_t rows) {
  SizeEstimates est;
  u64 dict = static_cast<u64>(stats.distinct_nonzero) * g * sizeof(double);
  u64 id_bytes = IdBytes(stats.distinct_nonzero);
  est.uc = static_cast<u64>(rows) * g * sizeof(double);
  est.ddc = dict + static_cast<u64>(rows) * id_bytes;
  // One run = start (4) + length (4) + tuple id.
  est.rle = dict + static_cast<u64>(stats.runs) * (8 + id_bytes);
  // One offset (4 bytes) per non-zero row + one list header per tuple.
  est.ole = dict + static_cast<u64>(stats.nonzero_rows) * 4 +
            static_cast<u64>(stats.distinct_nonzero) * 4;
  return est;
}

}  // namespace

const char* ClaEncodingName(ClaEncoding encoding) {
  switch (encoding) {
    case ClaEncoding::kUc:
      return "UC";
    case ClaEncoding::kDdc:
      return "DDC";
    case ClaEncoding::kRle:
      return "RLE";
    case ClaEncoding::kOle:
      return "OLE";
  }
  return "?";
}

ClaEncoding ClaEncodingByName(const std::string& name) {
  return detail::EnumByName<ClaEncoding>(name, "CLA encoding",
                                         {{"UC", ClaEncoding::kUc},
                                          {"DDC", ClaEncoding::kDdc},
                                          {"RLE", ClaEncoding::kRle},
                                          {"OLE", ClaEncoding::kOle}});
}

u64 ClaMatrix::Group::SizeInBytes() const {
  u64 dict = dictionary.size() * sizeof(double);
  u64 column_ids = columns.size() * sizeof(u32);
  switch (encoding) {
    case ClaEncoding::kUc:
      return column_ids + uc_values.size() * sizeof(double);
    case ClaEncoding::kDdc:
      return column_ids + dict + ddc_ids.size() * IdBytes(tuple_count);
    case ClaEncoding::kRle:
      return column_ids + dict +
             rle_runs.size() * (8 + IdBytes(tuple_count));
    case ClaEncoding::kOle:
      return column_ids + dict + ole_rows.size() * 4 +
             (ole_offsets.empty() ? 0 : (ole_offsets.size() - 1) * 4);
  }
  return 0;
}

ClaMatrix ClaMatrix::Compress(const DenseMatrix& dense,
                              const ClaOptions& options) {
  ClaMatrix cla;
  cla.rows_ = dense.rows();
  cla.cols_ = dense.cols();
  const std::size_t sample =
      std::min(dense.rows(), std::max<std::size_t>(1, options.sample_rows));

  // ---- Planning: greedy first-fit co-coding on the sample. -------------
  std::vector<std::vector<u32>> plans;
  std::vector<u64> plan_size;  // estimated bytes (sample-extrapolated)
  auto estimate = [&](const std::vector<u32>& columns) -> u64 {
    GroupStats stats = CollectStats(dense, columns, sample);
    // Extrapolate counts linearly from the sample to the full row count;
    // distinct-tuple counts grow sublinearly, so this under-rewards DDC on
    // very large matrices, which matches CLA's conservative planning.
    double scale = static_cast<double>(dense.rows()) /
                   static_cast<double>(sample);
    GroupStats scaled = stats;
    scaled.nonzero_rows = static_cast<std::size_t>(
        static_cast<double>(stats.nonzero_rows) * scale);
    scaled.runs =
        static_cast<std::size_t>(static_cast<double>(stats.runs) * scale);
    return EstimateSizes(scaled, columns.size(), dense.rows()).Best();
  };
  for (u32 c = 0; c < dense.cols(); ++c) {
    std::vector<u32> single = {c};
    u64 single_size = estimate(single);
    bool placed = false;
    if (options.co_code) {
      // Try appending to the most recently created groups first (first-fit
      // with a bounded candidate window, as in CLA's greedy planner).
      std::size_t probes = 0;
      std::size_t best_group = plans.size();
      i64 best_gain = 0;
      u64 best_merged = 0;
      for (std::size_t g = plans.size(); g-- > 0;) {
        if (++probes > options.max_candidates) break;
        if (plans[g].size() >= options.max_group_size) continue;
        std::vector<u32> merged = plans[g];
        merged.push_back(c);
        u64 merged_size = estimate(merged);
        i64 gain = static_cast<i64>(plan_size[g] + single_size) -
                   static_cast<i64>(merged_size);
        if (gain > best_gain) {
          best_gain = gain;
          best_group = g;
          best_merged = merged_size;
        }
      }
      if (best_group != plans.size()) {
        plans[best_group].push_back(c);
        plan_size[best_group] = best_merged;
        placed = true;
      }
    }
    if (!placed) {
      plans.push_back(std::move(single));
      plan_size.push_back(single_size);
    }
  }

  // ---- Materialization: exact encodings on the full data. --------------
  for (const std::vector<u32>& columns : plans) {
    Group group;
    group.columns = columns;
    const std::size_t g = columns.size();

    std::unordered_map<TupleKey, u32, TupleKeyHash> dictionary;
    std::vector<u32> row_tuple(dense.rows());  // tuple id or kZero
    const u32 kZero = 0xffffffffu;
    for (std::size_t r = 0; r < dense.rows(); ++r) {
      TupleKey key = MakeKey(dense, r, columns);
      if (IsZeroTuple(key)) {
        row_tuple[r] = kZero;
        continue;
      }
      auto [it, inserted] =
          dictionary.emplace(std::move(key), static_cast<u32>(
                                                 dictionary.size()));
      row_tuple[r] = it->second;
    }
    group.tuple_count = dictionary.size();
    std::vector<double> dict_values(group.tuple_count * g);
    for (const auto& [key, id] : dictionary) {
      std::memcpy(dict_values.data() + static_cast<std::size_t>(id) * g,
                  key.bytes.data(), g * sizeof(double));
    }

    GroupStats stats;
    stats.distinct_nonzero = group.tuple_count;
    for (std::size_t r = 0; r < dense.rows(); ++r) {
      if (row_tuple[r] == kZero) continue;
      ++stats.nonzero_rows;
      if (r == 0 || row_tuple[r - 1] != row_tuple[r]) ++stats.runs;
    }
    SizeEstimates exact = EstimateSizes(stats, g, dense.rows());
    u64 best = exact.Best();
    if (best == exact.uc) {
      group.encoding = ClaEncoding::kUc;
      std::vector<double> uc_values(dense.rows() * g);
      for (std::size_t r = 0; r < dense.rows(); ++r) {
        for (std::size_t k = 0; k < g; ++k) {
          uc_values[r * g + k] = dense.At(r, columns[k]);
        }
      }
      group.uc_values = std::move(uc_values);
      dict_values.clear();
      group.tuple_count = 0;
    } else if (best == exact.ddc) {
      group.encoding = ClaEncoding::kDdc;
      std::vector<u32> ddc_ids(dense.rows());
      for (std::size_t r = 0; r < dense.rows(); ++r) {
        ddc_ids[r] = row_tuple[r] == kZero ? static_cast<u32>(group.tuple_count)
                                           : row_tuple[r];
      }
      group.ddc_ids = std::move(ddc_ids);
    } else if (best == exact.rle) {
      group.encoding = ClaEncoding::kRle;
      std::vector<Group::Run> rle_runs;
      for (std::size_t r = 0; r < dense.rows();) {
        if (row_tuple[r] == kZero) {
          ++r;
          continue;
        }
        std::size_t end = r + 1;
        while (end < dense.rows() && row_tuple[end] == row_tuple[r]) ++end;
        rle_runs.push_back({static_cast<u32>(r), static_cast<u32>(end - r),
                            row_tuple[r]});
        r = end;
      }
      group.rle_runs = std::move(rle_runs);
    } else {
      group.encoding = ClaEncoding::kOle;
      std::vector<std::vector<u32>> lists(group.tuple_count);
      for (std::size_t r = 0; r < dense.rows(); ++r) {
        if (row_tuple[r] != kZero) {
          lists[row_tuple[r]].push_back(static_cast<u32>(r));
        }
      }
      std::vector<u32> ole_offsets;
      std::vector<u32> ole_rows;
      ole_offsets.push_back(0);
      for (const auto& list : lists) {
        ole_rows.insert(ole_rows.end(), list.begin(), list.end());
        ole_offsets.push_back(static_cast<u32>(ole_rows.size()));
      }
      group.ole_offsets = std::move(ole_offsets);
      group.ole_rows = std::move(ole_rows);
    }
    group.dictionary = std::move(dict_values);
    cla.groups_.push_back(std::move(group));
  }
  return cla;
}

u64 ClaMatrix::CompressedBytes() const {
  u64 total = 0;
  for (const Group& group : groups_) total += group.SizeInBytes();
  return total;
}

void ClaMatrix::MultiplyRightGroup(const Group& group,
                                   std::span<const double> x,
                                   std::span<double> y) const {
  const std::size_t g = group.columns.size();
  // Pre-aggregation: dot product of every dictionary tuple with the group
  // slice of x, computed once (CLA's core MVM optimization).
  std::vector<double> tuple_dot(group.tuple_count, 0.0);
  for (std::size_t t = 0; t < group.tuple_count; ++t) {
    double acc = 0.0;
    const double* tuple = group.dictionary.data() + t * g;
    for (std::size_t k = 0; k < g; ++k) acc += tuple[k] * x[group.columns[k]];
    tuple_dot[t] = acc;
  }
  switch (group.encoding) {
    case ClaEncoding::kUc:
      for (std::size_t r = 0; r < rows_; ++r) {
        double acc = 0.0;
        const double* row = group.uc_values.data() + r * g;
        for (std::size_t k = 0; k < g; ++k) acc += row[k] * x[group.columns[k]];
        y[r] += acc;
      }
      break;
    case ClaEncoding::kDdc:
      for (std::size_t r = 0; r < rows_; ++r) {
        u32 id = group.ddc_ids[r];
        if (id < group.tuple_count) y[r] += tuple_dot[id];
      }
      break;
    case ClaEncoding::kRle:
      for (const Group::Run& run : group.rle_runs) {
        double v = tuple_dot[run.tuple];
        for (u32 r = run.start; r < run.start + run.length; ++r) {
          y[r] += v;
        }
      }
      break;
    case ClaEncoding::kOle:
      for (std::size_t t = 0; t < group.tuple_count; ++t) {
        double v = tuple_dot[t];
        for (u32 idx = group.ole_offsets[t]; idx < group.ole_offsets[t + 1];
             ++idx) {
          y[group.ole_rows[idx]] += v;
        }
      }
      break;
  }
}

void ClaMatrix::MultiplyLeftGroup(const Group& group,
                                  std::span<const double> y,
                                  std::span<double> x) const {
  const std::size_t g = group.columns.size();
  if (group.encoding == ClaEncoding::kUc) {
    for (std::size_t r = 0; r < rows_; ++r) {
      double scale = y[r];
      if (scale == 0.0) continue;
      const double* row = group.uc_values.data() + r * g;
      for (std::size_t k = 0; k < g; ++k) {
        x[group.columns[k]] += scale * row[k];
      }
    }
    return;
  }
  // Aggregate row weights per tuple first, then scale each tuple once.
  std::vector<double> tuple_weight(group.tuple_count, 0.0);
  switch (group.encoding) {
    case ClaEncoding::kDdc:
      for (std::size_t r = 0; r < rows_; ++r) {
        u32 id = group.ddc_ids[r];
        if (id < group.tuple_count) tuple_weight[id] += y[r];
      }
      break;
    case ClaEncoding::kRle:
      for (const Group::Run& run : group.rle_runs) {
        double acc = 0.0;
        for (u32 r = run.start; r < run.start + run.length; ++r) acc += y[r];
        tuple_weight[run.tuple] += acc;
      }
      break;
    case ClaEncoding::kOle:
      for (std::size_t t = 0; t < group.tuple_count; ++t) {
        double acc = 0.0;
        for (u32 idx = group.ole_offsets[t]; idx < group.ole_offsets[t + 1];
             ++idx) {
          acc += y[group.ole_rows[idx]];
        }
        tuple_weight[t] += acc;
      }
      break;
    case ClaEncoding::kUc:
      break;  // handled above
  }
  for (std::size_t t = 0; t < group.tuple_count; ++t) {
    double weight = tuple_weight[t];
    if (weight == 0.0) continue;
    const double* tuple = group.dictionary.data() + t * g;
    for (std::size_t k = 0; k < g; ++k) {
      x[group.columns[k]] += weight * tuple[k];
    }
  }
}

void ClaMatrix::MultiplyRightInto(std::span<const double> x,
                                  std::span<double> y,
                                  ThreadPool* pool) const {
  GCM_CHECK_MSG(x.size() == cols_, "MultiplyRight: wrong vector length");
  GCM_CHECK_MSG(y.size() == rows_, "MultiplyRight: wrong output length");
  std::fill(y.begin(), y.end(), 0.0);
  if (pool == nullptr || groups_.size() <= 1) {
    for (const Group& group : groups_) MultiplyRightGroup(group, x, y);
    return;
  }
  // Groups write to overlapping rows, so each task uses a private partial
  // (shared scatter-reduce helper; reduced in group order, deterministic).
  PartialVectors partials(groups_.size(), rows_);
  pool->ParallelFor(groups_.size(), [&](std::size_t g) {
    MultiplyRightGroup(groups_[g], x, partials.part(g));
  });
  partials.AccumulateInto(y);
}

void ClaMatrix::MultiplyLeftInto(std::span<const double> y,
                                 std::span<double> x,
                                 ThreadPool* pool) const {
  GCM_CHECK_MSG(y.size() == rows_, "MultiplyLeft: wrong vector length");
  GCM_CHECK_MSG(x.size() == cols_, "MultiplyLeft: wrong output length");
  std::fill(x.begin(), x.end(), 0.0);
  if (pool == nullptr || groups_.size() <= 1) {
    for (const Group& group : groups_) MultiplyLeftGroup(group, y, x);
    return;
  }
  // Groups own disjoint column sets, so parallel writes cannot collide.
  pool->ParallelFor(groups_.size(), [&](std::size_t g) {
    MultiplyLeftGroup(groups_[g], y, x);
  });
}

DenseMatrix ClaMatrix::ToDense() const {
  DenseMatrix dense(rows_, cols_);
  for (const Group& group : groups_) {
    const std::size_t g = group.columns.size();
    auto place_tuple = [&](std::size_t row, u32 tuple) {
      const double* values = group.dictionary.data() +
                             static_cast<std::size_t>(tuple) * g;
      for (std::size_t k = 0; k < g; ++k) {
        dense.Set(row, group.columns[k], values[k]);
      }
    };
    switch (group.encoding) {
      case ClaEncoding::kUc:
        for (std::size_t r = 0; r < rows_; ++r) {
          for (std::size_t k = 0; k < g; ++k) {
            dense.Set(r, group.columns[k], group.uc_values[r * g + k]);
          }
        }
        break;
      case ClaEncoding::kDdc:
        for (std::size_t r = 0; r < rows_; ++r) {
          if (group.ddc_ids[r] < group.tuple_count) {
            place_tuple(r, group.ddc_ids[r]);
          }
        }
        break;
      case ClaEncoding::kRle:
        for (const Group::Run& run : group.rle_runs) {
          for (u32 r = run.start; r < run.start + run.length; ++r) {
            place_tuple(r, run.tuple);
          }
        }
        break;
      case ClaEncoding::kOle:
        for (std::size_t t = 0; t < group.tuple_count; ++t) {
          for (u32 idx = group.ole_offsets[t]; idx < group.ole_offsets[t + 1];
               ++idx) {
            place_tuple(group.ole_rows[idx], static_cast<u32>(t));
          }
        }
        break;
    }
  }
  return dense;
}

void ClaMatrix::SerializeInto(ByteWriter* writer) const {
  writer->PutVarint(rows_);
  writer->PutVarint(cols_);
  writer->PutVarint(groups_.size());
  for (const Group& group : groups_) {
    writer->PutArray(group.columns);
    writer->Put<u8>(static_cast<u8>(group.encoding));
    writer->PutVarint(group.tuple_count);
    writer->PutArray(group.dictionary);
    switch (group.encoding) {
      case ClaEncoding::kUc:
        writer->PutArray(group.uc_values);
        break;
      case ClaEncoding::kDdc:
        writer->PutArray(group.ddc_ids);
        break;
      case ClaEncoding::kRle:
        // Run is three packed u32s, so this emits the same count + triple
        // stream the per-field loop used to (modulo alignment padding).
        writer->PutArray(group.rle_runs);
        break;
      case ClaEncoding::kOle:
        writer->PutArray(group.ole_offsets);
        writer->PutArray(group.ole_rows);
        break;
    }
  }
}

ClaMatrix ClaMatrix::DeserializeFrom(ByteReader* reader) {
  ClaMatrix cla;
  cla.rows_ = reader->GetVarint();
  cla.cols_ = reader->GetVarint();
  std::size_t group_count = reader->GetVarint();
  for (std::size_t g = 0; g < group_count; ++g) {
    Group group;
    group.columns = reader->GetArray<u32>();
    GCM_CHECK_MSG(!group.columns.empty(),
                  "CLA group " << g << " has no columns");
    for (u32 c : group.columns) {
      GCM_CHECK_MSG(c < cla.cols_, "CLA group " << g << " references column "
                                                << c << " of " << cla.cols_);
    }
    u8 encoding = reader->Get<u8>();
    GCM_CHECK_MSG(encoding <= static_cast<u8>(ClaEncoding::kOle),
                  "CLA group " << g << " has bad encoding byte "
                               << static_cast<int>(encoding));
    group.encoding = static_cast<ClaEncoding>(encoding);
    group.tuple_count = reader->GetVarint();
    group.dictionary = reader->GetArray<double>();
    GCM_CHECK_MSG(
        group.dictionary.size() == group.tuple_count * group.columns.size(),
        "CLA group " << g << " dictionary has " << group.dictionary.size()
                     << " values for " << group.tuple_count << " tuples of "
                     << group.columns.size() << " columns");
    switch (group.encoding) {
      case ClaEncoding::kUc:
        group.uc_values = reader->GetArray<double>();
        GCM_CHECK_MSG(
            group.uc_values.size() == cla.rows_ * group.columns.size(),
            "CLA UC group " << g << " payload length mismatch");
        break;
      case ClaEncoding::kDdc:
        group.ddc_ids = reader->GetArray<u32>();
        GCM_CHECK_MSG(group.ddc_ids.size() == cla.rows_,
                      "CLA DDC group " << g << " must have one id per row");
        for (u32 id : group.ddc_ids) {
          // id == tuple_count encodes the implicit all-zero tuple.
          GCM_CHECK_MSG(id <= group.tuple_count,
                        "CLA DDC group " << g << " id out of range");
        }
        break;
      case ClaEncoding::kRle: {
        group.rle_runs = reader->GetArray<Group::Run>();
        for (std::size_t i = 0; i < group.rle_runs.size(); ++i) {
          const Group::Run& run = group.rle_runs[i];
          GCM_CHECK_MSG(run.tuple < group.tuple_count &&
                            run.length > 0 &&
                            static_cast<u64>(run.start) + run.length <=
                                cla.rows_,
                        "CLA RLE group " << g << " run " << i
                                         << " out of range");
        }
        break;
      }
      case ClaEncoding::kOle:
        group.ole_offsets = reader->GetArray<u32>();
        group.ole_rows = reader->GetArray<u32>();
        GCM_CHECK_MSG(group.ole_offsets.size() == group.tuple_count + 1,
                      "CLA OLE group " << g
                                       << " must have tuples+1 offsets");
        GCM_CHECK_MSG(group.ole_offsets.front() == 0 &&
                          group.ole_offsets.back() == group.ole_rows.size(),
                      "CLA OLE group " << g
                                       << " offsets must span the row list");
        for (std::size_t t = 0; t < group.tuple_count; ++t) {
          GCM_CHECK_MSG(group.ole_offsets[t] <= group.ole_offsets[t + 1],
                        "CLA OLE group " << g << " offsets must be monotone");
        }
        for (u32 row : group.ole_rows) {
          GCM_CHECK_MSG(row < cla.rows_,
                        "CLA OLE group " << g << " row index out of range");
        }
        break;
    }
    cla.groups_.push_back(std::move(group));
  }
  return cla;
}

std::string ClaMatrix::PlanSummary() const {
  std::ostringstream os;
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    const Group& group = groups_[g];
    os << "group " << g << ": " << ClaEncodingName(group.encoding) << ", "
       << group.columns.size() << " cols, " << group.tuple_count
       << " tuples, " << group.SizeInBytes() << " bytes\n";
  }
  return os.str();
}

}  // namespace gcm
