#include "matrix/matrix_io.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "encoding/byte_stream.hpp"
#include "encoding/snapshot.hpp"

namespace gcm {
namespace {

constexpr u32 kDenseMagic = 0x444d4347;  // "GCMD"
constexpr u32 kCsrvMagic = 0x534d4347;   // "GCMS"
// "GCM1": the ad-hoc compressed format old mm_repair_cli builds wrote
// before snapshots existed. Recognized only to reject it with a real
// message instead of a dense-text parse error on binary garbage.
constexpr u32 kLegacyGcmMagic = 0x314d4347;
constexpr u32 kFormatVersion = 1;

constexpr const char* kMatrixMarketBanner = "%%MatrixMarket";

}  // namespace

const char* MatrixFileKindName(MatrixFileKind kind) {
  switch (kind) {
    case MatrixFileKind::kSnapshot:
      return "snapshot";
    case MatrixFileKind::kDenseBinary:
      return "dense-binary";
    case MatrixFileKind::kCsrvBinary:
      return "csrv-binary";
    case MatrixFileKind::kMatrixMarket:
      return "matrix-market";
    case MatrixFileKind::kDenseText:
      return "dense-text";
  }
  return "?";
}

MatrixFileKind SniffMatrixFile(const std::string& path) {
  // Header-only peek: ReadFileHeader pulls at most 16 bytes, so sniffing
  // a multi-GB snapshot (or a store manifest) costs one tiny read -- the
  // dispatch target decides whether to map, stream or copy the rest. It
  // also rejects directories up front (a directory opens "successfully"
  // as an ifstream on POSIX) and an empty file is named here instead of
  // surfacing as a confusing dense-text missing-header error.
  std::vector<u8> head = ReadFileHeader(path);
  std::size_t got = head.size();
  GCM_CHECK_MSG(got > 0, path << " is empty (0 bytes); not a matrix file");
  if (got >= sizeof(u32)) {
    u32 magic;
    std::memcpy(&magic, head.data(), sizeof(magic));
    if (magic == kSnapshotMagic) return MatrixFileKind::kSnapshot;
    if (magic == kDenseMagic) return MatrixFileKind::kDenseBinary;
    if (magic == kCsrvMagic) return MatrixFileKind::kCsrvBinary;
    GCM_CHECK_MSG(magic != kLegacyGcmMagic,
                  path << " is a legacy GCM1 compressed file; re-compress "
                          "its source with the current mm_repair_cli to "
                          "get a snapshot");
  }
  if (got >= std::strlen(kMatrixMarketBanner) &&
      std::memcmp(head.data(), kMatrixMarketBanner,
                  std::strlen(kMatrixMarketBanner)) == 0) {
    return MatrixFileKind::kMatrixMarket;
  }
  return MatrixFileKind::kDenseText;
}

void SaveDense(const DenseMatrix& matrix, const std::string& path) {
  ByteWriter writer;
  writer.Put<u32>(kDenseMagic);
  writer.Put<u32>(kFormatVersion);
  writer.PutVarint(matrix.rows());
  writer.PutVarint(matrix.cols());
  writer.PutArray(matrix.data());
  WriteFileBytes(path, writer.buffer());
}

DenseMatrix LoadDense(const std::string& path) {
  std::vector<u8> data = ReadFileBytes(path);
  ByteReader reader(data);
  GCM_CHECK_MSG(reader.Get<u32>() == kDenseMagic,
                "not a dense matrix file: " << path);
  GCM_CHECK_MSG(reader.Get<u32>() == kFormatVersion,
                "unsupported format version in " << path);
  std::size_t rows = reader.GetVarint();
  std::size_t cols = reader.GetVarint();
  std::vector<double> payload = reader.GetVector<double>();
  GCM_CHECK_MSG(reader.AtEnd(), "trailing bytes in " << path);
  return DenseMatrix(rows, cols, std::move(payload));
}

void SaveCsrv(const CsrvMatrix& matrix, const std::string& path) {
  ByteWriter writer;
  writer.Put<u32>(kCsrvMagic);
  writer.Put<u32>(kFormatVersion);
  writer.PutVarint(matrix.rows());
  writer.PutVarint(matrix.cols());
  writer.PutArray(matrix.dictionary());
  writer.PutArray(matrix.sequence());
  WriteFileBytes(path, writer.buffer());
}

CsrvMatrix LoadCsrv(const std::string& path) {
  std::vector<u8> data = ReadFileBytes(path);
  ByteReader reader(data);
  GCM_CHECK_MSG(reader.Get<u32>() == kCsrvMagic,
                "not a CSRV matrix file: " << path);
  GCM_CHECK_MSG(reader.Get<u32>() == kFormatVersion,
                "unsupported format version in " << path);
  std::size_t rows = reader.GetVarint();
  std::size_t cols = reader.GetVarint();
  std::vector<double> dictionary = reader.GetVector<double>();
  std::vector<u32> sequence = reader.GetVector<u32>();
  GCM_CHECK_MSG(reader.AtEnd(), "trailing bytes in " << path);
  return CsrvMatrix::FromParts(rows, cols, std::move(dictionary),
                               std::move(sequence));
}

MatrixMarketData LoadMatrixMarket(const std::string& path) {
  std::ifstream in(path);
  GCM_CHECK_MSG(in.good(), "cannot open file: " << path);
  std::string banner;
  GCM_CHECK_MSG(static_cast<bool>(std::getline(in, banner)),
                "empty MatrixMarket file: " << path);
  std::istringstream header(banner);
  std::string tag, object, format, field, symmetry;
  header >> tag >> object >> format >> field >> symmetry;
  GCM_CHECK_MSG(tag == kMatrixMarketBanner,
                "not a MatrixMarket file: " << path);
  GCM_CHECK_MSG(object == "matrix" && format == "coordinate",
                path << ": only \"matrix coordinate\" MatrixMarket files are "
                        "supported, got \""
                     << object << ' ' << format << '"');
  GCM_CHECK_MSG(field == "real" || field == "integer" || field == "double",
                path << ": unsupported MatrixMarket field \"" << field
                     << "\" (need real/integer)");
  GCM_CHECK_MSG(symmetry == "general",
                path << ": only \"general\" symmetry is supported, got \""
                     << symmetry << '"');

  std::string line;
  // Comment lines ('%') may follow the banner; the first non-comment line
  // is the size header.
  std::size_t rows = 0, cols = 0, nonzeros = 0;
  for (;;) {
    GCM_CHECK_MSG(static_cast<bool>(std::getline(in, line)),
                  path << ": missing MatrixMarket size header");
    if (line.empty() || line[0] == '%') continue;
    std::istringstream sizes(line);
    GCM_CHECK_MSG(static_cast<bool>(sizes >> rows >> cols >> nonzeros),
                  path << ": malformed MatrixMarket size header \"" << line
                       << '"');
    break;
  }

  MatrixMarketData data;
  data.rows = rows;
  data.cols = cols;
  data.entries.reserve(nonzeros);
  for (std::size_t i = 0; i < nonzeros; ++i) {
    std::size_t r = 0, c = 0;
    double value = 0.0;
    GCM_CHECK_MSG(static_cast<bool>(in >> r >> c >> value),
                  path << ": truncated MatrixMarket body at entry " << i
                       << " of " << nonzeros);
    GCM_CHECK_MSG(r >= 1 && r <= rows && c >= 1 && c <= cols,
                  path << ": MatrixMarket entry " << i << " at (" << r << ", "
                       << c << ") outside " << rows << "x" << cols);
    data.entries.push_back({static_cast<u32>(r - 1), static_cast<u32>(c - 1),
                            value});
  }
  return data;
}

void SaveMatrixMarket(const DenseMatrix& matrix, const std::string& path) {
  WriteFileBytes(path, [&matrix](std::ostream& out) {
    // max_digits10 keeps the text round-trip value-preserving (the default
    // 6 significant digits would silently perturb continuous-valued data).
    out << std::setprecision(std::numeric_limits<double>::max_digits10);
    out << kMatrixMarketBanner << " matrix coordinate real general\n";
    out << matrix.rows() << ' ' << matrix.cols() << ' '
        << matrix.CountNonZeros() << '\n';
    for (std::size_t r = 0; r < matrix.rows(); ++r) {
      for (std::size_t c = 0; c < matrix.cols(); ++c) {
        double v = matrix.At(r, c);
        if (v == 0.0) continue;
        out << (r + 1) << ' ' << (c + 1) << ' ' << v << '\n';
      }
    }
  });
}

DenseMatrix LoadDenseText(const std::string& path) {
  std::ifstream in(path);
  GCM_CHECK_MSG(in.good(), "cannot open file: " << path);
  std::size_t rows = 0, cols = 0;
  GCM_CHECK_MSG(static_cast<bool>(in >> rows >> cols),
                "missing dimensions header in " << path);
  DenseMatrix matrix(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      double value;
      GCM_CHECK_MSG(static_cast<bool>(in >> value),
                    "truncated matrix body in " << path << " at row " << r);
      matrix.Set(r, c, value);
    }
  }
  return matrix;
}

void SaveDenseText(const DenseMatrix& matrix, const std::string& path) {
  WriteFileBytes(path, [&matrix](std::ostream& out) {
    out << std::setprecision(std::numeric_limits<double>::max_digits10);
    out << matrix.rows() << " " << matrix.cols() << "\n";
    for (std::size_t r = 0; r < matrix.rows(); ++r) {
      for (std::size_t c = 0; c < matrix.cols(); ++c) {
        out << matrix.At(r, c) << (c + 1 == matrix.cols() ? '\n' : ' ');
      }
    }
  });
}

}  // namespace gcm
