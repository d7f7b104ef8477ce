#include "encoding/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "util/mapped_file.hpp"
#include "util/simd.hpp"

namespace gcm {
namespace {

bool IsValidSectionAlignment(std::size_t alignment) {
  return alignment > 0 && alignment <= 64 &&
         (alignment & (alignment - 1)) == 0;
}

/// a(x) * b(x) mod P(x) in the reflected bit order Crc32 uses (bit 31
/// holds the coefficient of x^0).
u32 MultModP(u32 a, u32 b) {
  u32 product = 0;
  for (u32 bit = 1u << 31; bit != 0; bit >>= 1) {
    if (a & bit) product ^= b;
    b = (b & 1) ? (b >> 1) ^ simd_portable::kCrc32Poly : b >> 1;
  }
  return product;
}

}  // namespace

u32 Crc32(const void* data, std::size_t size, u32 seed) {
  return simd::Crc32(static_cast<const u8*>(data), size, seed);
}

u32 Crc32Combine(u32 crc1, u32 crc2, u64 len2) {
  // Appending len2 bytes multiplies crc1's polynomial by x^(8 len2); the
  // pre- and post-inversions cancel, so crc2 adds on as it is.
  u32 shift = 1u << 31;  // x^0
  u32 square = 1u << 23;  // x^8, one byte
  for (u64 n = len2; n != 0; n >>= 1) {
    if (n & 1) shift = MultModP(square, shift);
    square = MultModP(square, square);
  }
  return MultModP(shift, crc1) ^ crc2;
}

u32 SnapshotFileCrc32(std::span<const u8> bytes) {
  if (bytes.size() < kSnapshotHeaderBytes) {
    return Crc32(bytes.data(), bytes.size());
  }
  u32 body_crc = 0;  // the header's last field
  std::memcpy(&body_crc,
              bytes.data() + kSnapshotHeaderBytes - sizeof(body_crc),
              sizeof(body_crc));
  return Crc32Combine(Crc32(bytes.data(), kSnapshotHeaderBytes), body_crc,
                      bytes.size() - kSnapshotHeaderBytes);
}

std::vector<u8> ReadFileBytes(const std::string& path) {
  // POSIX lets an ifstream "open" a directory and then report a garbage
  // size; reject it by name before sizing the buffer.
  std::error_code ec;
  GCM_CHECK_MSG(!std::filesystem::is_directory(path, ec),
                path << " is a directory, not a file");
  std::ifstream in(path, std::ios::binary);
  GCM_CHECK_MSG(in.good(), "cannot open file: " << path);
  in.seekg(0, std::ios::end);
  std::streamoff size = in.tellg();
  in.seekg(0, std::ios::beg);
  std::vector<u8> data(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()), size);
  GCM_CHECK_MSG(in.good(), "short read on file: " << path);
  return data;
}

void WriteFileBytes(const std::string& path, const std::vector<u8>& bytes) {
  WriteFileBytes(path, [&bytes](std::ostream& out) {
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  });
}

void WriteFileBytes(const std::string& path,
                    const std::function<void(std::ostream& out)>& fill) {
  static std::atomic<u64> next_temp{0};
  const std::string prefix =
      path + ".tmp." + std::to_string(::getpid()) + ".";
  std::string temp;
  int fd = -1;
  do {  // skips a name that a killed writer with our pid left behind
    temp = prefix + std::to_string(next_temp++);
    fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  } while (fd < 0 && errno == EEXIST);
  GCM_CHECK_MSG(fd >= 0, "cannot create file: " << path);
  try {
    // The descriptor holds the file for the fsync; the stream writes it.
    std::ofstream out(temp, std::ios::binary);
    fill(out);
    out.close();
    GCM_CHECK_MSG(!out.fail(), "short write on file: " << path);
    GCM_CHECK_MSG(::fsync(fd) == 0, "cannot sync file: " << path);
    GCM_CHECK_MSG(::rename(temp.c_str(), path.c_str()) == 0,
                  "cannot replace file: " << path);
  } catch (...) {
    ::close(fd);
    ::unlink(temp.c_str());
    throw;
  }
  ::close(fd);
  std::string dir = std::filesystem::path(path).parent_path().string();
  int dir_fd = ::open(dir.empty() ? "." : dir.c_str(),
                      O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  bool synced = dir_fd >= 0 && ::fsync(dir_fd) == 0;
  if (dir_fd >= 0) ::close(dir_fd);
  GCM_CHECK_MSG(synced, "cannot sync the directory of " << path);
}

std::vector<u8> ReadFileHeader(const std::string& path) {
  std::error_code ec;
  GCM_CHECK_MSG(!std::filesystem::is_directory(path, ec),
                path << " is a directory, not a file");
  std::ifstream in(path, std::ios::binary);
  GCM_CHECK_MSG(in.good(), "cannot open file: " << path);
  std::vector<u8> header(16);
  in.read(reinterpret_cast<char*>(header.data()),
          static_cast<std::streamsize>(header.size()));
  header.resize(static_cast<std::size_t>(in.gcount()));
  return header;
}

// ---------------------------------------------------------------------------
// SnapshotWriter
// ---------------------------------------------------------------------------

SnapshotWriter::SnapshotWriter(std::string spec) : spec_(std::move(spec)) {
  GCM_CHECK_MSG(!spec_.empty(), "snapshot spec string must not be empty");
}

ByteWriter& SnapshotWriter::BeginSection(const std::string& name,
                                         std::size_t alignment) {
  GCM_CHECK_MSG(!name.empty(), "snapshot section name must not be empty");
  GCM_CHECK_MSG(IsValidSectionAlignment(alignment),
                "snapshot section alignment " << alignment
                                              << " is not a power of two <= 64");
  for (const PendingSection& section : sections_) {
    GCM_CHECK_MSG(section.name != name,
                  "duplicate snapshot section \"" << name << "\"");
  }
  sections_.push_back({name, alignment, ByteWriter()});
  // Array payloads inside the section follow the v2 aligned layout (the
  // section itself is placed at an aligned file offset below, so
  // section-relative alignment carries through to the file).
  sections_.back().writer.EnableAlignedArrays();
  return sections_.back().writer;
}

std::vector<u8> SnapshotWriter::Finish() const {
  // Body = everything covered by the checksum (spec + section table,
  // padding included). Section payloads land at file offsets that are
  // multiples of their declared alignment; the body starts at file offset
  // kSnapshotHeaderBytes (after magic/version/crc).
  ByteWriter body;
  body.PutString(spec_);
  body.PutVarint(sections_.size());
  for (const PendingSection& section : sections_) {
    body.PutString(section.name);
    body.Put<u8>(static_cast<u8>(section.alignment));
    body.PutVarint(section.writer.size());
    while ((kSnapshotHeaderBytes + body.size()) % section.alignment != 0) {
      body.Put<u8>(0);
    }
    body.PutBytes(section.writer.buffer().data(), section.writer.size());
  }
  ByteWriter out;
  out.Put<u32>(kSnapshotMagic);
  out.Put<u32>(kSnapshotVersion);
  out.Put<u32>(Crc32(body.buffer().data(), body.size()));
  out.PutBytes(body.buffer().data(), body.size());
  return out.TakeBuffer();
}

// ---------------------------------------------------------------------------
// SnapshotReader
// ---------------------------------------------------------------------------

SnapshotReader::SnapshotReader(std::vector<u8> bytes) {
  auto owned = std::make_shared<std::vector<u8>>(std::move(bytes));
  bytes_ = {owned->data(), owned->size()};
  backing_ = std::move(owned);
  Parse();
}

SnapshotReader SnapshotReader::FromFile(const std::string& path) {
  if (std::shared_ptr<MappedFile> map = MappedFile::TryMap(path)) {
    SnapshotReader reader;
    reader.bytes_ = map->bytes();
    reader.backing_ = std::move(map);
    reader.Parse();
    return reader;
  }
  return SnapshotReader(ReadFileBytes(path));
}

SnapshotReader SnapshotReader::FromSpan(std::span<const u8> bytes,
                                        std::shared_ptr<const void> backing) {
  SnapshotReader reader;
  reader.bytes_ = bytes;
  reader.backing_ = std::move(backing);
  reader.Parse();
  return reader;
}

void SnapshotReader::Parse() {
  GCM_CHECK_MSG(bytes_.size() >= kSnapshotHeaderBytes,
                "not a gcm snapshot: " << bytes_.size()
                                       << " bytes is shorter than the header");
  ByteReader reader(bytes_.data(), bytes_.size());
  GCM_CHECK_MSG(reader.Get<u32>() == kSnapshotMagic,
                "not a gcm snapshot (bad magic)");
  version_ = reader.Get<u32>();
  GCM_CHECK_MSG(version_ >= kMinSnapshotVersion && version_ <= kSnapshotVersion,
                "unsupported snapshot version "
                    << version_ << " (this build reads versions "
                    << kMinSnapshotVersion << ".." << kSnapshotVersion << ")");
  u32 stored_crc = reader.Get<u32>();
  u32 actual_crc = Crc32(bytes_.data() + kSnapshotHeaderBytes,
                         bytes_.size() - kSnapshotHeaderBytes);
  GCM_CHECK_MSG(stored_crc == actual_crc,
                "snapshot checksum mismatch (stored " << stored_crc
                                                      << ", computed "
                                                      << actual_crc << ")");
  spec_ = reader.GetString();
  u64 count = reader.GetVarint();
  // Each section needs at least 2 bytes (empty name + zero length), so an
  // untrusted count beyond that is corrupt -- reject before reserving.
  GCM_CHECK_MSG(count <= reader.Remaining() / 2,
                "snapshot declares " << count << " sections in "
                                     << reader.Remaining()
                                     << " remaining bytes");
  sections_.reserve(count);
  for (u64 i = 0; i < count; ++i) {
    Section section;
    section.name = reader.GetString();
    std::size_t alignment = 1;
    if (version_ >= 2) {
      alignment = reader.Get<u8>();
      GCM_CHECK_MSG(IsValidSectionAlignment(alignment),
                    "snapshot section \"" << section.name
                                          << "\" declares alignment "
                                          << alignment
                                          << " (not a power of two <= 64)");
    }
    u64 length = reader.GetVarint();
    if (version_ >= 2) {
      // Skip (and verify) the padding that places the payload at the
      // declared alignment; nonzero pad bytes are corruption by name even
      // though the checksum already vouched for them.
      while (reader.pos() % alignment != 0) {
        GCM_CHECK_MSG(reader.Remaining() > 0,
                      "snapshot section \"" << section.name
                                            << "\" truncated inside its "
                                               "alignment padding");
        GCM_CHECK_MSG(reader.Get<u8>() == 0,
                      "snapshot section \"" << section.name
                                            << "\" has nonzero padding");
      }
    }
    GCM_CHECK_MSG(length <= reader.Remaining(),
                  "snapshot section \"" << section.name << "\" truncated: "
                                        << length << " bytes declared, "
                                        << reader.Remaining() << " remain");
    section.offset = reader.pos();
    section.length = static_cast<std::size_t>(length);
    reader.Skip(section.length);
    sections_.push_back(std::move(section));
  }
  GCM_CHECK_MSG(reader.AtEnd(), "trailing bytes after the last snapshot "
                                "section");
}

std::vector<std::string> SnapshotReader::SectionNames() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const Section& section : sections_) names.push_back(section.name);
  return names;
}

bool SnapshotReader::HasSection(const std::string& name) const {
  for (const Section& section : sections_) {
    if (section.name == name) return true;
  }
  return false;
}

const SnapshotReader::Section& SnapshotReader::Find(
    const std::string& name) const {
  for (const Section& section : sections_) {
    if (section.name == name) return section;
  }
  throw Error("snapshot has no section \"" + name + "\"");
}

std::size_t SnapshotReader::SectionBytes(const std::string& name) const {
  return Find(name).length;
}

std::span<const u8> SnapshotReader::SectionSpan(
    const std::string& name) const {
  const Section& section = Find(name);
  return bytes_.subspan(section.offset, section.length);
}

ByteReader SnapshotReader::OpenSection(const std::string& name) const {
  const Section& section = Find(name);
  ByteReader reader(bytes_.data() + section.offset, section.length);
  if (version_ >= 2) reader.EnableAlignedLayout();
  if (zero_copy_) reader.EnableBorrowing();
  return reader;
}

}  // namespace gcm
