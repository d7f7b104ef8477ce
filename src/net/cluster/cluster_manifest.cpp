#include "net/cluster/cluster_manifest.hpp"

#include <algorithm>

#include "encoding/byte_stream.hpp"
#include "encoding/snapshot.hpp"
#include "serving/shard_manifest.hpp"

namespace gcm {
namespace {

/// Version of the cluster-manifest *section* payload, independent of the
/// container version (bump on layout changes to this payload alone).
constexpr u64 kClusterPayloadVersion = 1;

}  // namespace

std::size_t ClusterManifest::WorkerCount() const {
  std::vector<std::string> seen;
  for (const ClusterRange& range : ranges) {
    for (const WorkerEndpoint& worker : range.workers) {
      std::string key = worker.ToString();
      if (std::find(seen.begin(), seen.end(), key) == seen.end()) {
        seen.push_back(std::move(key));
      }
    }
  }
  return seen.size();
}

std::string ClusterManifest::FormatTag() const {
  return "cluster?shards=" + std::to_string(ranges.size()) +
         "&workers=" + std::to_string(WorkerCount());
}

void ClusterManifest::Validate() const {
  GCM_CHECK_MSG(rows > 0 && cols > 0,
                "cluster manifest describes an empty " << rows << "x" << cols
                                                       << " matrix");
  GCM_CHECK_MSG(!ranges.empty(), "cluster manifest has no ranges");
  std::size_t expected_begin = 0;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const ClusterRange& range = ranges[i];
    GCM_CHECK_MSG(range.row_begin == expected_begin,
                  "range " << i << " starts at row " << range.row_begin
                           << " but the previous range ends at row "
                           << expected_begin
                           << " (ranges must tile the matrix contiguously)");
    GCM_CHECK_MSG(range.row_end > range.row_begin,
                  "range " << i << " covers an empty row range ["
                           << range.row_begin << ", " << range.row_end << ")");
    GCM_CHECK_MSG(!range.workers.empty(),
                  "range " << i << " has no worker endpoint");
    for (const WorkerEndpoint& worker : range.workers) {
      GCM_CHECK_MSG(!worker.host.empty(),
                    "range " << i << " names a worker with an empty host");
    }
    expected_begin = range.row_end;
  }
  GCM_CHECK_MSG(expected_begin == rows,
                "ranges cover rows [0, " << expected_begin
                                         << ") but the manifest declares "
                                         << rows << " rows");
}

void ClusterManifest::SerializeInto(ByteWriter* writer) const {
  writer->PutVarint(kClusterPayloadVersion);
  writer->PutVarint(rows);
  writer->PutVarint(cols);
  writer->PutVarint(ranges.size());
  for (const ClusterRange& range : ranges) {
    writer->PutVarint(range.row_begin);
    writer->PutVarint(range.row_end);
    writer->PutVarint(range.workers.size());
    for (const WorkerEndpoint& worker : range.workers) {
      writer->PutString(worker.host);
      writer->Put<u16>(worker.port);
    }
  }
}

ClusterManifest ClusterManifest::DeserializeFrom(ByteReader* reader) {
  u64 version = reader->GetVarint();
  GCM_CHECK_MSG(version == kClusterPayloadVersion,
                "unsupported cluster manifest payload version "
                    << version << " (this build reads version "
                    << kClusterPayloadVersion << ")");
  ClusterManifest manifest;
  manifest.rows = reader->GetVarint();
  manifest.cols = reader->GetVarint();
  u64 count = reader->GetVarint();
  // Each range needs >= 3 bytes even with no workers; reject absurd counts
  // before reserving an untrusted size.
  GCM_CHECK_MSG(count <= reader->Remaining() / 3,
                "cluster manifest declares " << count << " ranges in "
                                             << reader->Remaining()
                                             << " remaining bytes");
  manifest.ranges.reserve(count);
  for (u64 i = 0; i < count; ++i) {
    ClusterRange range;
    range.row_begin = reader->GetVarint();
    range.row_end = reader->GetVarint();
    u64 workers = reader->GetVarint();
    GCM_CHECK_MSG(workers <= reader->Remaining() / 3,
                  "cluster range " << i << " declares " << workers
                                   << " workers in " << reader->Remaining()
                                   << " remaining bytes");
    range.workers.reserve(workers);
    for (u64 w = 0; w < workers; ++w) {
      WorkerEndpoint worker;
      worker.host = reader->GetString();
      worker.port = reader->Get<u16>();
      range.workers.push_back(std::move(worker));
    }
    manifest.ranges.push_back(std::move(range));
  }
  return manifest;
}

void ClusterManifest::Save(const std::string& path) const {
  Validate();
  SnapshotWriter writer(FormatTag());
  // Mirror the engine's "meta" layout so a cluster manifest is
  // introspectable with the same tooling as any snapshot.
  ByteWriter& meta = writer.BeginSection("meta");
  meta.PutVarint(rows);
  meta.PutVarint(cols);
  meta.Put<u64>(0);  // compressed bytes live on the workers
  SerializeInto(&writer.BeginSection(kClusterManifestSection));
  WriteFileBytes(path, writer.Finish());
}

ClusterManifest ClusterManifest::Load(const std::string& path) {
  try {
    return FromSnapshot(SnapshotReader::FromFile(path));
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

ClusterManifest ClusterManifest::FromSnapshot(const SnapshotReader& reader) {
  ClusterManifest manifest;
  try {
    ByteReader section = reader.OpenSection(kClusterManifestSection);
    manifest = DeserializeFrom(&section);
    GCM_CHECK_MSG(section.AtEnd(), "trailing bytes");
  } catch (const Error& e) {
    throw Error("snapshot section \"" + std::string(kClusterManifestSection) +
                "\" is corrupt: " + e.what());
  }
  manifest.Validate();
  return manifest;
}

ClusterManifest DeriveClusterManifest(
    const ShardManifest& manifest, const std::vector<WorkerEndpoint>& workers,
    std::size_t replicas) {
  manifest.Validate();
  GCM_CHECK_MSG(!workers.empty(), "cluster derivation needs >= 1 worker");
  GCM_CHECK_MSG(replicas >= 1, "cluster derivation needs >= 1 replica");
  const std::size_t fan = std::min(replicas, workers.size());
  ClusterManifest cluster;
  cluster.rows = manifest.rows;
  cluster.cols = manifest.cols;
  cluster.ranges.reserve(manifest.shards.size());
  for (std::size_t i = 0; i < manifest.shards.size(); ++i) {
    ClusterRange range;
    range.row_begin = manifest.shards[i].row_begin;
    range.row_end = manifest.shards[i].row_end;
    range.workers.reserve(fan);
    for (std::size_t k = 0; k < fan; ++k) {
      range.workers.push_back(workers[(i + k) % workers.size()]);
    }
    cluster.ranges.push_back(std::move(range));
  }
  cluster.Validate();
  return cluster;
}

}  // namespace gcm
