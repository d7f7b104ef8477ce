// Workload `cold_ranges`: range queries that fault shards in and out.
//
// One closed-loop caller issues ShardedMatrix::MultiplyRightRangeInto over a
// lazily opened 16-shard gcm:re_32 store of a Mnist2m-profile replica. Each
// range spans two adjacent shards, picked from a seeded skewed popularity,
// and after every query the store is trimmed to a resident-byte budget of a
// quarter of its snapshot bytes with EvictToResidentBytes. Storage and
// residency (mmap, container CRC and parse, deserialize, first-touch faults,
// eviction) do most of the work here and almost none elsewhere. The page
// cache stays warm: "cold" means not resident in the process.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "core/any_matrix.hpp"
#include "encoding/snapshot.hpp"
#include "serving/matrix_store.hpp"
#include "serving/sharded_matrix.hpp"
#include "trace.hpp"
#include "util/memory_tracker.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

constexpr const char* kProfile = "Mnist2m";
constexpr const char* kInnerSpec = "gcm:re_32";
constexpr std::size_t kShards = 16;
constexpr int kSetups = 5;
// Pair popularity decays geometrically by kPairSkew per pair, and the
// resident budget holds 3.5 of the 16 shards (so 3 stay after a trim). That
// puts a quarter of the queries on two loads and the median query on one:
// the median sits inside one latency mode instead of between two.
constexpr double kPairSkew = 0.6;
constexpr u64 kBudgetNum = 7;
constexpr u64 kBudgetDen = 32;
constexpr std::size_t kVectors = 8;
constexpr int kReplayRounds = 2;

struct Query {
  std::size_t pair = 0;  ///< the range covers shards pair and pair + 1
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t x = 0;
};

/// The seeded query stream. Pair popularity is a fixed truncated geometric
/// over the pairs in row order (a hot region at the start of the store),
/// so every seed sees the same fault profile; the seed drives which pair
/// each query draws, where its range starts in the first shard and ends in
/// the second, and its vector.
class QueryStream {
 public:
  QueryStream(const gcm::ShardManifest& manifest, u64 seed)
      : manifest_(manifest), rng_(MixSeed(seed, 31)) {}

  Query Next() {
    Query q;
    q.pair = rng_.SkewedBelow(manifest_.shards.size() - 1, kPairSkew);
    const gcm::ShardManifestEntry& a = manifest_.shards[q.pair];
    const gcm::ShardManifestEntry& b = manifest_.shards[q.pair + 1];
    q.begin = a.row_begin + rng_.Below(a.rows());
    q.end = b.row_begin + 1 + rng_.Below(b.rows());
    q.x = rng_.Below(kVectors);
    return q;
  }

 private:
  const gcm::ShardManifest& manifest_;
  gcm::Rng rng_;
};

struct Loop {
  std::vector<double> query_ms;
  std::vector<double> evict_ms;
  u64 queries = 0;
  u64 loads = 0;
  u64 touches = 0;
  u64 peak_resident = 0;
  double seconds = 0.0;
  double heap_bytes = 0.0;
};

Loop RunQueries(const gcm::ShardedMatrix& store, QueryStream* stream,
                const std::vector<std::vector<double>>& xs,
                const std::vector<std::vector<double>>& expected, u64 budget,
                double seconds, bool traced, Report* report) {
  Loop loop;
  std::vector<double> y(store.rows());
  const auto expected_queries =
      static_cast<std::size_t>(kMaxOpsPerSecond * seconds);
  loop.query_ms.reserve(expected_queries);
  loop.evict_ms.reserve(expected_queries);
  HeapPeak heap;
  heap.Start();
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < seconds) {
    const Query q = stream->Next();
    const u64 id = loop.queries + 1;
    std::span<double> out(y.data(), q.end - q.begin);
    const Clock::time_point t0 = Clock::now();
    {
      trace::Scope query("cold.query", id);
      for (std::size_t s : {q.pair, q.pair + 1}) {
        ++loop.touches;
        if (store.ShardResident(s)) continue;
        ++loop.loads;
        if (traced) {
          // Loaded explicitly so the load is its own span; the range call
          // below then finds the shard resident.
          trace::Scope load("serving.load_shard", id);
          store.LoadShard(s);
        }
      }
      trace::Scope range("core.range", id);
      store.MultiplyRightRangeInto(xs[q.x], out, q.begin, q.end);
    }
    loop.query_ms.push_back(MillisBetween(t0, Clock::now()));
    report->Count(std::memcmp(out.data(), expected[q.x].data() + q.begin,
                              out.size() * sizeof(double)) == 0);
    loop.peak_resident =
        std::max(loop.peak_resident, store.ResidentPayloadBytes());
    const Clock::time_point e0 = Clock::now();
    {
      trace::Scope evict("serving.evict", id);
      store.EvictToResidentBytes(budget);
    }
    loop.evict_ms.push_back(MillisBetween(e0, Clock::now()));
    ++loop.queries;
  }
  loop.seconds = SecondsSince(start);
  loop.heap_bytes = heap.Bytes();
  return loop;
}

}  // namespace

void RunColdRanges(const Options& options, Report* report) {
  const std::size_t rows = options.toy ? 2400 : 20000;
  report->Line("workload cold_ranges: %s replica, %zu rows, lazily opened "
               "store of %zu %s shards, budget 7/32 of the store's "
               "snapshot bytes (EvictToResidentBytes after every query); "
               "closed loop with 1 caller; ranges span two adjacent shards "
               "(skew %.2f); the page cache stays warm, so cold means not "
               "resident in the process",
               kProfile, rows, kShards, kInnerSpec, kPairSkew);

  std::unique_ptr<gcm::ThreadPool> build_pool =
      gcm::MakePoolForThreads(Nproc());
  std::vector<double> setup_s;
  std::vector<double> partition_s;
  std::vector<double> open_ms;
  gcm::DenseMatrix dense;
  gcm::AnyMatrix matrix;
  std::string dir;
  double matrix_heap = 0.0;
  for (int rep = 0; rep < kSetups; ++rep) {
    matrix = gcm::AnyMatrix();
    dense = gcm::DenseMatrix();
    if (!dir.empty()) std::filesystem::remove_all(dir);
    const Clock::time_point t0 = Clock::now();
    dense = MakeReplica(kProfile, rows, options.seed);
    dir = ScratchDir(options, "store" + std::to_string(rep));
    const u64 heap_before = gcm::MemoryTracker::CurrentBytes();
    Clock::time_point t = Clock::now();
    gcm::ShardingPolicy policy;
    policy.shards = kShards;
    gcm::MatrixStore::Partition(dense, kInnerSpec, policy, dir,
                                {.pool = build_pool.get()});
    partition_s.push_back(SecondsSince(t));
    t = Clock::now();
    matrix = gcm::MatrixStore::Open(dir);
    open_ms.push_back(SecondsSince(t) * 1e3);
    // Warm-up: one query's worth of shard traffic, then back to empty.
    const gcm::ShardedMatrix* store =
        gcm::ShardedMatrix::FromKernel(matrix.kernel());
    std::vector<double> wx(matrix.cols(), 0.5);
    std::vector<double> wy(store->manifest().shards[0].rows() +
                           store->manifest().shards[1].rows());
    store->MultiplyRightRangeInto(wx, wy, 0, wy.size());
    store->EvictToResidentBytes(0);
    const u64 heap_after = gcm::MemoryTracker::CurrentBytes();
    matrix_heap = heap_after > heap_before
                      ? static_cast<double>(heap_after - heap_before)
                      : 0.0;
    setup_s.push_back(SecondsSince(t0));
  }
  const gcm::ShardedMatrix& store =
      *gcm::ShardedMatrix::FromKernel(matrix.kernel());
  const u64 dense_bytes = dense.UncompressedBytes();
  u64 snapshot_bytes = 0;
  for (const gcm::ShardManifestEntry& e : store.manifest().shards) {
    snapshot_bytes += e.snapshot_bytes;
  }
  const u64 budget = snapshot_bytes * kBudgetNum / kBudgetDen;
  PrintSizes(report, std::string(kProfile) + " store, " + kInnerSpec,
             dense_bytes, matrix.CompressedBytes());
  report->Line("store: %zu shard files, %.3f MB of snapshots, budget %.3f "
               "MB resident",
               store.shard_count(), static_cast<double>(snapshot_bytes) / 1e6,
               static_cast<double>(budget) / 1e6);

  // Expected answers: rows of a full multiply (the range contract), then
  // start cold.
  std::vector<std::vector<double>> xs;
  std::vector<std::vector<double>> expected;
  InputHash hash;
  hash.Bytes(dense.data().data(), dense_bytes);
  for (std::size_t i = 0; i < kVectors; ++i) {
    xs.push_back(RandomVector(matrix.cols(), MixSeed(options.seed, 32, i)));
    expected.emplace_back(matrix.rows());
    matrix.MultiplyRightInto(xs.back(), expected.back());
    hash.Doubles(xs.back());
  }
  if (options.corrupt_expected) {
    for (double& v : expected[0]) v = -v - 1.0;
  }
  {
    QueryStream probe(store.manifest(), options.seed);
    for (int i = 0; i < 4096; ++i) {
      const Query q = probe.Next();
      hash.Value(q.begin);
      hash.Value(q.end);
      hash.Value(q.x);
    }
  }
  report->Line("inputs: seed %llu, input hash %016llx (replica row order, "
               "vectors, ranges)",
               static_cast<unsigned long long>(options.seed),
               static_cast<unsigned long long>(hash.digest()));
  dense = gcm::DenseMatrix();
  store.EvictToResidentBytes(0);

  QueryStream stream(store.manifest(), options.seed);
  const double seconds = options.seconds;
  Loop timed;
  if (!options.trace) {
    timed = RunQueries(store, &stream, xs, expected, budget, seconds, false,
                       report);
  } else {
    Loop plain = RunQueries(store, &stream, xs, expected, budget,
                            0.4 * seconds, false, report);
    trace::Enable(true);
    timed = RunQueries(store, &stream, xs, expected, budget, 0.4 * seconds,
                       true, report);

    // One shard load replayed as its public steps, on the same files:
    // container open (map + parse, which checksums the container), Crc32
    // over the file (the manifest gate's pass), deserialize, first multiply.
    std::vector<double> crc_mbps;
    double file_bytes = 0.0;
    for (int round = 0; round < kReplayRounds; ++round) {
      for (std::size_t i = 0; i < store.shard_count(); ++i) {
        const gcm::ShardManifestEntry& entry = store.manifest().shards[i];
        const std::string path =
            (std::filesystem::path(dir) / entry.file).string();
        trace::Scope replay("replay.shard_load", i + 1);
        std::unique_ptr<gcm::SnapshotReader> reader;
        {
          trace::Scope span("encoding.container_open", i + 1);
          reader = std::make_unique<gcm::SnapshotReader>(
              gcm::SnapshotReader::FromFile(path));
        }
        const std::span<const u8> bytes = reader->bytes();
        const Clock::time_point c0 = Clock::now();
        u32 crc = 0;
        {
          trace::Scope span("encoding.crc", i + 1);
          crc = gcm::Crc32(bytes.data(), bytes.size());
        }
        const double crc_s = SecondsSince(c0);
        crc_mbps.push_back(static_cast<double>(bytes.size()) / 1e6 / crc_s);
        file_bytes += static_cast<double>(bytes.size());
        gcm::AnyMatrix shard;
        {
          trace::Scope span("encoding.deserialize", i + 1);
          shard = gcm::AnyMatrix::LoadSnapshot(std::move(*reader), path);
        }
        std::vector<double> y(shard.rows());
        {
          trace::Scope span("core.first_touch", i + 1);
          shard.MultiplyRightInto(xs[0], y);
        }
        report->Count(crc == entry.crc32 &&
                      std::memcmp(y.data(),
                                  expected[0].data() + entry.row_begin,
                                  y.size() * sizeof(double)) == 0);
      }
    }
    trace::Enable(false);
    file_bytes /= static_cast<double>(kReplayRounds * store.shard_count());

    const std::vector<trace::Summary> spans = trace::Summarize(trace::Spans());
    auto p50 = [&](const char* name) {
      const trace::Summary* s = trace::Find(spans, name);
      return s ? Median(s->durations_ms) : 0.0;
    };
    const double load_ms = p50("serving.load_shard");
    const double crc_rate = Median(crc_mbps);
    report->Layer("grammar.build_s", Median(partition_s), "s",
                  "MatrixStore::Partition, median of setups");
    report->Layer("serving.open_ms", Median(open_ms), "ms",
                  "MatrixStore::Open, median of setups");
    report->Layer("core.range_ms", p50("core.range"), "ms",
                  "range multiply over resident shards, p50");
    report->Layer("serving.load_ms", load_ms, "ms",
                  "LoadShard of a non-resident shard, p50");
    report->Layer("serving.fault_ratio",
                  timed.touches > 0 ? static_cast<double>(timed.loads) /
                                          static_cast<double>(timed.touches)
                                    : 0.0,
                  "ratio", "shard loads / shard touches");
    report->Layer("serving.evict_ms", Mean(timed.evict_ms), "ms",
                  "EvictToResidentBytes per query, mean");
    report->Layer("encoding.container_open_ms",
                  p50("encoding.container_open"), "ms",
                  "SnapshotReader::FromFile (map, checksum, parse), p50");
    report->Layer("encoding.crc_mbps", crc_rate, "MB/s",
                  "Crc32 over a shard file, median");
    report->Layer("encoding.deserialize_ms", p50("encoding.deserialize"),
                  "ms", "AnyMatrix::LoadSnapshot, p50");
    report->Layer("core.first_touch_ms", p50("core.first_touch"), "ms",
                  "first multiply after a load, p50");
    const double crc_share =
        load_ms > 0 ? 2.0 * file_bytes / 1e6 / crc_rate * 1e3 / load_ms : 0.0;
    report->Layer("serving.load_crc_share", crc_share, "ratio",
                  "2 x shard file bytes / crc rate, over serving.load_ms");
    report->Line("cold_ranges: 2 CRC passes over a %.3f MB shard file take "
                 "%.3f ms of a %.3f ms load (%.0f%%)",
                 file_bytes / 1e6, 2.0 * file_bytes / 1e6 / crc_rate * 1e3,
                 load_ms, 100.0 * crc_share);
    const Tail plain_tail = P99OrLower(plain.query_ms);
    const Tail traced_tail = P99OrLower(timed.query_ms);
    report->Layer("trace.overhead_latency_p50_pct",
                  100.0 * (Median(timed.query_ms) / Median(plain.query_ms) -
                           1.0),
                  "%", "traced vs untraced query p50");
    report->Layer("trace.overhead_latency_p99_pct",
                  100.0 * (traced_tail.value / plain_tail.value - 1.0), "%",
                  "traced vs untraced query tail");
    report->Layer("trace.overhead_throughput_pct",
                  100.0 * ((static_cast<double>(plain.queries) /
                            plain.seconds) /
                               (static_cast<double>(timed.queries) /
                                timed.seconds) -
                           1.0),
                  "%", "untraced / traced queries per second");
  }

  const Tail tail = P99OrLower(timed.query_ms);
  const double rate = static_cast<double>(timed.queries) / timed.seconds;
  report->Line("cold_ranges: %llu queries, %llu shard loads of %llu touches, "
               "peak resident %.3f MB",
               static_cast<unsigned long long>(timed.queries),
               static_cast<unsigned long long>(timed.loads),
               static_cast<unsigned long long>(timed.touches),
               static_cast<double>(timed.peak_resident) / 1e6);
  report->EndToEnd("setup_s", Median(setup_s), "s", setup_s.size(),
                   "median setup: replica, Partition, Open, warm-up");
  report->EndToEnd("compressed_pct",
                   100.0 * static_cast<double>(matrix.CompressedBytes()) /
                       static_cast<double>(dense_bytes),
                   "%", 0, "store compressed / dense bytes (Table 1)");
  report->EndToEnd("latency_p50_ms", Median(timed.query_ms), "ms",
                   timed.queries, "range query, loads included");
  report->EndToEnd("latency_p99_ms", tail.value, "ms", timed.queries,
                   PctLabel(tail.percentile) + " of range queries");
  report->EndToEnd("throughput_qps", rate, "1/s", timed.queries,
                   "range queries per second, evictions included");
  report->EndToEnd("max_rate_rps", rate, "1/s", timed.queries,
                   "closed loop, 1 caller: the rate it sustains");
  report->EndToEnd("peak_heap_mb", timed.heap_bytes / 1e6, "MB", 0,
                   "heap high-water of the queries above their start");
  report->EndToEnd("peak_mem_pct",
                   100.0 * (matrix_heap + timed.heap_bytes) /
                       static_cast<double>(dense_bytes),
                   "%", 0, "store heap + query peak, / dense");
  report->EndToEnd("resident_mb",
                   static_cast<double>(timed.peak_resident) / 1e6, "MB", 0,
                   "peak ShardedMatrix::ResidentPayloadBytes after a query");
  matrix = gcm::AnyMatrix();
  RemoveScratch(options);
}

}  // namespace perfbench
