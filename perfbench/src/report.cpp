#include <pthread.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "matrix/datasets.hpp"
#include "util/memory_tracker.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
  bool in_json = true;
};

// The metric sets of BENCHMARK.json, in its order. A workload must report
// every end-to-end metric; a per-layer metric a workload does not report
// measures a layer that workload never loads, and reads 0.
// latency_p99_ms is printed but not in the JSON: on a shared virtual
// machine its run-to-run spread follows the host's load (IQR/median 0.32
// over ten serve runs), beyond any bound a regression gate can use.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"compressed_pct", "%"},
    {"latency_p50_ms", "ms"},  {"latency_p99_ms", "ms", false},
    {"throughput_qps", "1/s"}, {"max_rate_rps", "1/s"},
    {"peak_heap_mb", "MB"},    {"peak_mem_pct", "%"},
    {"resident_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"grammar.build_s", "s"},
    {"serving.open_ms", "ms"},
    {"core.right_p50_ms", "ms"},
    {"core.right_tail_ms", "ms"},
    {"core.left_p50_ms", "ms"},
    {"core.left_tail_ms", "ms"},
    {"core.computed_gbps", "GB/s"},
    {"core.seq_iter_ms", "ms"},
    {"util.pool_speedup", "x"},
    {"core.aux_peak_mb", "MB"},
    {"core.calls", "count"},
    {"core.batch_k_mean", "count"},
    {"core.ms_per_vec", "ms"},
    {"core.range_ms", "ms"},
    {"net.request_encode_ms", "ms"},
    {"net.reply_encode_ms", "ms"},
    {"net.reply_encode_over_kernel", "x"},
    {"net.batches", "count"},
    {"net.batched_share", "%"},
    {"net.max_batch", "count"},
    {"net.queue_depth_p99", "count"},
    {"net.backlog", "count"},
    {"net.gen_late_p99_ms", "ms"},
    {"net.errors_sent", "count"},
    {"cluster.scatter_ms", "ms"},
    {"cluster.requests_per_scatter", "count"},
    {"cluster.worker_batched_share", "%"},
    {"cluster.retries", "count"},
    {"cluster.failovers", "count"},
    {"cluster.deadline_timeouts", "count"},
    {"cluster.connects", "count"},
    {"serving.load_ms", "ms"},
    {"serving.fault_ratio", "ratio"},
    {"serving.evict_ms", "ms"},
    {"serving.load_crc_share", "ratio"},
    {"encoding.container_open_ms", "ms"},
    {"encoding.crc_mbps", "MB/s"},
    {"encoding.deserialize_ms", "ms"},
    {"core.first_touch_ms", "ms"},
    {"trace.overhead_latency_p50_pct", "%"},
    {"trace.overhead_latency_p99_pct", "%"},
    {"trace.overhead_throughput_pct", "%"},
};

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit, u64 samples,
                      const std::string& note) {
  end_to_end_[name] = Metric{value, unit, samples, note};
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit, const std::string& note) {
  layers_[name] = Metric{value, unit, 0, note};
}

void Report::Line(const char* format, ...) {
  std::va_list args;
  va_start(args, format);
  std::vprintf(format, args);
  va_end(args);
  std::printf("\n");
  std::fflush(stdout);
}

int Report::Finish(const Options& options) const {
  bool consistent = true;
  auto check_known = [&](const std::map<std::string, Metric>& reported,
                         const MetricDef* begin, const MetricDef* end) {
    for (const auto& [name, metric] : reported) {
      auto it = std::find_if(begin, end, [&](const MetricDef& def) {
        return name == def.name;
      });
      if (it == end || metric.unit != it->unit ||
          !std::isfinite(metric.value)) {
        std::fprintf(stderr, "perfbench: metric %s (%s) is not declared or "
                             "not finite\n",
                     name.c_str(), metric.unit.c_str());
        consistent = false;
      }
    }
  };
  check_known(end_to_end_, std::begin(kEndToEnd), std::end(kEndToEnd));
  check_known(layers_, std::begin(kPerLayer), std::end(kPerLayer));

  std::printf("\n== end-to-end metrics (%s run) ==\n",
              options.trace ? "traced" : "untraced");
  for (const MetricDef& def : kEndToEnd) {
    auto it = end_to_end_.find(def.name);
    if (it == end_to_end_.end()) {
      std::printf("  %-30s missing\n", def.name);
      consistent = false;
      continue;
    }
    const Metric& m = it->second;
    std::printf("  %-30s %14.4f %-6s n=%-8llu %s%s\n", def.name, m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples),
                m.note.c_str(), def.in_json ? "" : " (report only)");
  }
  const double failed_pct =
      attempted == 0 ? 100.0
                     : 100.0 * static_cast<double>(failed) /
                           static_cast<double>(attempted);
  std::printf("  %-30s %14.4f %-6s failed %llu of attempted %llu\n",
              "failed_pct", failed_pct, "%",
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));

  if (options.trace) {
    std::printf("\n== per-layer metrics (traced run; 0 = layer not loaded by "
                "this workload) ==\n");
    for (const MetricDef& def : kPerLayer) {
      auto it = layers_.find(def.name);
      if (it == layers_.end()) {
        std::printf("  %-32s %14.4f %-6s not loaded by %s\n", def.name, 0.0,
                    def.unit, options.workload.c_str());
        continue;
      }
      std::printf("  %-32s %14.4f %-6s %s\n", def.name, it->second.value,
                  def.unit, it->second.note.c_str());
    }
  }

  const bool correct = consistent && failed == 0 && attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const char* name, double value, const char* unit) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + std::string(name) + "\": {\"value\": " + JsonNumber(value) +
            ", \"unit\": \"" + unit + "\"}";
  };
  if (options.trace) {
    for (const MetricDef& def : kPerLayer) {
      auto it = layers_.find(def.name);
      emit(def.name, it == layers_.end() ? 0.0 : it->second.value, def.unit);
    }
  } else {
    for (const MetricDef& def : kEndToEnd) {
      if (!def.in_json) continue;
      auto it = end_to_end_.find(def.name);
      emit(def.name, it == end_to_end_.end() ? 0.0 : it->second.value,
           def.unit);
    }
  }
  json += "}}";
  std::printf("\n%s\n", json.c_str());
  std::fflush(stdout);
  if (!consistent) return 3;
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

namespace {

Tail TailFrom(const std::vector<double>& values,
              std::initializer_list<double> candidates) {
  Tail tail;
  tail.samples = values.size();
  const double n = static_cast<double>(values.size());
  for (double pct : candidates) {
    if (n * (1.0 - pct / 100.0) >= 10.0 - 1e-9 || pct == 50.0) {
      tail.percentile = pct;
      tail.value = Quantile(values, pct / 100.0);
      return tail;
    }
  }
  return tail;
}

}  // namespace

Tail HighestTail(const std::vector<double>& values) {
  return TailFrom(values, {99.9, 99.0, 95.0, 90.0, 50.0});
}

Tail P99OrLower(const std::vector<double>& values) {
  return TailFrom(values, {99.0, 95.0, 90.0, 50.0});
}

std::string PctLabel(double percentile) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "p%g", percentile);
  return buf;
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

void InputHash::Bytes(const void* data, std::size_t size) {
  // FNV-1a's multiply over 8-byte words (bytes for the tail), with a shift
  // folding high bits back down: fast enough for a 125 MB replica, and any
  // flipped input bit changes the digest.
  const auto* p = static_cast<const u8*>(data);
  std::size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    u64 word;
    std::memcpy(&word, p + i, sizeof(word));
    h_ = (h_ ^ word) * 0x100000001b3ULL;
    h_ ^= h_ >> 29;
  }
  for (; i < size; ++i) h_ = (h_ ^ p[i]) * 0x100000001b3ULL;
}

gcm::DenseMatrix MakeReplica(const std::string& profile, std::size_t rows,
                             u64 seed) {
  gcm::DenseMatrix generated =
      gcm::GenerateDatasetRows(gcm::DatasetByName(profile), rows);
  const std::size_t cols = generated.cols();
  std::vector<std::size_t> order(rows);
  std::iota(order.begin(), order.end(), std::size_t{0});
  gcm::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  for (std::size_t i = rows; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  std::vector<double> shuffled(rows * cols);
  const double* src = generated.data().data();
  for (std::size_t r = 0; r < rows; ++r) {
    std::memcpy(shuffled.data() + r * cols, src + order[r] * cols,
                cols * sizeof(double));
  }
  return gcm::DenseMatrix(rows, cols, std::move(shuffled));
}

u64 MixSeed(u64 seed, u64 a, u64 b) {
  u64 z = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xc2b2ae3d27d4eb4fULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<double> RandomVector(std::size_t size, u64 seed) {
  gcm::Rng rng(seed);
  std::vector<double> v(size);
  for (double& x : v) x = rng.NextDouble() * 2.0 - 1.0;
  return v;
}

namespace {

std::filesystem::path RunScratch(const Options& options) {
  return std::filesystem::path(options.out_dir) /
         (options.workload + "-" + std::to_string(::getpid()));
}

}  // namespace

std::string ScratchDir(const Options& options, const std::string& name) {
  const std::filesystem::path dir = RunScratch(options) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void RemoveScratch(const Options& options) {
  std::filesystem::remove_all(RunScratch(options));
}

// ---------------------------------------------------------------------------
// Heap high-water
// ---------------------------------------------------------------------------

void HeapPeak::Start() {
  base_ = gcm::MemoryTracker::CurrentBytes();
  gcm::MemoryTracker::ResetPeak();
}

double HeapPeak::Bytes() const {
  const u64 peak = gcm::MemoryTracker::PeakBytes();
  return peak > base_ ? static_cast<double>(peak - base_) : 0.0;
}

// ---------------------------------------------------------------------------
// Run environment
// ---------------------------------------------------------------------------

IdleSpinners::IdleSpinners() {
  try {
    for (std::size_t i = 0; i < Nproc(); ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        if (::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &param) !=
            0) {
          return;
        }
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  } catch (...) {
    Stop();
    throw;
  }
}

IdleSpinners::~IdleSpinners() { Stop(); }

void IdleSpinners::Stop() {
  stop_ = true;
  for (std::thread& t : threads_) t.join();
}

// ---------------------------------------------------------------------------
// Run context
// ---------------------------------------------------------------------------

std::size_t Nproc() {
  long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

namespace {

u64 LlcBytes() {
  for (int name : {_SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    long bytes = ::sysconf(name);
    if (bytes > 0) return static_cast<u64>(bytes);
  }
  return 0;
}

u64 SrcLines(const std::string& repo_root) {
  std::filesystem::path src = std::filesystem::path(repo_root) / "src";
  if (!std::filesystem::is_directory(src)) return 0;
  u64 lines = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    lines += static_cast<u64>(std::count(std::istreambuf_iterator<char>(in),
                                         std::istreambuf_iterator<char>(),
                                         '\n'));
  }
  return lines;
}

}  // namespace

void PrintContext(const Options& options, Report* report) {
  report->Line("== perfbench: workload %s, seed %llu, %.3g s timed, "
               "trace %d%s ==",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), options.seconds,
               options.trace ? 1 : 0, options.toy ? ", toy sizes" : "");
  report->Line("context: nproc %zu, LLC %.1f MiB, simd %s, build %s, git %s, "
               "src/ %llu lines, heap tracking %s",
               Nproc(), static_cast<double>(LlcBytes()) / (1 << 20),
               gcm::simd::BackendName(), PERFBENCH_BUILD_TYPE,
               options.git_sha.c_str(),
               static_cast<unsigned long long>(SrcLines(options.repo_root)),
               gcm::MemoryTracker::TrackingActive() ? "on" : "off");
}

void PrintSizes(Report* report, const std::string& what, u64 dense_bytes,
                u64 compressed_bytes) {
  report->Line("sizes: %s: dense %.2f MB, compressed payload %.3f MB, LLC "
               "%.1f MiB (bytes moved are computed from these sizes, not "
               "measured)",
               what.c_str(), static_cast<double>(dense_bytes) / 1e6,
               static_cast<double>(compressed_bytes) / 1e6,
               static_cast<double>(LlcBytes()) / (1 << 20));
}

}  // namespace perfbench
