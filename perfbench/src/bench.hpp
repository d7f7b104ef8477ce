// Shared pieces of the repository benchmark: options, the metric report,
// statistics, input hashing, the heap high-water and the workload entry
// points.
//
// Every workload follows the same shape: set up several times (the median
// is `setup_s`), keep the last setup for the timed phase, check every
// answer it gets, and fill a Report. The report prints a human-readable
// block and, as the last line of stdout, one JSON object whose metrics are
// the end-to-end set (untraced run) or the per-layer set (traced run); see
// BENCHMARK.json and perfbench/workloads.json for the definitions.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "matrix/dense_matrix.hpp"
#include "util/common.hpp"

namespace perfbench {

using gcm::u16;
using gcm::u32;
using gcm::u64;
using gcm::u8;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Toy sizes: every workload finishes in a few seconds (the self-test).
  bool toy = false;
  /// Corrupts one expected answer, so the output check must count failures
  /// (proves the check is live).
  bool corrupt_expected = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
  std::string repo_root = ".";
};

/// One named metric with its unit; `samples` is the count it was computed
/// from (0 when it is a single reading), `note` says how.
struct Metric {
  double value = 0.0;
  std::string unit;
  u64 samples = 0;
  std::string note;
};

class Report {
 public:
  void EndToEnd(const std::string& name, double value, const std::string& unit,
                u64 samples, const std::string& note);
  void Layer(const std::string& name, double value, const std::string& unit,
             const std::string& note);
  /// printf-style line of the human-readable block.
  void Line(const char* format, ...) __attribute__((format(printf, 2, 3)));

  /// Counts one checked operation; `ok` false counts a failure.
  void Count(bool ok) { Add(1, ok ? 0 : 1); }
  void Add(u64 attempted_ops, u64 failed_ops) {
    attempted += attempted_ops;
    failed += failed_ops;
  }

  u64 attempted = 0;
  u64 failed = 0;

  /// Prints the metric tables and the final JSON line; returns the exit
  /// code (nonzero when any check failed).
  int Finish(const Options& options) const;

 private:
  std::map<std::string, Metric> end_to_end_;
  std::map<std::string, Metric> layers_;
};

// ---- Statistics.

/// q-quantile (0..1) with linear interpolation; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

/// The highest of p99.9 / p99 / p95 / p90 / p50 that leaves at least ten
/// samples beyond it.
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
  std::size_t samples = 0;
};
Tail HighestTail(const std::vector<double>& values);

/// p99 when at least ten samples lie beyond it, otherwise the highest
/// percentile that does (the report names which one it used).
Tail P99OrLower(const std::vector<double>& values);

/// "p99", "p99.9", ...
std::string PctLabel(double percentile);

// ---- Time.

using Clock = std::chrono::steady_clock;
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- Inputs.

/// 64-bit hash over every generated input, printed so that the same seed
/// can be shown to give the same inputs and a different seed different
/// ones.
class InputHash {
 public:
  void Bytes(const void* data, std::size_t size);
  void Doubles(const std::vector<double>& values) {
    Bytes(values.data(), values.size() * sizeof(double));
  }
  void Value(u64 value) { Bytes(&value, sizeof(value)); }
  u64 digest() const { return h_; }

 private:
  u64 h_ = 0xcbf29ce484222325ULL;
};

/// A replica of a paper dataset profile with `rows` rows whose row order is
/// a permutation drawn from `seed`.
gcm::DenseMatrix MakeReplica(const std::string& profile, std::size_t rows,
                             u64 seed);

/// Derives an independent stream seed from the workload seed and tags.
u64 MixSeed(u64 seed, u64 a, u64 b = 0);

/// Uniform doubles in [-1, 1).
std::vector<double> RandomVector(std::size_t size, u64 seed);

/// A fresh, empty directory under this run's scratch directory (inside the
/// output directory); RemoveScratch deletes the run's scratch directory.
std::string ScratchDir(const Options& options, const std::string& name);
void RemoveScratch(const Options& options);

// ---- Heap.

/// Heap high-water of a timed phase above the heap when the phase started
/// (MemoryTracker counts every allocation of the process, all threads).
/// The benchmark's own per-operation samples are reserved before Start()
/// for kMaxOpsPerSecond: a vector that doubled inside the phase would add
/// its old and new buffers to the high-water whenever the operation count
/// crossed a power of two (cold_ranges, ten runs at about 4096 queries:
/// 0.212 or 0.277 MB).
constexpr double kMaxOpsPerSecond = 10000.0;

class HeapPeak {
 public:
  void Start();
  /// The high-water since Start() minus the heap at Start(), in bytes.
  double Bytes() const;

 private:
  u64 base_ = 0;
};

// ---- Run environment.

/// Holds every CPU out of idle while it lives: one SCHED_IDLE thread per
/// CPU spins on a pause loop, so a thread the program wakes preempts a
/// spinner at once instead of waiting for a halted CPU to resume. On a
/// virtual machine that wait is the hypervisor's, takes milliseconds and
/// follows the host's load. Measured on the shared 4-vCPU machine this
/// benchmark was built on, over ten serve runs each: latency_p50_ms read
/// 3.9 to 7.5 ms without spinners (IQR/median 0.46) and 3.3 to 4.0 ms with
/// them (0.13). Spinners take no time from runnable threads, but they do
/// compete for the host: the CPU-bound solve workload spread 0.29 with them
/// against 0.05 without, so only the serving workloads use them. Where
/// SCHED_IDLE is refused they do not spin.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  void Stop();
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// ---- Run context and workloads.

void PrintContext(const Options& options, Report* report);
/// Bytes beside the LLC size; bytes moved are computed, not measured.
void PrintSizes(Report* report, const std::string& what, u64 dense_bytes,
                u64 compressed_bytes);
std::size_t Nproc();

void RunSolve(const Options& options, Report* report);
void RunServe(const Options& options, Report* report);
void RunColdRanges(const Options& options, Report* report);

}  // namespace perfbench
