// Workload `solve`: the paper's Eq. (4) iteration in process.
//
// One closed-loop caller runs y = Mx, z^t = y^t M, x = z / ||z||_inf on a
// Mnist2m-profile replica stored as gcm:re_ans?blocks=4, on nproc / 2 kernel
// threads counting the calling thread. Nearly all of its time is in
// the core kernels, rANS / bit-packed decode and the pool; no net, serving
// or storage work happens in the timed phase.
#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "core/any_matrix.hpp"
#include "trace.hpp"
#include "util/memory_tracker.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

constexpr const char* kSpec = "gcm:re_ans?blocks=4";
constexpr const char* kProfile = "Mnist2m";
constexpr int kSetups = 5;

struct Loop {
  std::vector<double> iteration_ms;
  u64 iterations = 0;
  double seconds = 0.0;
  double heap_bytes = 0.0;  ///< heap high-water above the loop's start
  double aux_peak_bytes = 0.0;  ///< max heap rise inside one kernel call
};

/// Runs Eq. (4) for `seconds`, checking every iterate: finite, with
/// ||x||_inf exactly 1 after the normalisation.
Loop RunIterations(const gcm::AnyMatrix& m, std::vector<double>* x,
                   const gcm::MulContext& ctx, double seconds, bool track_aux,
                   Report* report) {
  Loop loop;
  std::vector<double> y(m.rows());
  std::vector<double> z(m.cols());
  loop.iteration_ms.reserve(static_cast<std::size_t>(kMaxOpsPerSecond *
                                                     seconds));
  HeapPeak heap;
  heap.Start();
  const Clock::time_point start = Clock::now();
  auto kernel = [&](auto&& call) {
    if (!track_aux) {
      call();
      return;
    }
    const u64 base = gcm::MemoryTracker::CurrentBytes();
    gcm::MemoryTracker::ResetPeak();
    call();
    const u64 peak = gcm::MemoryTracker::PeakBytes();
    loop.aux_peak_bytes = std::max(
        loop.aux_peak_bytes, peak > base ? static_cast<double>(peak - base)
                                         : 0.0);
  };
  while (SecondsSince(start) < seconds) {
    const Clock::time_point t0 = Clock::now();
    {
      trace::Scope iteration("solve.iteration", loop.iterations + 1);
      {
        trace::Scope right("core.right", loop.iterations + 1, 1);
        kernel([&] { m.MultiplyRightInto(*x, y, ctx); });
      }
      {
        trace::Scope left("core.left", loop.iterations + 1, 1);
        kernel([&] { m.MultiplyLeftInto(y, z, ctx); });
      }
      double norm = 0.0;
      for (double v : z) norm = std::max(norm, std::abs(v));
      if (norm != 0.0) {
        for (double& v : z) v /= norm;
      }
      std::swap(*x, z);
    }
    loop.iteration_ms.push_back(MillisBetween(t0, Clock::now()));
    ++loop.iterations;
    double inf_norm = 0.0;
    bool finite = true;
    for (double v : *x) {
      finite = finite && std::isfinite(v);
      inf_norm = std::max(inf_norm, std::abs(v));
    }
    report->Count(finite && inf_norm == 1.0);
  }
  loop.seconds = SecondsSince(start);
  loop.heap_bytes = heap.Bytes();
  return loop;
}

}  // namespace

void RunSolve(const Options& options, Report* report) {
  const std::size_t rows = options.toy ? 1500 : 8000;
  // Half the CPUs: every iteration waits for its slowest kernel thread, and
  // on a shared host the more CPUs it occupies the more often one of them
  // is stalled. Measured on the 4-vCPU machine this benchmark was built on
  // (interleaved runs): 4 threads read 9.3 to 13.3 ms per iteration, 2
  // threads 15.9 to 17.1 ms.
  const std::size_t kernel_threads = std::max<std::size_t>(1, Nproc() / 2);
  report->Line("workload solve: Eq. (4) on a %s replica, %zu rows, spec %s, "
               "closed loop with 1 caller, %zu kernel threads counting the "
               "caller",
               kProfile, rows, kSpec, kernel_threads);
  // ParallelFor lets the calling thread drain work too, so the pool has one
  // worker fewer than the kernel threads.
  std::unique_ptr<gcm::ThreadPool> pool =
      kernel_threads > 1 ? std::make_unique<gcm::ThreadPool>(kernel_threads - 1)
                         : nullptr;
  const gcm::MulContext ctx{pool.get()};

  std::vector<double> setup_s;
  std::vector<double> build_s;
  gcm::AnyMatrix matrix;
  gcm::DenseMatrix dense;
  double matrix_heap = 0.0;
  for (int rep = 0; rep < kSetups; ++rep) {
    matrix = gcm::AnyMatrix();
    dense = gcm::DenseMatrix();
    const Clock::time_point t0 = Clock::now();
    dense = MakeReplica(kProfile, rows, options.seed);
    const u64 heap_before = gcm::MemoryTracker::CurrentBytes();
    const Clock::time_point b0 = Clock::now();
    matrix = gcm::AnyMatrix::Build(dense, kSpec, {.pool = pool.get()});
    build_s.push_back(SecondsSince(b0));
    const u64 heap_after = gcm::MemoryTracker::CurrentBytes();
    matrix_heap = heap_after > heap_before
                      ? static_cast<double>(heap_after - heap_before)
                      : 0.0;
    std::vector<double> wx(matrix.cols(), 1.0);
    std::vector<double> wy(matrix.rows());
    for (int i = 0; i < 2; ++i) {
      matrix.MultiplyRightInto(wx, wy, ctx);
      matrix.MultiplyLeftInto(wy, wx, ctx);
    }
    setup_s.push_back(SecondsSince(t0));
  }
  const u64 dense_bytes = dense.UncompressedBytes();
  const u64 compressed = matrix.CompressedBytes();
  PrintSizes(report, std::string(kProfile) + " " + kSpec, dense_bytes,
             compressed);

  std::vector<double> x = RandomVector(matrix.cols(), options.seed + 1);
  InputHash hash;
  hash.Bytes(dense.data().data(), dense_bytes);
  hash.Doubles(x);
  report->Line("inputs: seed %llu, input hash %016llx (replica row order, "
               "start vector)",
               static_cast<unsigned long long>(options.seed),
               static_cast<unsigned long long>(hash.digest()));

  // The first product against the dense oracle, within a tolerance: the
  // grammar sums in another order than the dense loop.
  {
    std::vector<double> expected = dense.MultiplyRight(x);
    if (options.corrupt_expected) expected[expected.size() / 2] += 1.0;
    std::vector<double> got(matrix.rows());
    matrix.MultiplyRightInto(x, got, ctx);
    double scale = 1.0;
    double diff = 0.0;
    for (std::size_t i = 0; i < got.size(); ++i) {
      scale = std::max(scale, std::abs(expected[i]));
      diff = std::max(diff, std::abs(got[i] - expected[i]));
    }
    const bool ok = diff <= 1e-9 * scale;
    report->Count(ok);
    report->Line("check: first product vs dense oracle: max |diff| %.3g "
                 "(tolerance %.3g) %s",
                 diff, 1e-9 * scale, ok ? "ok" : "FAILED");
  }
  dense = gcm::DenseMatrix();

  const double seconds = options.seconds;
  Loop timed;
  if (!options.trace) {
    timed = RunIterations(matrix, &x, ctx, seconds, false, report);
  } else {
    // Untraced and traced halves of the same loop: their difference is
    // the tracing overhead. Then the same loop without a pool, the
    // single-thread baseline.
    const Loop plain =
        RunIterations(matrix, &x, ctx, 0.4 * seconds, false, report);
    trace::Enable(true);
    timed = RunIterations(matrix, &x, ctx, 0.4 * seconds, false, report);
    trace::Enable(false);
    const Loop seq =
        RunIterations(matrix, &x, {}, 0.2 * seconds, false, report);
    // Kernel heap is tracked apart: resetting the high-water mark before
    // every call makes the pool's allocations contend on it.
    const Loop aux = RunIterations(matrix, &x, ctx, 0.02 * seconds, true,
                                   report);

    const std::vector<trace::Summary> spans = trace::Summarize(trace::Spans());
    const trace::Summary* right = trace::Find(spans, "core.right");
    const trace::Summary* left = trace::Find(spans, "core.left");
    const double right_p50 = right ? Median(right->durations_ms) : 0.0;
    const double left_p50 = left ? Median(left->durations_ms) : 0.0;
    const Tail right_tail = HighestTail(right ? right->durations_ms
                                              : std::vector<double>{});
    const Tail left_tail = HighestTail(left ? left->durations_ms
                                            : std::vector<double>{});
    const double plain_p50 = Median(plain.iteration_ms);
    const double traced_p50 = Median(timed.iteration_ms);
    const double seq_p50 = Median(seq.iteration_ms);
    report->Layer("grammar.build_s", Median(build_s), "s",
                  "AnyMatrix::Build, median of " +
                      std::to_string(build_s.size()) + " setups");
    report->Layer("core.right_p50_ms", right_p50, "ms",
                  "MultiplyRightInto per call");
    report->Layer("core.right_tail_ms", right_tail.value, "ms",
                  PctLabel(right_tail.percentile) + " of " +
                      std::to_string(right_tail.samples) + " calls");
    report->Layer("core.left_p50_ms", left_p50, "ms",
                  "MultiplyLeftInto per call");
    report->Layer("core.left_tail_ms", left_tail.value, "ms",
                  PctLabel(left_tail.percentile) + " of " +
                      std::to_string(left_tail.samples) + " calls");
    report->Layer("core.computed_gbps",
                  right_p50 + left_p50 > 0.0
                      ? 2.0 * static_cast<double>(compressed) /
                            ((right_p50 + left_p50) * 1e-3) / 1e9
                      : 0.0,
                  "GB/s",
                  "compressed bytes / p50 call time (computed, not measured "
                  "traffic)");
    report->Layer("core.seq_iter_ms", seq_p50, "ms",
                  "same loop without a pool, p50 of " +
                      std::to_string(seq.iterations));
    report->Layer("util.pool_speedup",
                  plain_p50 > 0 ? seq_p50 / plain_p50 : 0.0, "x",
                  "core.seq_iter_ms / untraced iter_p50_ms");
    report->Layer("core.aux_peak_mb", aux.aux_peak_bytes / 1e6, "MB",
                  "max heap rise inside one kernel call");
    const Tail plain_tail = P99OrLower(plain.iteration_ms);
    const Tail traced_tail = P99OrLower(timed.iteration_ms);
    const double plain_rate =
        static_cast<double>(plain.iterations) / plain.seconds;
    const double traced_rate =
        static_cast<double>(timed.iterations) / timed.seconds;
    report->Layer("trace.overhead_latency_p50_pct",
                  100.0 * (traced_p50 / plain_p50 - 1.0), "%",
                  "traced vs untraced iteration p50");
    report->Layer("trace.overhead_latency_p99_pct",
                  100.0 * (traced_tail.value / plain_tail.value - 1.0), "%",
                  "traced vs untraced iteration tail");
    report->Layer("trace.overhead_throughput_pct",
                  100.0 * (plain_rate / traced_rate - 1.0), "%",
                  "untraced / traced iterations per second");
  }

  const Tail tail = P99OrLower(timed.iteration_ms);
  const Tail iter_tail = HighestTail(timed.iteration_ms);
  const double rate = static_cast<double>(timed.iterations) / timed.seconds;
  report->Line("solve: iter_p50_ms %.4f, iter_tail_ms %.4f (p%g, %zu "
               "iterations, at least 10 beyond)",
               Median(timed.iteration_ms), iter_tail.value,
               iter_tail.percentile, iter_tail.samples);
  report->EndToEnd("setup_s", Median(setup_s), "s", setup_s.size(),
                   "median setup: replica, RePair build, warm-up");
  report->EndToEnd("compressed_pct",
                   100.0 * static_cast<double>(compressed) /
                       static_cast<double>(dense_bytes),
                   "%", 0, "compressed / dense bytes (Table 1)");
  report->EndToEnd("latency_p50_ms", Median(timed.iteration_ms), "ms",
                   timed.iterations, "iter_p50_ms: one Eq. (4) iteration");
  report->EndToEnd("latency_p99_ms", tail.value, "ms", timed.iterations,
                   "iter_tail_ms at " + PctLabel(tail.percentile));
  report->EndToEnd("throughput_qps", rate, "1/s", timed.iterations,
                   "iterations per second");
  report->EndToEnd("max_rate_rps", rate, "1/s", timed.iterations,
                   "closed loop, 1 caller: the rate it sustains");
  report->EndToEnd("peak_heap_mb", timed.heap_bytes / 1e6, "MB",
                   0, "heap high-water of the iterations above their start");
  report->EndToEnd("peak_mem_pct",
                   100.0 * (matrix_heap + timed.heap_bytes) /
                       static_cast<double>(dense_bytes),
                   "%", 0, "(matrix heap + peak_heap) / dense (Table 2)");
  report->EndToEnd("resident_mb", static_cast<double>(compressed) / 1e6, "MB",
                   0, "whole compressed payload held in memory");
}

}  // namespace perfbench
