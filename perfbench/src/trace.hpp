// Spans around the calls the benchmark makes into each layer (traced runs
// only). A span is (name, start, end, parent, request id); spans opened on
// one thread nest, so a span's parent is whatever span that thread had open.
// Spans stay in memory and are written out when the run ends. A layer's self
// time is its span duration minus the part its child spans cover.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench::trace {

struct Span {
  const char* name = "";
  Clock::time_point start{};
  Clock::time_point end{};
  u64 id = 0;
  u64 parent = 0;   ///< 0 = root
  u64 request = 0;  ///< request / iteration / query id, 0 = none
  u32 thread = 0;
  u32 k = 0;        ///< vectors in the call, 0 = not a kernel call
  double ms() const { return MillisBetween(start, end); }
};

void Enable(bool on);
bool Enabled();

/// Records a span over its lifetime when tracing is on; free otherwise.
class Scope {
 public:
  explicit Scope(const char* name, u64 request = 0, u32 k = 0);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Span span_;
};

/// Records a span whose ends were taken elsewhere (a request that is sent
/// on one thread and answered on another).
void Record(const char* name, Clock::time_point start, Clock::time_point end,
            u64 request);

/// Everything recorded so far.
std::vector<Span> Spans();

struct Summary {
  std::string name;
  std::vector<double> durations_ms;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
/// Per span name: durations, total and self time, in first-seen order.
std::vector<Summary> Summarize(const std::vector<Span>& spans);
const Summary* Find(const std::vector<Summary>& summaries,
                    const std::string& name);

/// Writes one JSON object per span; returns the path written.
std::string WriteJsonl(const Options& options,
                       const std::vector<Span>& spans);

/// Prints the per-name table (count, p50, total, self).
void PrintSummary(Report* report, const std::vector<Summary>& summaries);

}  // namespace perfbench::trace
