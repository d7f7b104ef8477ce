#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <unordered_map>

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<u64> g_next_id{0};
std::atomic<u32> g_next_thread{0};
std::mutex g_mu;
std::vector<Span> g_spans;  // guarded by g_mu

thread_local std::vector<u64> t_open;  // ids of this thread's open spans
thread_local u32 t_thread = 0;

u32 ThreadIndex() {
  if (t_thread == 0) t_thread = ++g_next_thread;
  return t_thread;
}

void Push(const Span& span) {
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back(span);
}

}  // namespace

void Enable(bool on) {
  if (on) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_spans.reserve(1 << 16);
  }
  g_enabled = on;
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

Scope::Scope(const char* name, u64 request, u32 k) {
  if (!Enabled()) return;
  span_.name = name;
  span_.id = ++g_next_id;
  span_.parent = t_open.empty() ? 0 : t_open.back();
  span_.request = request;
  span_.thread = ThreadIndex();
  span_.k = k;
  t_open.push_back(span_.id);
  span_.start = Clock::now();
}

Scope::~Scope() {
  if (span_.id == 0) return;
  span_.end = Clock::now();
  t_open.pop_back();
  Push(span_);
}

void Record(const char* name, Clock::time_point start, Clock::time_point end,
            u64 request) {
  if (!Enabled()) return;
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.id = ++g_next_id;
  span.request = request;
  span.thread = ThreadIndex();
  Push(span);
}

std::vector<Span> Spans() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_spans;
}

std::vector<Summary> Summarize(const std::vector<Span>& spans) {
  // Children of one parent ran on the parent's thread inside its interval
  // and one after another, so the part they cover is the sum of their
  // durations.
  std::unordered_map<u64, double> child_ms;
  for (const Span& span : spans) {
    if (span.parent != 0) child_ms[span.parent] += span.ms();
  }
  std::vector<Summary> out;
  std::unordered_map<std::string, std::size_t> index;
  for (const Span& span : spans) {
    auto [it, fresh] = index.emplace(span.name, out.size());
    if (fresh) out.push_back(Summary{span.name, {}, 0.0, 0.0});
    Summary& summary = out[it->second];
    const double ms = span.ms();
    summary.durations_ms.push_back(ms);
    summary.total_ms += ms;
    auto child = child_ms.find(span.id);
    summary.self_ms +=
        std::max(0.0, ms - (child == child_ms.end() ? 0.0 : child->second));
  }
  return out;
}

const Summary* Find(const std::vector<Summary>& summaries,
                    const std::string& name) {
  for (const Summary& summary : summaries) {
    if (summary.name == name) return &summary;
  }
  return nullptr;
}

std::string WriteJsonl(const Options& options,
                       const std::vector<Span>& spans) {
  std::filesystem::create_directories(options.out_dir);
  const std::string path = (std::filesystem::path(options.out_dir) /
                            ("trace_" + options.workload + "_seed" +
                             std::to_string(options.seed) + ".jsonl"))
                               .string();
  std::ofstream out(path);
  const Clock::time_point origin =
      spans.empty() ? Clock::now()
                    : std::min_element(spans.begin(), spans.end(),
                                       [](const Span& a, const Span& b) {
                                         return a.start < b.start;
                                       })
                          ->start;
  for (const Span& span : spans) {
    out << "{\"name\": \"" << span.name << "\", \"start_us\": "
        << MillisBetween(origin, span.start) * 1e3
        << ", \"end_us\": " << MillisBetween(origin, span.end) * 1e3
        << ", \"id\": " << span.id << ", \"parent\": " << span.parent
        << ", \"request\": " << span.request << ", \"thread\": "
        << span.thread << ", \"k\": " << span.k << "}\n";
  }
  return path;
}

void PrintSummary(Report* report, const std::vector<Summary>& summaries) {
  report->Line("trace: %-28s %8s %10s %12s %12s", "span", "count", "p50 ms",
               "total ms", "self ms");
  for (const Summary& s : summaries) {
    report->Line("trace: %-28s %8zu %10.4f %12.2f %12.2f", s.name.c_str(),
                 s.durations_ms.size(), Median(s.durations_ms), s.total_ms,
                 s.self_ms);
  }
}

}  // namespace perfbench::trace
