// Timed-regression gate for CI: compares a current bench CSV against the
// baseline artifact uploaded by a previous run and fails only when a timed
// metric regressed by more than a generous ratio (CI machines are noisy;
// the gate is meant to catch real regressions, not jitter).
//
//   $ ./bench_gate --baseline prev/bench_report.csv
//                  --current  report/bench_report.csv --max-ratio 2.5
//   $ ./bench_gate --baseline prev/micro.csv --current micro.csv
//   $ ./bench_gate --self-test          # exercises the gate logic itself
//
// Two CSV dialects are auto-detected by header:
//   * the tidy bench report (`bench,dataset,config,metric,value`) written
//     by the table benches / report_driver -- only metrics whose name
//     contains a time-like token ("sec" as in sec_per_iter, or "time") are
//     gated; sizes and ratios are informational and may legitimately move;
//   * google-benchmark CSV (`name,iterations,real_time,cpu_time,...`)
//     written by `micro_kernels --benchmark_out=... --benchmark_out_format=csv`
//     -- cpu_time is gated, except for rows google-benchmark names
//     `<name>/real_time` (UseRealTime()), whose real_time is gated: their
//     cpu_time counts the calling thread only and stays flat while it
//     waits on slower pool workers.
//
// A missing baseline passes with a note (the first run of a new pipeline
// has nothing to compare against), as do entries present on only one side
// (benches get added and removed); only a matching key that slowed past
// the ratio fails the gate.

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "util/cli.hpp"
#include "util/common.hpp"

using namespace gcm;

namespace {

/// key -> timed value (whatever unit, compared as a ratio).
using TimingMap = std::map<std::string, double>;

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  bool quoted = false;
  for (char c : line) {
    if (c == '"') {
      quoted = !quoted;
    } else if (c == ',' && !quoted) {
      fields.push_back(field);
      field.clear();
    } else {
      field += c;
    }
  }
  fields.push_back(field);
  return fields;
}

// "sec" covers sec_per_iter (the metric tables 2/4 actually emit) and any
// seconds_* variant; the self-test pins the production name so a metric
// rename cannot silently turn the gate vacuous again.
bool LooksTimed(const std::string& metric) {
  return metric.find("sec") != std::string::npos ||
         metric.find("time") != std::string::npos;
}

bool ParseDouble(const std::string& text, double* out) {
  std::istringstream is(text);
  return static_cast<bool>(is >> *out);
}

/// Loads the timed entries of either CSV dialect. Returns false (with a
/// message) when the file cannot be read; unparseable rows are skipped.
bool LoadTimings(const std::string& path, TimingMap* out) {
  std::ifstream in(path);
  if (!in.good()) return false;
  std::string line;
  // Find the header: either dialect's first parseable line.
  enum class Dialect { kUnknown, kTidy, kGoogleBenchmark } dialect =
      Dialect::kUnknown;
  std::size_t cpu_column = 0;
  std::size_t real_column = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitCsvLine(line);
    if (dialect == Dialect::kUnknown) {
      if (fields.size() >= 5 && fields[0] == "bench" &&
          fields[3] == "metric") {
        dialect = Dialect::kTidy;
        continue;
      }
      if (fields.size() >= 4 && fields[0] == "name") {
        dialect = Dialect::kGoogleBenchmark;
        for (std::size_t i = 0; i < fields.size(); ++i) {
          if (fields[i] == "cpu_time") cpu_column = i;
          if (fields[i] == "real_time") real_column = i;
        }
        // A header missing either time column is not the dialect.
        if (cpu_column == 0 || real_column == 0) return false;
        continue;
      }
      continue;  // google-benchmark context preamble etc.
    }
    double value = 0.0;
    if (dialect == Dialect::kTidy) {
      if (fields.size() < 5) continue;
      if (!LooksTimed(fields[3])) continue;
      if (!ParseDouble(fields[4], &value)) continue;
      (*out)[fields[0] + "/" + fields[1] + "/" + fields[2] + "/" +
             fields[3]] = value;
    } else {
      const std::size_t time_column =
          fields[0].ends_with("/real_time") ? real_column : cpu_column;
      if (fields.size() <= time_column) continue;
      if (!ParseDouble(fields[time_column], &value)) continue;
      (*out)[fields[0]] = value;
    }
  }
  return dialect != Dialect::kUnknown;
}

int RunGate(const std::string& baseline_path, const std::string& current_path,
            double max_ratio, double min_value) {
  TimingMap baseline;
  if (!LoadTimings(baseline_path, &baseline)) {
    std::printf("bench_gate: no usable baseline at %s; passing (first "
                "run?)\n",
                baseline_path.c_str());
    return 0;
  }
  TimingMap current;
  if (!LoadTimings(current_path, &current)) {
    std::fprintf(stderr, "bench_gate: cannot parse current csv %s\n",
                 current_path.c_str());
    return 2;
  }
  std::size_t compared = 0;
  std::vector<std::string> regressions;
  for (const auto& [key, now] : current) {
    auto it = baseline.find(key);
    if (it == baseline.end()) {
      std::printf("bench_gate: new entry (not gated): %s\n", key.c_str());
      continue;
    }
    double before = it->second;
    // Sub-threshold timings are dominated by fixed overhead and jitter.
    if (before < min_value || now < min_value) continue;
    ++compared;
    double ratio = now / before;
    if (ratio > max_ratio) {
      char buf[512];
      std::snprintf(buf, sizeof(buf), "%s: %.6g -> %.6g (%.2fx > %.2fx)",
                    key.c_str(), before, now, ratio, max_ratio);
      regressions.push_back(buf);
    }
  }
  for (const auto& [key, before] : baseline) {
    if (current.find(key) == current.end()) {
      std::printf("bench_gate: entry disappeared (not gated): %s\n",
                  key.c_str());
    }
  }
  std::printf("bench_gate: compared %zu timed entries at max ratio %.2f\n",
              compared, max_ratio);
  if (regressions.empty()) return 0;
  std::fprintf(stderr, "bench_gate: %zu regression(s):\n",
               regressions.size());
  for (const std::string& r : regressions) {
    std::fprintf(stderr, "  %s\n", r.c_str());
  }
  return 1;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  GCM_CHECK_MSG(out.good(), "cannot create " << path);
  out << content;
}

/// Exercises the gate against both dialects without needing fixtures on
/// disk beforehand; returns 0 when every expectation holds.
int SelfTest(const std::string& tmp_dir) {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "self-test FAILED: %s\n", what);
      ++failures;
    }
  };
  std::string base = tmp_dir + "/gate_base.csv";
  std::string good = tmp_dir + "/gate_good.csv";
  std::string bad = tmp_dir + "/gate_bad.csv";

  // Tidy dialect: sec_per_iter is the exact metric name the table benches
  // emit -- it MUST be recognized as timed (a rename that breaks this
  // fails the self-test, keeping the CI gate from going vacuous), while
  // the size metric regressing 10x must not trip the gate.
  const char* header = "bench,dataset,config,metric,value\n";
  WriteFile(base, std::string(header) +
                      "table2,Census,re_32,sec_per_iter,0.010\n"
                      "table2,Census,re_32,size_pct,10.0\n");
  WriteFile(good, std::string(header) +
                      "table2,Census,re_32,sec_per_iter,0.012\n"
                      "table2,Census,re_32,size_pct,100.0\n");
  WriteFile(bad, std::string(header) +
                     "table2,Census,re_32,sec_per_iter,0.500\n");
  expect(RunGate(base, good, 2.0, 0.0) == 0, "tidy: 1.2x passes at 2x");
  expect(RunGate(base, bad, 2.0, 0.0) == 1, "tidy: 50x fails at 2x");
  expect(RunGate(tmp_dir + "/gate_absent.csv", bad, 2.0, 0.0) == 0,
         "missing baseline passes");

  // google-benchmark dialect (cpu_time column).
  const char* gb_header =
      "name,iterations,real_time,cpu_time,time_unit,bytes_per_second,"
      "items_per_second,label,error_occurred,error_message\n";
  WriteFile(base, std::string(gb_header) +
                      "BM_RansDecode,100,2.1,2.0,ms,,,,,\n"
                      "BM_NewKernel,100,1.0,1.0,ms,,,,,\n");
  WriteFile(good, std::string(gb_header) + "BM_RansDecode,100,2.6,2.5,ms,,,,,\n");
  WriteFile(bad, std::string(gb_header) + "BM_RansDecode,100,9.1,9.0,ms,,,,,\n");
  expect(RunGate(base, good, 2.0, 0.0) == 0, "gb: 1.25x passes at 2x");
  expect(RunGate(base, bad, 2.0, 0.0) == 1, "gb: 4.5x fails at 2x");
  // Sub-threshold noise is ignored entirely.
  expect(RunGate(base, bad, 2.0, 100.0) == 0, "min-value filter passes");

  // Rows with extra user counters (micro_kernels emits bytes_per_second /
  // rows_per_second columns) must still gate on cpu_time found by header
  // index, and the counter values themselves must never be gated.
  const char* gb_counters_header =
      "name,iterations,real_time,cpu_time,time_unit,bytes_per_second,"
      "items_per_second,label,error_occurred,error_message,rows_per_second\n";
  WriteFile(base, std::string(gb_counters_header) +
                      "BM_MvmRightRe32,100,2.1,2.0,us,9.9e9,,,,,5e6\n");
  WriteFile(good, std::string(gb_counters_header) +
                      "BM_MvmRightRe32,100,2.6,2.5,us,1.0e9,,,,,4e5\n");
  WriteFile(bad, std::string(gb_counters_header) +
                     "BM_MvmRightRe32,100,9.1,9.0,us,9.9e9,,,,,5e6\n");
  expect(RunGate(base, good, 2.0, 0.0) == 0,
         "gb+counters: slower GB/s column alone passes");
  expect(RunGate(base, bad, 2.0, 0.0) == 1,
         "gb+counters: 4.5x cpu_time still fails");

  // A UseRealTime() row gates real_time: tripled wall time fails even
  // though the calling thread's cpu_time stayed flat. A plain row still
  // gates cpu_time, so its real_time alone may move.
  WriteFile(base, std::string(gb_header) +
                      "BM_MvmPooled4/real_time,100,3.0,1.0,us,,,,,\n"
                      "BM_MvmPlain,100,3.0,3.0,us,,,,,\n");
  WriteFile(good, std::string(gb_header) +
                      "BM_MvmPooled4/real_time,100,3.3,1.1,us,,,,,\n"
                      "BM_MvmPlain,100,9.0,3.0,us,,,,,\n");
  WriteFile(bad, std::string(gb_header) +
                     "BM_MvmPooled4/real_time,100,9.0,1.0,us,,,,,\n");
  expect(RunGate(base, good, 2.0, 0.0) == 0,
         "gb real_time: plain row ignores a 3x real_time");
  expect(RunGate(base, bad, 2.0, 0.0) == 1,
         "gb real_time: 3x real_time fails with flat cpu_time");
  WriteFile(bad, std::string(gb_header) + "BM_MvmPlain,100,3.0,9.0,us,,,,,\n");
  expect(RunGate(base, bad, 2.0, 0.0) == 1,
         "gb real_time: plain row's 3x cpu_time still fails");

  if (failures == 0) std::printf("bench_gate self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("bench_gate",
                "fail when timed bench metrics regress past a ratio");
  cli.AddFlag("baseline", "", "baseline csv (previous run's artifact)");
  cli.AddFlag("current", "", "current csv to gate");
  cli.AddFlag("max-ratio", "2.5",
              "fail when current/baseline exceeds this for a timed metric");
  cli.AddFlag("min-value", "0",
              "ignore entries where either side is below this value "
              "(overhead-dominated timings)");
  cli.AddFlag("self-test", "false", "run the built-in gate logic checks");
  cli.AddFlag("tmp-dir", "/tmp", "scratch directory for --self-test");
  if (!cli.Parse(argc, argv)) return 0;

  try {
    if (cli.GetBool("self-test")) {
      return SelfTest(cli.GetString("tmp-dir"));
    }
    if (cli.GetString("baseline").empty() ||
        cli.GetString("current").empty()) {
      std::fprintf(stderr,
                   "bench_gate: need --baseline and --current (or "
                   "--self-test)\n");
      return 2;
    }
    return RunGate(cli.GetString("baseline"), cli.GetString("current"),
                   cli.GetDouble("max-ratio"), cli.GetDouble("min-value"));
  } catch (const Error& e) {
    std::fprintf(stderr, "bench_gate: %s\n", e.what());
    return 2;
  }
}
