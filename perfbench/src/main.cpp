// perfbench: the repository benchmark binary (run it through run.py).
//
//   perfbench --workload solve|serve|cold_ranges --seed N
//             --seconds S --trace 0|1 [--toy] [--corrupt-expected]
//             [--out-dir DIR] [--git-sha SHA] [--repo-root DIR]
//
// Prints a human-readable report and, as its last stdout line, one JSON
// object {"correct", "attempted", "failed", "metrics"}. Exits 0 only when
// every checked answer was right.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload solve|serve|cold_ranges --seed N "
               "--seconds S --trace 0|1 [--toy] "
               "[--corrupt-expected] [--out-dir DIR] [--git-sha SHA] "
               "[--repo-root DIR]\n");
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      options->workload = value();
    } else if (arg == "--seed") {
      options->seed = std::stoull(value());
    } else if (arg == "--seconds") {
      options->seconds = std::stod(value());
    } else if (arg == "--trace") {
      options->trace = value() != "0";
    } else if (arg == "--toy") {
      options->toy = true;
    } else if (arg == "--corrupt-expected") {
      options->corrupt_expected = true;
    } else if (arg == "--out-dir") {
      options->out_dir = value();
    } else if (arg == "--git-sha") {
      options->git_sha = value();
    } else if (arg == "--repo-root") {
      options->repo_root = value();
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  return options->workload == "solve" || options->workload == "serve" ||
         options->workload == "cold_ranges";
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseArgs(argc, argv, &options) || options.seconds <= 0.0) {
    Usage();
    return 2;
  }
  Report report;
  PrintContext(options, &report);
  if (options.workload == "solve") {
    RunSolve(options, &report);
  } else if (options.workload == "cold_ranges") {
    RunColdRanges(options, &report);
  } else {
    RunServe(options, &report);
  }
  if (options.trace) {
    const std::vector<trace::Span> spans = trace::Spans();
    trace::PrintSummary(&report, trace::Summarize(spans));
    report.Line("trace: %zu spans written to %s", spans.size(),
                trace::WriteJsonl(options, spans).c_str());
  }
  return report.Finish(options);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
