#include "core/format_advisor.hpp"

#include <algorithm>
#include <sstream>

#include "core/any_matrix.hpp"
#include "core/blocked_matrix.hpp"
#include "util/format.hpp"
#include "util/timer.hpp"

namespace gcm {
namespace {

constexpr GcFormat kFormats[] = {GcFormat::kCsrv, GcFormat::kRe32,
                                 GcFormat::kReIv, GcFormat::kReAns};

/// Deterministic stand-in for the timed probe: one right+left pair costs
/// ~two passes over the final sequence plus the W-array recurrences, with
/// a per-symbol weight reflecting each format's decode path (csrv streams
/// raw u32s; re_32 reads fixed 32-bit rule pairs; re_iv unpacks bit-packed
/// intervals; re_ans renormalizes an entropy coder per symbol). The
/// absolute scale (1 ns per weighted symbol) is nominal -- only the
/// ratios between formats matter, and they are reproducible.
double ModeledPairSeconds(const GcMatrix& compressed, GcFormat format) {
  double symbol_weight = 1.0;
  switch (format) {
    case GcFormat::kCsrv: symbol_weight = 1.0; break;
    case GcFormat::kRe32: symbol_weight = 1.1; break;
    case GcFormat::kReIv: symbol_weight = 1.6; break;
    case GcFormat::kReAns: symbol_weight = 5.0; break;
  }
  constexpr double kSecondsPerSymbol = 1e-9;
  double symbols = static_cast<double>(compressed.final_sequence_length());
  double rules = static_cast<double>(compressed.rule_count());
  return 2.0 * (symbols * symbol_weight + 2.0 * rules) * kSecondsPerSymbol;
}

}  // namespace

std::string AdvisorReport::ToString() const {
  std::ostringstream os;
  os << "format advisor (" << (any_fits ? "budget satisfiable" : "NO format fits the budget")
     << "):\n";
  for (const FormatEstimate& e : estimates) {
    os << "  " << FormatName(e.format) << ": ~"
       << FormatBytes(e.predicted_bytes) << " compressed, peak ~"
       << FormatBytes(e.predicted_peak_bytes) << ", "
       << FormatSeconds(e.predicted_seconds_per_iteration, 4) << "/iter"
       << (e.fits_budget ? "" : "  [over budget]")
       << (e.format == recommended ? "  <== recommended" : "") << "\n";
  }
  return os.str();
}

AdvisorReport AdviseFormat(const DenseMatrix& dense,
                           const AdvisorConstraints& constraints) {
  GCM_CHECK_MSG(dense.rows() > 0 && dense.cols() > 0,
                "cannot advise on an empty matrix");
  GCM_CHECK_MSG(constraints.blocks >= 1, "block count must be positive");
  const std::size_t sample_rows =
      std::min(dense.rows(),
               std::max<std::size_t>(1, constraints.sample_rows));
  DenseMatrix sample = sample_rows == dense.rows()
                           ? dense
                           : dense.RowSlice(0, sample_rows);
  const double scale = static_cast<double>(dense.rows()) /
                       static_cast<double>(sample_rows);
  const u64 vector_bytes =
      static_cast<u64>(dense.rows() + 2 * dense.cols()) * sizeof(double);

  AdvisorReport report;
  for (GcFormat format : kFormats) {
    GcMatrix compressed = GcMatrix::FromDense(sample, {format, 12, 0});

    FormatEstimate estimate;
    estimate.format = format;
    // Size: payload scales with rows; the dictionary does not (it is the
    // distinct-value set, which saturates quickly).
    u64 dict_bytes = compressed.dictionary().size() * sizeof(double);
    estimate.predicted_bytes =
        dict_bytes +
        static_cast<u64>(static_cast<double>(compressed.PayloadBytes()) *
                         scale);
    // Peak: representation + one W array (rule_count doubles) per block
    // (blocked builds split rules across blocks, so the total W footprint
    // stays ~rule_count overall) + the dense vectors of Eq. (4).
    u64 w_bytes = static_cast<u64>(
        static_cast<double>(compressed.rule_count()) * scale *
        sizeof(double));
    estimate.predicted_peak_bytes =
        estimate.predicted_bytes + w_bytes + vector_bytes;

    // Speed: time one right+left pair on the sample and scale by rows --
    // or, under the modeled probe, score the representation directly so
    // the ranking is reproducible.
    double sample_seconds;
    if (constraints.speed_probe == SpeedProbe::kModeled) {
      sample_seconds = ModeledPairSeconds(compressed, format);
    } else {
      std::vector<double> x(dense.cols(), 1.0);
      std::vector<double> y(compressed.rows());
      std::vector<double> z(compressed.cols());
      Timer timer;
      compressed.MultiplyRightInto(x, y);
      compressed.MultiplyLeftInto(y, z);
      sample_seconds = timer.Seconds();
    }
    // Parallel blocks divide the wall clock by at most the block count
    // (callers on single-core machines should pass blocks = 1).
    estimate.predicted_seconds_per_iteration =
        sample_seconds * scale / static_cast<double>(constraints.blocks);

    estimate.fits_budget =
        constraints.memory_budget_bytes == 0 ||
        estimate.predicted_peak_bytes <= constraints.memory_budget_bytes;
    report.estimates.push_back(estimate);
  }

  std::sort(report.estimates.begin(), report.estimates.end(),
            [](const FormatEstimate& a, const FormatEstimate& b) {
              return a.predicted_seconds_per_iteration <
                     b.predicted_seconds_per_iteration;
            });
  for (const FormatEstimate& e : report.estimates) {
    if (e.fits_budget) {
      report.recommended = e.format;
      report.any_fits = true;
      break;
    }
  }
  if (!report.any_fits) {
    // Nothing fits: fall back to the smallest representation.
    auto smallest = std::min_element(
        report.estimates.begin(), report.estimates.end(),
        [](const FormatEstimate& a, const FormatEstimate& b) {
          return a.predicted_peak_bytes < b.predicted_peak_bytes;
        });
    report.recommended = smallest->format;
  }
  return report;
}

AnyMatrix AdviseFormat(const DenseMatrix& dense,
                       const AdvisorConstraints& constraints,
                       AdvisorReport* report, const BuildContext& ctx) {
  AdvisorReport advice = AdviseFormat(dense, constraints);
  if (report != nullptr) *report = advice;
  GcBuildOptions options;
  options.format = advice.recommended;
  if (constraints.blocks > 1) {
    return AnyMatrix::Wrap(
        BlockedGcMatrix::Build(dense, constraints.blocks, options, {}, ctx));
  }
  return AnyMatrix::Wrap(GcMatrix::FromDense(dense, options));
}

}  // namespace gcm
