// Domain example: compressed columnar-table analytics.
//
//   $ ./columnar_table [--rows 50000]
//
// The paper's conclusions propose adapting the scheme "in the context of
// columnar DBs, which feature multiple data types". This example encodes a
// typed fact table (categorical region, categorical product tier, integer
// quantity, real price) as a real-valued matrix, grammar-compresses it,
// and answers SQL-style aggregates *without decompressing*:
//
//   SUM(col)                 -> left multiplication with the all-ones vector
//   SUM(col) WHERE pred(row) -> left multiplication with an indicator vector
//   per-row projection       -> GcMatrix::ExtractRow
//
// i.e. the scan-heavy part of a warehouse query becomes one compressed
// matrix-vector product.

#include <cstdio>

#include "core/any_matrix.hpp"
#include "core/gc_matrix.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

using namespace gcm;

namespace {

// Column layout of the fact table.
enum Column : std::size_t {
  kRegion = 0,    // categorical: 1..5
  kTier = 1,      // categorical: 1..3
  kQuantity = 2,  // integer 1..20
  kPrice = 3,     // one of 40 list prices
  kColumns = 4,
};

}  // namespace

int main(int argc, char** argv) {
  CliParser cli("columnar_table",
                "SQL-style aggregates over a compressed fact table");
  cli.AddFlag("rows", "50000", "fact-table rows");
  if (!cli.Parse(argc, argv)) return 0;
  const std::size_t rows = static_cast<std::size_t>(cli.GetInt("rows"));

  // Build the fact table: correlated columns (tier determines the price
  // band; region skews quantity), exactly the redundancy a warehouse
  // table exhibits and RePair exploits.
  Rng rng(2024);
  DenseMatrix table(rows, kColumns);
  for (std::size_t r = 0; r < rows; ++r) {
    double region = 1.0 + static_cast<double>(rng.SkewedBelow(5, 0.6));
    double tier = 1.0 + static_cast<double>(rng.SkewedBelow(3, 0.5));
    double quantity =
        1.0 + static_cast<double>(rng.SkewedBelow(20, 0.8));
    double price = 10.0 * tier + static_cast<double>(rng.Below(10));
    table.Set(r, kRegion, region);
    table.Set(r, kTier, tier);
    table.Set(r, kQuantity, quantity);
    table.Set(r, kPrice, price);
  }

  GcMatrix compressed = GcMatrix::FromDense(table, {GcFormat::kReAns, 12, 0});
  std::printf("fact table: %zu rows x %zu cols, %s dense -> %s compressed "
              "(%.2f%%)\n\n",
              rows, static_cast<std::size_t>(kColumns),
              FormatBytes(table.UncompressedBytes()).c_str(),
              FormatBytes(compressed.CompressedBytes()).c_str(),
              100.0 * static_cast<double>(compressed.CompressedBytes()) /
                  static_cast<double>(table.UncompressedBytes()));

  // The engine handle's allocating multiplies keep each query one line.
  AnyMatrix facts = AnyMatrix::Ref(compressed);

  // Q1: SELECT SUM(quantity), SUM(price) FROM facts
  // One left multiplication with the all-ones vector sums every column.
  std::vector<double> ones(rows, 1.0);
  std::vector<double> totals = facts.MultiplyLeft(ones);
  std::printf("Q1  SELECT SUM(quantity), SUM(price):\n"
              "    %.0f units, %.2f total price\n\n",
              totals[kQuantity], totals[kPrice]);

  // Q2: SELECT SUM(price) WHERE region = 2
  // The predicate becomes an indicator vector; region is checked with
  // ExtractRow-free logic: we need per-row region values, which is itself
  // a right multiplication with the region basis vector.
  std::vector<double> region_basis(kColumns, 0.0);
  region_basis[kRegion] = 1.0;
  std::vector<double> region_of_row = facts.MultiplyRight(region_basis);
  std::vector<double> indicator(rows, 0.0);
  std::size_t matched = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    if (region_of_row[r] == 2.0) {
      indicator[r] = 1.0;
      ++matched;
    }
  }
  std::vector<double> filtered = facts.MultiplyLeft(indicator);
  std::printf("Q2  SELECT SUM(price) WHERE region = 2:\n"
              "    %.2f over %zu matching rows\n\n",
              filtered[kPrice], matched);

  // Q3: GROUP BY region: five indicator multiplications = the whole
  // grouped aggregate, still on the compressed table.
  std::printf("Q3  SELECT region, SUM(quantity) GROUP BY region:\n");
  for (double region = 1.0; region <= 5.0; region += 1.0) {
    std::vector<double> group(rows, 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      group[r] = region_of_row[r] == region ? 1.0 : 0.0;
    }
    std::vector<double> sums = facts.MultiplyLeft(group);
    std::printf("    region %.0f: %.0f units\n", region, sums[kQuantity]);
  }

  // Q4: point lookup: SELECT * FROM facts WHERE rowid = 123.
  std::vector<double> row = compressed.ExtractRow(123);
  std::printf("\nQ4  SELECT * WHERE rowid = 123:\n"
              "    region=%.0f tier=%.0f quantity=%.0f price=%.2f\n",
              row[kRegion], row[kTier], row[kQuantity], row[kPrice]);

  // Verify every answer against the uncompressed table.
  std::vector<double> expected = table.MultiplyLeft(ones);
  double diff = MaxAbsDiff(totals, expected);
  for (std::size_t c = 0; c < kColumns; ++c) {
    if (row[c] != table.At(123, c)) diff = 1.0;
  }
  std::printf("\nverification vs dense table: max diff %.2e (%s)\n", diff,
              diff < 1e-9 ? "exact" : "MISMATCH");
  return diff < 1e-9 ? 0 : 1;
}
