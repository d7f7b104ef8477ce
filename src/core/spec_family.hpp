// The spec-family seam: how AnyMatrix::Build and AnyMatrix::Load reach a
// backend family by name.
//
// Each layer describes the families it implements as SpecFamily entries,
// core its backends in CoreSpecFamilies() and the layers above it their
// scatter/gather families. One file outside core, src/spec_families.cpp,
// lists them all in SpecFamilies(). Core calls only SpecFamilies(), so the
// engine never includes a layer built on top of it.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "core/any_matrix.hpp"

namespace gcm {

struct SpecFamily {
  std::string_view name;
  /// Allowed :variant values; empty = the family takes no variant.
  std::vector<std::string_view> variants;
  /// Allowed ?key names.
  std::vector<std::string_view> keys;
  AnyMatrix (*build)(const DenseMatrix&, const MatrixSpec&,
                     const BuildContext&);
  /// Dense-free ingestion from COO triplets; nullptr = AnyMatrix::Build
  /// stages a dense copy and calls `build`.
  AnyMatrix (*build_from_triplets)(std::size_t rows, std::size_t cols,
                                   std::vector<Triplet> entries,
                                   const MatrixSpec&, const BuildContext&);
  /// Restores a matrix of this family from a snapshot; nullptr for
  /// families that never appear in snapshot headers ("auto" resolves to a
  /// concrete backend before Save runs). `origin_path` is the file the
  /// snapshot was read from ("" when loading from bytes); the sharded
  /// family resolves sibling shard files relative to it.
  AnyMatrix (*load)(const SnapshotReader&, const MatrixSpec&,
                    const std::string& origin_path);
};

/// Core's own families: dense, csr, csr_iv, csrv, gcm, cla and auto. A
/// scatter/gather family takes only these as its inner spec.
const std::vector<SpecFamily>& CoreSpecFamilies();

/// Every family the engine can build or load, in AnyMatrix::ListSpecs()
/// order. Defined in src/spec_families.cpp.
const std::vector<SpecFamily>& SpecFamilies();

}  // namespace gcm
