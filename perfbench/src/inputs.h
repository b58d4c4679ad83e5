// Seeded inputs and their oracle. Everything the program receives is
// generated here from the workload seed, into the benchmark's cache
// directory, once per (dataset, seed):
//
//   baseline.jpg.bin / baseline.idx   the baseline JPEGs, concatenated
//   labels.bin                        the class the generator gave each image
//   pcr/                              a PCR dataset (PosixEnv), written with
//                                     PcrDatasetWriter
//   oracle-g<k>.bin                   per-image pixel hashes at scan group k
//
// The oracle is computed apart from the paths under test: at full fidelity
// jpeg::ReferenceCodec decodes the original baseline JPEG (the transcode is
// lossless); at reduced groups it decodes the synchronous
// RecordSource::ReadRecord stream of the cached PCR.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset_spec.h"
#include "util/result.h"

namespace perfbench {

struct InputSet {
  pcr::DatasetSpec spec;
  std::string dir;
  std::string pcr_dir;
  std::vector<int64_t> labels;
  /// Baseline JPEGs: image i is blob[offsets[i], offsets[i+1]).
  std::string baseline_blob;
  std::vector<uint64_t> baseline_offsets;
  /// scan group -> hash per global image index.
  std::map<int, std::vector<uint64_t>> oracle;

  int num_images() const { return static_cast<int>(labels.size()); }
  std::string_view baseline(int i) const {
    return std::string_view(baseline_blob).substr(
        baseline_offsets[i], baseline_offsets[i + 1] - baseline_offsets[i]);
  }
};

/// Loads the inputs for `dataset` at `seed` from kCacheRoot, with oracle
/// tables for `groups`. With `generate`, first makes whatever is missing;
/// without it, missing inputs are an error. Datasets: "imagenet_like",
/// "celebahq_like", "ham10000_like".
pcr::Result<InputSet> PrepareInputs(const std::string& dataset, uint64_t seed,
                                    const std::vector<int>& groups,
                                    bool generate);

}  // namespace perfbench
