// The benchmark's workloads and their inputs.
//
// Every workload runs the same model lifecycle on one dataset — load,
// cold fit, binary model I/O, open-loop serving on a rate ladder, then a
// refresh (delta batches folded in and hot-swapped under a serving
// stream, finished by a warm refit) — so every end-to-end metric exists
// on every workload. What differs is the dataset and how the run's time
// is shared between the phases, which decides the layer each workload
// stresses (see perfbench/README.md).
//
// Inputs come from the seed alone: `Generate` writes the base snapshot
// (the first 90 % of the nodes) and the full dataset with SaveDataset;
// the measured side only loads them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "core/inference.h"
#include "core/update.h"
#include "hin/dataset.h"
#include "hin/delta.h"

namespace perfbench {

enum class DataKind { kWeather, kAcp };

struct WorkloadSpec {
  const char* name;
  DataKind data;
  // Shares of --seconds given to the fit, serve and refresh phases.
  double fit_share;
  double serve_share;
  double refresh_share;
};

/// The workload named `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

/// Dataset name used for the input cache ("weather" or "acp").
const char* DataName(DataKind kind);

/// Generates the dataset of `kind` for `seed` and writes base.txt and
/// full.txt into `dir`.
genclus::Status Generate(DataKind kind, uint64_t seed, const std::string& dir);

/// Nodes of the base snapshot: the first 90 % of the full dataset.
size_t BaseNodes(size_t full_nodes);

genclus::FitOptions MakeFitOptions(DataKind kind, uint64_t seed,
                                   size_t threads);
genclus::RefitOptions MakeRefitOptions(DataKind kind, uint64_t seed,
                                       size_t threads);

/// Lowest NMI a correct fit or refit reaches on either dataset (both sit
/// near 0.88-0.90 at these settings).
inline constexpr double kNmiFloor = 0.80;

/// What the harness derives from full.txt, outside any timing: the
/// remainder of the base snapshot as a delta, the ground truth, and the
/// pool of fold-in queries served during the run.
struct HarnessInputs {
  genclus::Dataset full;
  size_t base_nodes = 0;
  genclus::NetworkDelta remainder;
  std::vector<genclus::NewObjectQuery> queries;
};

genclus::Result<HarnessInputs> LoadHarnessInputs(const std::string& dir);

/// Cuts `remainder` (nodes appended after `base_nodes`) into `count`
/// batches of consecutive new nodes; each link goes with the batch of its
/// later endpoint, so applying the batches in order rebuilds the full
/// dataset.
std::vector<genclus::NetworkDelta> SplitDelta(
    const genclus::NetworkDelta& remainder, size_t base_nodes, size_t count);

}  // namespace perfbench
