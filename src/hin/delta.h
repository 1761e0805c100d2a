// Streaming growth of a HIN dataset. A NetworkDelta describes what
// arrived since a base snapshot — new objects, new links (between any mix
// of old and new nodes) and new attribute observations — in the base's id
// space: the i-th new node of a delta gets id base.num_nodes() + i.
//
// Growth appends in place: GrowDataset adds a delta list's nodes, links,
// observations and labels to a Dataset at O(delta + touched rows) cost
// plus bulk moves of the adjacency arrays — base links and observations
// are never replayed. Ids of surviving nodes never change, which is what
// lets Engine::Refit and ApplyUpdates (core/update.h) carry their Theta
// rows over. Growing a dataset invalidates any Engine or Server created on
// its network, and any span or pointer into it, exactly as move-assigning
// a new dataset over it would. ApplyNetworkDelta is the copying form, and
// SliceDatasetPrefix cuts one full dataset into a base-plus-remainder pair
// — the growth-fixture generator refit_bench and the
// incremental-maintenance tests are built on.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "hin/dataset.h"

namespace genclus {

/// A node that arrived after the base snapshot. Delta nodes are appended
/// in order, so the i-th one gets id base.num_nodes() + i.
struct DeltaNode {
  ObjectTypeId type = 0;
  std::string name;
};

/// A link that arrived after the base snapshot; endpoints address the
/// grown id space (base nodes keep their ids, delta nodes follow).
struct DeltaLink {
  NodeId src = 0;
  NodeId dst = 0;
  LinkTypeId type = 0;
  double weight = 1.0;
};

/// One late-arriving attribute observation. `attribute` indexes the base
/// dataset's attribute list; term/count apply to categorical attributes,
/// value to numerical ones. Observations may land on old nodes too — the
/// incomplete-attribute setting, where attributes trickle in after the
/// object itself.
struct DeltaObservation {
  AttributeId attribute = 0;
  NodeId node = 0;
  uint32_t term = 0;
  double count = 1.0;
  double value = 0.0;
};

/// One batch of growth relative to a base snapshot.
struct NetworkDelta {
  std::vector<DeltaNode> nodes;
  std::vector<DeltaLink> links;
  std::vector<DeltaObservation> observations;
  /// Ground-truth labels of the new nodes (evaluation only): either empty
  /// or parallel to `nodes`, kUnlabeled for unknown.
  std::vector<uint32_t> node_labels;

  bool empty() const {
    return nodes.empty() && links.empty() && observations.empty();
  }
};

/// Grows `dataset` in place by `deltas`, applied in order: each delta
/// addresses the network as of its turn, its nodes append in order, and
/// each observation is applied according to its attribute's kind
/// (term/count for categorical, value for numerical). The whole list is
/// validated before anything changes — node types, link endpoints, link
/// types against the schema's endpoint types, weights, attribute ids,
/// terms, counts, values and label counts — and on error (InvalidArgument,
/// or OutOfRange when the node id space runs out) `dataset` is unchanged.
/// The result equals a NetworkBuilder::Build of the grown link set.
Status GrowDataset(Dataset* dataset, std::span<const NetworkDelta> deltas);

/// Copies `base`, grows the copy by `delta` (GrowDataset) and returns it.
Result<Dataset> ApplyNetworkDelta(const Dataset& base,
                                  const NetworkDelta& delta);

/// Cuts `remainder` — a delta whose nodes append after `base_nodes`
/// nodes — into `count` batches of consecutive new nodes (clamped to
/// [1, max(1, new nodes)]). Each link goes with the batch of its later
/// endpoint and each observation with the batch of its node (old nodes
/// count as batch 0, ids past the new nodes the last batch), so growing
/// by the batches in order equals growing by `remainder`.
std::vector<NetworkDelta> SplitRemainder(const NetworkDelta& remainder,
                                         size_t base_nodes, size_t count);

/// Cuts `full` into its first `num_nodes` nodes — keeping exactly the
/// links and observations among them — and, when `remainder` is non-null,
/// the delta holding everything else, addressed so that
/// ApplyNetworkDelta(prefix, *remainder) reproduces `full` exactly.
/// Fails with InvalidArgument when num_nodes > full.network.num_nodes().
Result<Dataset> SliceDatasetPrefix(const Dataset& full, size_t num_nodes,
                                   NetworkDelta* remainder);

}  // namespace genclus
