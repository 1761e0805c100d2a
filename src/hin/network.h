// The heterogeneous information network G = (V, E, W): typed nodes, typed
// weighted directed links, CSR adjacency in both directions. Built via
// NetworkBuilder; the EM inner loop scans contiguous out-link (and in-link)
// ranges. The only mutation after Build is growth through GrowDataset
// (hin/delta.h), which appends nodes and links in place.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "hin/schema.h"
#include "hin/types.h"

namespace genclus {

/// One directed link endpoint as seen from a fixed node: the neighbor, the
/// relation, and the input weight w(e).
struct LinkEntry {
  NodeId neighbor;
  LinkTypeId type;
  double weight;
};

struct Dataset;
struct NetworkDelta;

/// SoA view of one relation's out-adjacency: the CSR matrix W_r over all
/// nodes, with neighbor ids and weights in contiguous arrays. Row v spans
/// [row_offsets[v], row_offsets[v + 1]); neighbors are ascending within a
/// row. This is the shape the EM E-step's SpMM kernel consumes (the link
/// term of Eq. 10 is sum_r gamma_r * W_r Theta).
struct RelationCsr {
  std::span<const size_t> row_offsets;  // num_nodes + 1
  std::span<const NodeId> neighbors;
  std::span<const double> weights;

  size_t nnz() const { return neighbors.size(); }
};

class Network;

/// Accumulates nodes and links, validates them against the schema, and
/// produces a Network.
class NetworkBuilder {
 public:
  explicit NetworkBuilder(Schema schema) : schema_(std::move(schema)) {}

  /// Adds an object of the given type; `name` is for reporting only and
  /// need not be unique. Returns the dense node id.
  Result<NodeId> AddNode(ObjectTypeId type, std::string name = "");

  /// Adds a directed link src -> dst of relation `type` with weight > 0.
  /// Endpoint object types must match the schema's declaration.
  Status AddLink(NodeId src, NodeId dst, LinkTypeId type, double weight = 1.0);

  size_t num_nodes() const { return node_types_.size(); }
  size_t num_links() const { return link_srcs_.size(); }

  /// Finalizes into a Network. The builder is consumed.
  Result<Network> Build() &&;

 private:
  Schema schema_;
  std::vector<ObjectTypeId> node_types_;
  std::vector<std::string> node_names_;
  std::vector<NodeId> link_srcs_;
  std::vector<NodeId> link_dsts_;
  std::vector<LinkTypeId> link_types_;
  std::vector<double> link_weights_;
};

/// Typed directed graph with per-direction CSR adjacency. Const after
/// Build except for in-place growth (GrowDataset, hin/delta.h), which
/// keeps every id and invalidates the spans, views and pointers handed
/// out before it — an Engine or Server created on the network must be
/// recreated, exactly as if a new network had been move-assigned over it.
class Network {
 public:
  Network() = default;

  const Schema& schema() const { return schema_; }
  size_t num_nodes() const { return node_types_.size(); }
  size_t num_links() const { return out_entries_.size(); }

  ObjectTypeId node_type(NodeId v) const {
    GENCLUS_DCHECK(v < node_types_.size());
    return node_types_[v];
  }
  const std::string& node_name(NodeId v) const {
    GENCLUS_DCHECK(v < node_names_.size());
    return node_names_[v];
  }

  /// All nodes of one object type, in id order.
  const std::vector<NodeId>& NodesOfType(ObjectTypeId t) const;

  /// Out-links of v (v is the source), grouped contiguously; the span is
  /// sorted by link type, then neighbor, then weight — a strict total
  /// order, so the layout does not depend on insertion order.
  std::span<const LinkEntry> OutLinks(NodeId v) const {
    GENCLUS_DCHECK(v < node_types_.size());
    return {out_entries_.data() + out_offsets_[v],
            out_offsets_[v + 1] - out_offsets_[v]};
  }

  /// In-links of v (v is the target); entry.neighbor is the source node.
  std::span<const LinkEntry> InLinks(NodeId v) const {
    GENCLUS_DCHECK(v < node_types_.size());
    return {in_entries_.data() + in_offsets_[v],
            in_offsets_[v + 1] - in_offsets_[v]};
  }

  /// Position of v's first out-link among all out-links in node order:
  /// OutLinks(v) covers [OutLinkOffset(v), OutLinkOffset(v) + OutDegree(v)).
  size_t OutLinkOffset(NodeId v) const {
    GENCLUS_DCHECK(v < node_types_.size());
    return out_offsets_[v];
  }

  size_t OutDegree(NodeId v) const { return OutLinks(v).size(); }
  size_t InDegree(NodeId v) const { return InLinks(v).size(); }

  /// Out-adjacency of one relation as a CSR matrix over all nodes. The
  /// arrays are materialized at Build time, so the view is valid until the
  /// network grows and costs nothing to obtain.
  RelationCsr OutCsr(LinkTypeId r) const {
    GENCLUS_DCHECK(r < typed_out_offsets_.size());
    return {typed_out_offsets_[r], typed_out_neighbors_[r],
            typed_out_weights_[r]};
  }

  /// Number of links of each relation across the whole network.
  const std::vector<size_t>& LinkCountsByType() const {
    return link_counts_by_type_;
  }

  /// Sum of link weights of each relation, added in adjacency order.
  const std::vector<double>& LinkWeightsByType() const {
    return link_weights_by_type_;
  }

  /// Weight of the src -> dst link of relation `type`; 0 when absent.
  double LinkWeight(NodeId src, NodeId dst, LinkTypeId type) const;

 private:
  friend class NetworkBuilder;
  friend Status GrowDataset(Dataset* dataset,
                            std::span<const NetworkDelta> deltas);
  friend Result<Dataset> ApplyNetworkDelta(const Dataset& base,
                                           const NetworkDelta& delta);

  // A copy with capacity for `extra_nodes` more nodes and `extra_links`
  // more links (in each relation), so growing it moves no array to a new
  // allocation: ApplyNetworkDelta then allocates each array once, as a
  // rebuild would, instead of a copy plus a larger reallocation.
  Network CopyWithRoom(size_t extra_nodes, size_t extra_links) const;

  // Appends the nodes and links of `deltas`, already validated against
  // this network, in place: each link is merged into its already-sorted
  // rows, so the result equals a Build of the grown link set.
  void Grow(std::span<const NetworkDelta> deltas);

  // Recomputes link_weights_by_type_ from the typed out-adjacency.
  void SumLinkWeights();

  Schema schema_;
  std::vector<ObjectTypeId> node_types_;
  std::vector<std::string> node_names_;
  std::vector<std::vector<NodeId>> nodes_by_type_;

  std::vector<size_t> out_offsets_ = {0};  // size num_nodes + 1
  std::vector<LinkEntry> out_entries_;
  std::vector<size_t> in_offsets_ = {0};
  std::vector<LinkEntry> in_entries_;

  // Per-relation SoA out-adjacency (indexed by link type), mirroring
  // out_entries_ grouped by relation; see OutCsr.
  std::vector<std::vector<size_t>> typed_out_offsets_;
  std::vector<std::vector<NodeId>> typed_out_neighbors_;
  std::vector<std::vector<double>> typed_out_weights_;

  std::vector<size_t> link_counts_by_type_;
  std::vector<double> link_weights_by_type_;
};

}  // namespace genclus
