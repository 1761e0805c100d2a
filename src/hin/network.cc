#include "hin/network.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"
#include "hin/delta.h"

namespace genclus {

namespace {

// The canonical order within an adjacency row: type, then neighbor, then
// weight. Two entries that compare equal are byte-identical, so a sorted
// row does not depend on the order its links were added in.
bool CanonicalLess(const LinkEntry& a, const LinkEntry& b) {
  if (a.type != b.type) return a.type < b.type;
  if (a.neighbor != b.neighbor) return a.neighbor < b.neighbor;
  return a.weight < b.weight;
}

// A link entry bound for one CSR row (source row for out-adjacency,
// target row for in-adjacency).
struct RowEntry {
  NodeId row;
  LinkEntry entry;
};

bool RowEntryLess(const RowEntry& a, const RowEntry& b) {
  if (a.row != b.row) return a.row < b.row;
  return CanonicalLess(a.entry, b.entry);
}

// Row storage of one adjacency direction (array of LinkEntry).
struct EntryRows {
  std::vector<LinkEntry>* entries;

  void Resize(size_t size) { entries->resize(size); }
  LinkEntry Get(size_t i) const { return (*entries)[i]; }
  void Set(size_t i, const LinkEntry& e) { (*entries)[i] = e; }
  // Moves [begin, end) so that it ends at dst_end (dst_end >= end).
  void MoveBackward(size_t begin, size_t end, size_t dst_end) {
    std::copy_backward(entries->begin() + begin, entries->begin() + end,
                       entries->begin() + dst_end);
  }
};

// Row storage of one relation's SoA out-adjacency; every entry has
// relation `type`.
struct TypedRows {
  std::vector<NodeId>* neighbors;
  std::vector<double>* weights;
  LinkTypeId type;

  void Resize(size_t size) {
    neighbors->resize(size);
    weights->resize(size);
  }
  LinkEntry Get(size_t i) const {
    return {(*neighbors)[i], type, (*weights)[i]};
  }
  void Set(size_t i, const LinkEntry& e) {
    (*neighbors)[i] = e.neighbor;
    (*weights)[i] = e.weight;
  }
  void MoveBackward(size_t begin, size_t end, size_t dst_end) {
    std::copy_backward(neighbors->begin() + begin, neighbors->begin() + end,
                       neighbors->begin() + dst_end);
    std::copy_backward(weights->begin() + begin, weights->begin() + end,
                       weights->begin() + dst_end);
  }
};

// Merges `added` (sorted by RowEntryLess) into the canonically sorted CSR
// rows described by `offsets` and `rows`, growing them to `num_rows` rows.
// One backward pass: each run of untouched rows shifts with one block
// move, and each touched row merges its additions in from the back, so no
// row is re-sorted.
template <typename Rows>
void SpliceRows(std::span<const RowEntry> added, size_t num_rows,
                std::vector<size_t>* offsets, Rows rows) {
  std::vector<size_t>& off = *offsets;
  const size_t old_rows = off.size() - 1;
  const size_t old_size = off.back();
  rows.Resize(old_size + added.size());
  size_t src_end = old_size;  // old entries past here are placed
  size_t dst_end = old_size + added.size();
  for (size_t j = added.size(); j > 0;) {
    const NodeId v = added[j - 1].row;
    size_t first = j - 1;
    while (first > 0 && added[first - 1].row == v) --first;
    const size_t row_begin = v < old_rows ? off[v] : old_size;
    const size_t row_end = v < old_rows ? off[v + 1] : old_size;
    rows.MoveBackward(row_end, src_end, dst_end);
    dst_end -= src_end - row_end;
    size_t i = row_end;
    while (j > first) {
      if (i > row_begin &&
          CanonicalLess(added[j - 1].entry, rows.Get(i - 1))) {
        rows.Set(--dst_end, rows.Get(--i));
      } else {
        rows.Set(--dst_end, added[--j].entry);
      }
    }
    rows.MoveBackward(row_begin, i, dst_end);
    dst_end -= i - row_begin;
    src_end = row_begin;
  }
  // Each row now starts after the additions to the rows before it; new
  // rows start where the old entries ended.
  off.resize(num_rows + 1, old_size);
  size_t shift = 0;
  size_t j = 0;
  for (size_t v = added.empty() ? num_rows + 1 : added.front().row + 1;
       v <= num_rows; ++v) {
    while (j < added.size() && added[j].row < v) {
      ++shift;
      ++j;
    }
    off[v] += shift;
  }
}

template <typename T>
std::vector<T> CopyReserving(const std::vector<T>& v, size_t extra) {
  std::vector<T> out;
  out.reserve(v.size() + extra);
  out.assign(v.begin(), v.end());
  return out;
}

}  // namespace

Result<NodeId> NetworkBuilder::AddNode(ObjectTypeId type, std::string name) {
  if (!schema_.ValidObjectType(type)) {
    return Status::InvalidArgument("AddNode: unknown object type");
  }
  if (node_types_.size() >= static_cast<size_t>(kInvalidNode)) {
    return Status::OutOfRange("node id space exhausted");
  }
  node_types_.push_back(type);
  node_names_.push_back(std::move(name));
  return static_cast<NodeId>(node_types_.size() - 1);
}

Status NetworkBuilder::AddLink(NodeId src, NodeId dst, LinkTypeId type,
                               double weight) {
  if (src >= node_types_.size() || dst >= node_types_.size()) {
    return Status::InvalidArgument("AddLink: unknown node id");
  }
  if (!schema_.ValidLinkType(type)) {
    return Status::InvalidArgument("AddLink: unknown link type");
  }
  if (!(weight > 0.0) || !std::isfinite(weight)) {
    return Status::InvalidArgument("AddLink: weight must be positive finite");
  }
  const LinkTypeInfo& info = schema_.link_type(type);
  if (node_types_[src] != info.source_type ||
      node_types_[dst] != info.target_type) {
    return Status::InvalidArgument(StrFormat(
        "AddLink: link type '%s' expects (%s -> %s) but got (%s -> %s)",
        info.name.c_str(),
        schema_.object_type_name(info.source_type).c_str(),
        schema_.object_type_name(info.target_type).c_str(),
        schema_.object_type_name(node_types_[src]).c_str(),
        schema_.object_type_name(node_types_[dst]).c_str()));
  }
  link_srcs_.push_back(src);
  link_dsts_.push_back(dst);
  link_types_.push_back(type);
  link_weights_.push_back(weight);
  return Status::OK();
}

Result<Network> NetworkBuilder::Build() && {
  Network net;
  const size_t n = node_types_.size();
  const size_t m = link_srcs_.size();

  // The typed-CSR views hand 32-bit neighbor ids to the SpMM kernels
  // (linalg's CsrMatrixView), with the all-ones id reserved as
  // kInvalidNode. AddNode already refuses to mint ids at the sentinel;
  // this guard keeps the contract explicit at the one place the CSR is
  // actually assembled (defense in depth for future builder entry
  // points, same rule as linalg's ValidateCsrColumnCount).
  if (n > static_cast<size_t>(kInvalidNode)) {
    return Status::InvalidArgument(StrFormat(
        "network has %zu nodes, exceeding the 32-bit CSR node-id space",
        n));
  }

  net.schema_ = std::move(schema_);
  net.node_types_ = std::move(node_types_);
  net.node_names_ = std::move(node_names_);

  net.nodes_by_type_.assign(net.schema_.num_object_types(), {});
  for (NodeId v = 0; v < n; ++v) {
    net.nodes_by_type_[net.node_types_[v]].push_back(v);
  }

  net.link_counts_by_type_.assign(net.schema_.num_link_types(), 0);
  for (size_t e = 0; e < m; ++e) {
    net.link_counts_by_type_[link_types_[e]]++;
  }

  // Counting-sort links into per-direction CSR.
  net.out_offsets_.assign(n + 1, 0);
  net.in_offsets_.assign(n + 1, 0);
  for (size_t e = 0; e < m; ++e) {
    net.out_offsets_[link_srcs_[e] + 1]++;
    net.in_offsets_[link_dsts_[e] + 1]++;
  }
  for (size_t v = 0; v < n; ++v) {
    net.out_offsets_[v + 1] += net.out_offsets_[v];
    net.in_offsets_[v + 1] += net.in_offsets_[v];
  }
  net.out_entries_.resize(m);
  net.in_entries_.resize(m);
  std::vector<size_t> out_cursor(net.out_offsets_.begin(),
                                 net.out_offsets_.end() - 1);
  std::vector<size_t> in_cursor(net.in_offsets_.begin(),
                                net.in_offsets_.end() - 1);
  for (size_t e = 0; e < m; ++e) {
    net.out_entries_[out_cursor[link_srcs_[e]]++] = {link_dsts_[e],
                                                     link_types_[e],
                                                     link_weights_[e]};
    net.in_entries_[in_cursor[link_dsts_[e]]++] = {link_srcs_[e],
                                                   link_types_[e],
                                                   link_weights_[e]};
  }
  for (size_t v = 0; v < n; ++v) {
    std::sort(net.out_entries_.begin() + net.out_offsets_[v],
              net.out_entries_.begin() + net.out_offsets_[v + 1],
              CanonicalLess);
    std::sort(net.in_entries_.begin() + net.in_offsets_[v],
              net.in_entries_.begin() + net.in_offsets_[v + 1],
              CanonicalLess);
  }

  // Per-relation SoA adjacency: split the sorted out-link ranges into one
  // CSR matrix per link type, neighbors ascending within each row.
  const size_t num_relations = net.schema_.num_link_types();
  net.typed_out_offsets_.assign(num_relations,
                                std::vector<size_t>(n + 1, 0));
  net.typed_out_neighbors_.assign(num_relations, {});
  net.typed_out_weights_.assign(num_relations, {});
  for (LinkTypeId r = 0; r < num_relations; ++r) {
    net.typed_out_neighbors_[r].reserve(net.link_counts_by_type_[r]);
    net.typed_out_weights_[r].reserve(net.link_counts_by_type_[r]);
  }
  for (size_t v = 0; v < n; ++v) {
    for (size_t i = net.out_offsets_[v]; i < net.out_offsets_[v + 1]; ++i) {
      const LinkEntry& e = net.out_entries_[i];
      net.typed_out_neighbors_[e.type].push_back(e.neighbor);
      net.typed_out_weights_[e.type].push_back(e.weight);
    }
    for (LinkTypeId r = 0; r < num_relations; ++r) {
      net.typed_out_offsets_[r][v + 1] = net.typed_out_neighbors_[r].size();
    }
  }
  net.SumLinkWeights();
  return net;
}

void Network::Grow(std::span<const NetworkDelta> deltas) {
  std::vector<RowEntry> out_added;
  std::vector<RowEntry> in_added;
  for (const NetworkDelta& delta : deltas) {
    for (const DeltaNode& node : delta.nodes) {
      nodes_by_type_[node.type].push_back(
          static_cast<NodeId>(node_types_.size()));
      node_types_.push_back(node.type);
      node_names_.push_back(node.name);
    }
    for (const DeltaLink& link : delta.links) {
      GENCLUS_DCHECK(link.src < node_types_.size() &&
                     link.dst < node_types_.size());
      out_added.push_back({link.src, {link.dst, link.type, link.weight}});
      in_added.push_back({link.dst, {link.src, link.type, link.weight}});
      link_counts_by_type_[link.type]++;
    }
  }
  const size_t n = node_types_.size();
  std::sort(out_added.begin(), out_added.end(), RowEntryLess);
  std::sort(in_added.begin(), in_added.end(), RowEntryLess);
  SpliceRows<EntryRows>(out_added, n, &out_offsets_, {&out_entries_});
  SpliceRows<EntryRows>(in_added, n, &in_offsets_, {&in_entries_});

  // out_added is sorted by row then type, so each relation's share is a
  // subsequence already in row-then-neighbor order.
  std::vector<RowEntry> typed_added;
  for (LinkTypeId r = 0; r < typed_out_offsets_.size(); ++r) {
    typed_added.clear();
    for (const RowEntry& e : out_added) {
      if (e.entry.type == r) typed_added.push_back(e);
    }
    SpliceRows<TypedRows>(
        typed_added, n, &typed_out_offsets_[r],
        {&typed_out_neighbors_[r], &typed_out_weights_[r], r});
  }
  SumLinkWeights();
}

Network Network::CopyWithRoom(size_t extra_nodes, size_t extra_links) const {
  Network out;
  out.schema_ = schema_;
  out.node_types_ = CopyReserving(node_types_, extra_nodes);
  out.node_names_ = CopyReserving(node_names_, extra_nodes);
  out.nodes_by_type_ = nodes_by_type_;
  out.out_offsets_ = CopyReserving(out_offsets_, extra_nodes);
  out.out_entries_ = CopyReserving(out_entries_, extra_links);
  out.in_offsets_ = CopyReserving(in_offsets_, extra_nodes);
  out.in_entries_ = CopyReserving(in_entries_, extra_links);
  for (LinkTypeId r = 0; r < typed_out_offsets_.size(); ++r) {
    out.typed_out_offsets_.push_back(
        CopyReserving(typed_out_offsets_[r], extra_nodes));
    out.typed_out_neighbors_.push_back(
        CopyReserving(typed_out_neighbors_[r], extra_links));
    out.typed_out_weights_.push_back(
        CopyReserving(typed_out_weights_[r], extra_links));
  }
  out.link_counts_by_type_ = link_counts_by_type_;
  out.link_weights_by_type_ = link_weights_by_type_;
  return out;
}

void Network::SumLinkWeights() {
  link_weights_by_type_.assign(typed_out_weights_.size(), 0.0);
  for (LinkTypeId r = 0; r < typed_out_weights_.size(); ++r) {
    for (double w : typed_out_weights_[r]) link_weights_by_type_[r] += w;
  }
}

const std::vector<NodeId>& Network::NodesOfType(ObjectTypeId t) const {
  GENCLUS_CHECK(schema_.ValidObjectType(t));
  return nodes_by_type_[t];
}

double Network::LinkWeight(NodeId src, NodeId dst, LinkTypeId type) const {
  for (const LinkEntry& e : OutLinks(src)) {
    if (e.type == type && e.neighbor == dst) return e.weight;
  }
  return 0.0;
}

}  // namespace genclus
