#include "hin/delta.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"

namespace genclus {

namespace {

// The first `num_nodes` nodes of `attr`, with every one of their
// observations.
Result<Attribute> AttributePrefix(const Attribute& attr, size_t num_nodes) {
  GENCLUS_CHECK_LE(num_nodes, attr.num_nodes());
  if (attr.kind() == AttributeKind::kCategorical) {
    Attribute out =
        Attribute::Categorical(attr.name(), attr.vocab_size(), num_nodes);
    if (!attr.term_names().empty()) {
      out.SetTermNames(attr.term_names());
    }
    for (NodeId v = 0; v < num_nodes; ++v) {
      for (const TermCount& tc : attr.TermCounts(v)) {
        GENCLUS_RETURN_IF_ERROR(out.AddTermCount(v, tc.term, tc.count));
      }
    }
    return out;
  }
  Attribute out = Attribute::Numerical(attr.name(), num_nodes);
  for (NodeId v = 0; v < num_nodes; ++v) {
    for (double x : attr.Values(v)) {
      GENCLUS_RETURN_IF_ERROR(out.AddValue(v, x));
    }
  }
  return out;
}

// Checks every delta of the list against the dataset as it will be at
// that delta's turn: `new_types` is the running view of the nodes the
// list appends.
Status ValidateDeltas(const Dataset& base,
                      std::span<const NetworkDelta> deltas) {
  const Network& net = base.network;
  const Schema& schema = net.schema();
  const size_t base_nodes = net.num_nodes();
  std::vector<ObjectTypeId> new_types;
  auto type_of = [&](NodeId v) {
    return v < base_nodes ? net.node_type(v) : new_types[v - base_nodes];
  };
  for (size_t d = 0; d < deltas.size(); ++d) {
    const NetworkDelta& delta = deltas[d];
    if (!delta.node_labels.empty() &&
        delta.node_labels.size() != delta.nodes.size()) {
      return Status::InvalidArgument(StrFormat(
          "delta %zu carries %zu node labels for %zu new nodes", d,
          delta.node_labels.size(), delta.nodes.size()));
    }
    for (const DeltaNode& node : delta.nodes) {
      if (!schema.ValidObjectType(node.type)) {
        return Status::InvalidArgument(StrFormat(
            "delta %zu adds a node of unknown object type %u", d,
            node.type));
      }
      if (base_nodes + new_types.size() >= static_cast<size_t>(kInvalidNode)) {
        return Status::OutOfRange("node id space exhausted");
      }
      new_types.push_back(node.type);
    }
    const size_t total = base_nodes + new_types.size();
    for (const DeltaLink& link : delta.links) {
      if (link.src >= total || link.dst >= total) {
        return Status::InvalidArgument(StrFormat(
            "delta %zu link %u -> %u addresses past the grown node count %zu",
            d, link.src, link.dst, total));
      }
      if (!schema.ValidLinkType(link.type)) {
        return Status::InvalidArgument(StrFormat(
            "delta %zu link has unknown link type %u", d, link.type));
      }
      if (!(link.weight > 0.0) || !std::isfinite(link.weight)) {
        return Status::InvalidArgument(StrFormat(
            "delta %zu link weight must be positive finite", d));
      }
      const LinkTypeInfo& info = schema.link_type(link.type);
      if (type_of(link.src) != info.source_type ||
          type_of(link.dst) != info.target_type) {
        return Status::InvalidArgument(StrFormat(
            "delta %zu link %u -> %u does not match the endpoint types of "
            "link type '%s'", d, link.src, link.dst, info.name.c_str()));
      }
    }
    for (const DeltaObservation& obs : delta.observations) {
      if (obs.attribute >= base.attributes.size()) {
        return Status::InvalidArgument(StrFormat(
            "delta %zu observation references unknown attribute %u", d,
            obs.attribute));
      }
      if (obs.node >= total) {
        return Status::InvalidArgument(StrFormat(
            "delta %zu observation addresses node %u past the grown node "
            "count %zu", d, obs.node, total));
      }
      const Attribute& attr = base.attributes[obs.attribute];
      if (attr.kind() == AttributeKind::kCategorical) {
        if (obs.term >= attr.vocab_size()) {
          return Status::InvalidArgument(StrFormat(
              "delta %zu term %u out of vocabulary (size %zu)", d, obs.term,
              attr.vocab_size()));
        }
        if (!(obs.count > 0.0) || !std::isfinite(obs.count)) {
          return Status::InvalidArgument(StrFormat(
              "delta %zu term count must be positive finite", d));
        }
      } else if (!std::isfinite(obs.value)) {
        return Status::InvalidArgument(
            StrFormat("delta %zu value must be finite", d));
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status GrowDataset(Dataset* dataset, std::span<const NetworkDelta> deltas) {
  GENCLUS_CHECK(dataset != nullptr);
  GENCLUS_RETURN_IF_ERROR(dataset->Validate());
  GENCLUS_RETURN_IF_ERROR(ValidateDeltas(*dataset, deltas));

  const size_t base_nodes = dataset->network.num_nodes();
  dataset->network.Grow(deltas);
  const size_t total = dataset->network.num_nodes();
  for (Attribute& attr : dataset->attributes) attr.Resize(total);
  dataset->labels.Resize(total);
  size_t next_node = base_nodes;
  for (const NetworkDelta& delta : deltas) {
    for (const DeltaObservation& obs : delta.observations) {
      Attribute& attr = dataset->attributes[obs.attribute];
      const Status added =
          attr.kind() == AttributeKind::kCategorical
              ? attr.AddTermCount(obs.node, obs.term, obs.count)
              : attr.AddValue(obs.node, obs.value);
      GENCLUS_CHECK(added.ok());
    }
    for (size_t i = 0; i < delta.node_labels.size(); ++i) {
      dataset->labels.Set(static_cast<NodeId>(next_node + i),
                          delta.node_labels[i]);
    }
    next_node += delta.nodes.size();
  }
  return Status::OK();
}

Result<Dataset> ApplyNetworkDelta(const Dataset& base,
                                  const NetworkDelta& delta) {
  Dataset out;
  out.network =
      base.network.CopyWithRoom(delta.nodes.size(), delta.links.size());
  out.attributes = base.attributes;
  out.labels = base.labels;
  GENCLUS_RETURN_IF_ERROR(GrowDataset(&out, {&delta, 1}));
  return out;
}

std::vector<NetworkDelta> SplitRemainder(const NetworkDelta& remainder,
                                         size_t base_nodes, size_t count) {
  const size_t added = remainder.nodes.size();
  count = std::clamp<size_t>(count, 1, std::max<size_t>(added, 1));
  // Ids past the new nodes go to the last batch, where GrowDataset will
  // reject them.
  auto batch_of = [&](NodeId v) -> size_t {
    if (v < base_nodes) return 0;
    if (v - base_nodes >= added) return count - 1;
    return (v - base_nodes) * count / added;
  };
  std::vector<NetworkDelta> batches(count);
  for (size_t i = 0; i < added; ++i) {
    NetworkDelta& batch = batches[i * count / added];
    batch.nodes.push_back(remainder.nodes[i]);
    if (!remainder.node_labels.empty()) {
      batch.node_labels.push_back(remainder.node_labels[i]);
    }
  }
  for (const DeltaLink& link : remainder.links) {
    batches[std::max(batch_of(link.src), batch_of(link.dst))].links.push_back(
        link);
  }
  for (const DeltaObservation& obs : remainder.observations) {
    batches[batch_of(obs.node)].observations.push_back(obs);
  }
  return batches;
}

Result<Dataset> SliceDatasetPrefix(const Dataset& full, size_t num_nodes,
                                   NetworkDelta* remainder) {
  const Network& net = full.network;
  const size_t total = net.num_nodes();
  if (num_nodes > total) {
    return Status::InvalidArgument(StrFormat(
        "prefix of %zu nodes requested from a %zu-node dataset", num_nodes,
        total));
  }
  const bool has_labels = full.labels.size() == total;

  NetworkBuilder builder(net.schema());
  for (NodeId v = 0; v < num_nodes; ++v) {
    GENCLUS_ASSIGN_OR_RETURN(
        NodeId id, builder.AddNode(net.node_type(v), net.node_name(v)));
    (void)id;
  }
  if (remainder != nullptr) {
    *remainder = NetworkDelta();
    remainder->nodes.reserve(total - num_nodes);
    for (NodeId v = static_cast<NodeId>(num_nodes); v < total; ++v) {
      remainder->nodes.push_back({net.node_type(v), net.node_name(v)});
      if (has_labels) {
        remainder->node_labels.push_back(full.labels.Get(v));
      }
    }
  }
  for (NodeId v = 0; v < total; ++v) {
    for (const LinkEntry& e : net.OutLinks(v)) {
      if (v < num_nodes && e.neighbor < num_nodes) {
        GENCLUS_RETURN_IF_ERROR(
            builder.AddLink(v, e.neighbor, e.type, e.weight));
      } else if (remainder != nullptr) {
        remainder->links.push_back({v, e.neighbor, e.type, e.weight});
      }
    }
  }

  Dataset out;
  GENCLUS_ASSIGN_OR_RETURN(out.network, std::move(builder).Build());

  out.attributes.reserve(full.attributes.size());
  for (size_t t = 0; t < full.attributes.size(); ++t) {
    const Attribute& attr = full.attributes[t];
    GENCLUS_ASSIGN_OR_RETURN(Attribute sliced,
                             AttributePrefix(attr, num_nodes));
    out.attributes.push_back(std::move(sliced));
    if (remainder == nullptr) continue;
    const AttributeId id = static_cast<AttributeId>(t);
    for (NodeId v = static_cast<NodeId>(num_nodes); v < total; ++v) {
      if (attr.kind() == AttributeKind::kCategorical) {
        for (const TermCount& tc : attr.TermCounts(v)) {
          DeltaObservation obs;
          obs.attribute = id;
          obs.node = v;
          obs.term = tc.term;
          obs.count = tc.count;
          remainder->observations.push_back(obs);
        }
      } else {
        for (double x : attr.Values(v)) {
          DeltaObservation obs;
          obs.attribute = id;
          obs.node = v;
          obs.value = x;
          remainder->observations.push_back(obs);
        }
      }
    }
  }

  out.labels = Labels(num_nodes);
  if (has_labels) {
    for (NodeId v = 0; v < num_nodes; ++v) {
      out.labels.Set(v, full.labels.Get(v));
    }
  }

  GENCLUS_RETURN_IF_ERROR(out.Validate());
  return out;
}

}  // namespace genclus
