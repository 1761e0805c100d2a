// Streaming dataset growth (hin/delta.h):
//   * ApplyNetworkDelta appends nodes in order (base ids survive), wires
//     links between any mix of old and new nodes, and applies late
//     attribute observations by kind;
//   * SliceDatasetPrefix o ApplyNetworkDelta is the identity: slicing a
//     dataset into a prefix plus remainder and replaying the remainder
//     reproduces the full dataset exactly — the contract the
//     incremental-maintenance fixtures (refit_bench, update_test) rely on;
//   * growing in place, batch by batch, equals a one-shot Build of the
//     grown dataset field by field (property test over random growth);
//   * malformed deltas fail with InvalidArgument and leave nothing
//     half-applied, also when the bad delta is not the first of a list.
#include "hin/delta.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using testing::ExpectDatasetsIdentical;
using testing::MakeTwoCommunityNetwork;

testing::TwoCommunityNetwork MakeFixture() {
  return MakeTwoCommunityNetwork(/*docs_per_side=*/4, /*text_fraction=*/1.0,
                                 /*seed=*/77);
}

TEST(DeltaTest, ApplyGrowsNetworkAndAttributes) {
  const auto fx = MakeFixture();
  const size_t base_nodes = fx.dataset.network.num_nodes();

  NetworkDelta delta;
  delta.nodes.push_back({fx.doc_type, "new_doc"});
  const NodeId fresh = static_cast<NodeId>(base_nodes);
  // Old -> new and new -> old links, plus a late observation on an OLD
  // node (the trickle-in attribute case).
  delta.links.push_back({fresh, fx.docs[0], fx.doc_doc, 2.0});
  delta.links.push_back({fx.docs[1], fresh, fx.doc_doc, 1.0});
  delta.observations.push_back({/*attribute=*/0, fresh, /*term=*/1,
                                /*count=*/3.0});
  delta.observations.push_back({/*attribute=*/0, fx.docs[2], /*term=*/0,
                                /*count=*/1.0});
  delta.node_labels = {0};

  auto grown = ApplyNetworkDelta(fx.dataset, delta);
  ASSERT_TRUE(grown.ok()) << grown.status().ToString();
  const Dataset& out = grown.value();
  EXPECT_EQ(out.network.num_nodes(), base_nodes + 1);
  EXPECT_EQ(out.network.num_links(), fx.dataset.network.num_links() + 2);
  EXPECT_EQ(out.network.node_type(fresh), fx.doc_type);
  EXPECT_EQ(out.network.node_name(fresh), "new_doc");
  ASSERT_EQ(out.network.OutLinks(fresh).size(), 1u);
  EXPECT_EQ(out.network.OutLinks(fresh)[0].neighbor, fx.docs[0]);
  EXPECT_EQ(out.network.OutLinks(fresh)[0].weight, 2.0);
  // New node's bag holds the delta observation; the old node's bag gained
  // one count of term 0 on top of whatever the fixture planted.
  ASSERT_EQ(out.attributes[0].TermCounts(fresh).size(), 1u);
  EXPECT_EQ(out.attributes[0].TermCounts(fresh)[0].term, 1u);
  EXPECT_EQ(out.attributes[0].TermCounts(fresh)[0].count, 3.0);
  EXPECT_EQ(out.attributes[0].TotalObservations(),
            fx.dataset.attributes[0].TotalObservations() + 4.0);
  EXPECT_EQ(out.labels.Get(fresh), 0u);
  // Base ids survive untouched.
  EXPECT_EQ(out.network.node_name(fx.docs[0]),
            fx.dataset.network.node_name(fx.docs[0]));
  EXPECT_TRUE(out.Validate().ok());
}

TEST(DeltaTest, EmptyDeltaIsIdentity) {
  const auto fx = MakeFixture();
  auto same = ApplyNetworkDelta(fx.dataset, NetworkDelta{});
  ASSERT_TRUE(same.ok()) << same.status().ToString();
  ExpectDatasetsIdentical(fx.dataset, same.value());
}

TEST(DeltaTest, SliceThenApplyRoundTrips) {
  const auto fx = MakeFixture();
  const size_t total = fx.dataset.network.num_nodes();
  // Every split point, including the degenerate ones: empty prefix and
  // full prefix (empty remainder).
  for (size_t cut : {size_t{0}, size_t{1}, total / 2, total - 1, total}) {
    NetworkDelta remainder;
    auto prefix = SliceDatasetPrefix(fx.dataset, cut, &remainder);
    ASSERT_TRUE(prefix.ok()) << "cut=" << cut << ": "
                             << prefix.status().ToString();
    EXPECT_EQ(prefix.value().network.num_nodes(), cut);
    EXPECT_EQ(remainder.nodes.size(), total - cut);
    auto rebuilt = ApplyNetworkDelta(prefix.value(), remainder);
    ASSERT_TRUE(rebuilt.ok()) << "cut=" << cut << ": "
                              << rebuilt.status().ToString();
    ExpectDatasetsIdentical(fx.dataset, rebuilt.value());
  }
}

TEST(DeltaTest, RejectsMalformedDeltas) {
  const auto fx = MakeFixture();
  const NodeId out_of_range =
      static_cast<NodeId>(fx.dataset.network.num_nodes());

  NetworkDelta bad_link;
  bad_link.links.push_back({fx.docs[0], out_of_range, fx.doc_doc, 1.0});
  EXPECT_EQ(ApplyNetworkDelta(fx.dataset, bad_link).status().code(),
            StatusCode::kInvalidArgument);

  NetworkDelta bad_attr;
  bad_attr.observations.push_back(
      {static_cast<AttributeId>(fx.dataset.attributes.size()), fx.docs[0],
       0, 1.0});
  EXPECT_EQ(ApplyNetworkDelta(fx.dataset, bad_attr).status().code(),
            StatusCode::kInvalidArgument);

  NetworkDelta bad_labels;
  bad_labels.nodes.push_back({fx.doc_type, "n"});
  bad_labels.node_labels = {0, 1};  // two labels, one node
  EXPECT_EQ(ApplyNetworkDelta(fx.dataset, bad_labels).status().code(),
            StatusCode::kInvalidArgument);

  NetworkDelta bad_endpoint_types;  // doc_tag must run doc -> tag
  bad_endpoint_types.links.push_back(
      {fx.tags[0], fx.docs[0], fx.doc_tag, 1.0});
  EXPECT_EQ(ApplyNetworkDelta(fx.dataset, bad_endpoint_types).status().code(),
            StatusCode::kInvalidArgument);

  NetworkDelta bad_link_type;
  bad_link_type.links.push_back({fx.docs[0], fx.docs[1], 99, 1.0});
  EXPECT_EQ(ApplyNetworkDelta(fx.dataset, bad_link_type).status().code(),
            StatusCode::kInvalidArgument);

  for (double weight : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                        std::numeric_limits<double>::quiet_NaN()}) {
    NetworkDelta bad_weight;
    bad_weight.links.push_back({fx.docs[0], fx.docs[1], fx.doc_doc, weight});
    EXPECT_EQ(ApplyNetworkDelta(fx.dataset, bad_weight).status().code(),
              StatusCode::kInvalidArgument)
        << "weight " << weight;
  }

  NetworkDelta bad_node_type;
  bad_node_type.nodes.push_back({99, "n"});
  EXPECT_EQ(ApplyNetworkDelta(fx.dataset, bad_node_type).status().code(),
            StatusCode::kInvalidArgument);

  NetworkDelta bad_term;
  bad_term.observations.push_back({0, fx.docs[0], /*term=*/4, 1.0});
  EXPECT_EQ(ApplyNetworkDelta(fx.dataset, bad_term).status().code(),
            StatusCode::kInvalidArgument);

  NetworkDelta bad_count;
  bad_count.observations.push_back({0, fx.docs[0], 0, /*count=*/0.0});
  EXPECT_EQ(ApplyNetworkDelta(fx.dataset, bad_count).status().code(),
            StatusCode::kInvalidArgument);

  EXPECT_EQ(SliceDatasetPrefix(fx.dataset,
                               fx.dataset.network.num_nodes() + 1, nullptr)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(DeltaTest, RejectsNonFiniteValues) {
  Schema schema;
  const ObjectTypeId sensor = schema.AddObjectType("sensor").value();
  NetworkBuilder builder(schema);
  const NodeId s0 = builder.AddNode(sensor).value();
  Dataset dataset;
  dataset.network = std::move(builder).Build().value();
  dataset.attributes.push_back(Attribute::Numerical("reading", 1));

  for (double value : {std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
    NetworkDelta bad;
    DeltaObservation obs;
    obs.node = s0;
    obs.value = value;
    bad.observations.push_back(obs);
    EXPECT_EQ(ApplyNetworkDelta(dataset, bad).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(DeltaTest, ListAddressesTheNetworkAsOfEachTurn) {
  const auto fx = MakeFixture();
  const NodeId first_new = static_cast<NodeId>(fx.dataset.network.num_nodes());

  // Delta 2 may link to the node delta 1 added...
  std::vector<NetworkDelta> deltas(2);
  deltas[0].nodes.push_back({fx.doc_type, "a"});
  deltas[1].nodes.push_back({fx.doc_type, "b"});
  deltas[1].links.push_back({first_new + 1, first_new, fx.doc_doc, 1.0});
  Dataset grown = fx.dataset;
  ASSERT_TRUE(GrowDataset(&grown, deltas).ok());
  EXPECT_EQ(grown.network.num_nodes(), first_new + 2u);
  EXPECT_EQ(grown.network.LinkWeight(first_new + 1, first_new, fx.doc_doc),
            1.0);

  // ...but delta 1 may not address the node that only delta 2 adds.
  std::swap(deltas[0].links, deltas[1].links);
  Dataset unchanged = fx.dataset;
  EXPECT_EQ(GrowDataset(&unchanged, deltas).code(),
            StatusCode::kInvalidArgument);
  ExpectDatasetsIdentical(fx.dataset, unchanged);
}

TEST(DeltaTest, BadDeltaInAListLeavesTheDatasetUnchanged) {
  const auto fx = MakeFixture();
  const NodeId first_new = static_cast<NodeId>(fx.dataset.network.num_nodes());
  std::vector<NetworkDelta> deltas(3);
  for (size_t d = 0; d < deltas.size(); ++d) {
    deltas[d].nodes.push_back({fx.doc_type, StrFormat("n%zu", d)});
    deltas[d].links.push_back(
        {first_new + static_cast<NodeId>(d), fx.docs[d], fx.doc_doc, 1.0});
    deltas[d].observations.push_back({0, fx.docs[d], 1, 2.0});
  }
  // The last delta's observation is bad; the first two are fine.
  deltas[2].observations.back().term = 4;
  Dataset dataset = fx.dataset;
  EXPECT_EQ(GrowDataset(&dataset, deltas).code(),
            StatusCode::kInvalidArgument);
  ExpectDatasetsIdentical(fx.dataset, dataset);
}

TEST(DeltaTest, SplitRemainderRoutesEveryIdToABatch) {
  const auto fx = MakeFixture();
  const NodeId base_nodes =
      static_cast<NodeId>(fx.dataset.network.num_nodes());

  // No new nodes: one batch holding the old-to-old link.
  NetworkDelta links_only;
  links_only.links.push_back({fx.docs[0], fx.docs[1], fx.doc_doc, 1.0});
  const auto one = SplitRemainder(links_only, base_nodes, 4);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].links.size(), 1u);

  // An id past the new nodes lands in the last batch, where growth
  // rejects it.
  NetworkDelta remainder;
  remainder.nodes.push_back({fx.doc_type, "a"});
  remainder.nodes.push_back({fx.doc_type, "b"});
  remainder.links.push_back({base_nodes + 5, fx.docs[0], fx.doc_doc, 1.0});
  const auto batches = SplitRemainder(remainder, base_nodes, 2);
  ASSERT_EQ(batches.size(), 2u);
  EXPECT_EQ(batches[1].links.size(), 1u);
  Dataset dataset = fx.dataset;
  EXPECT_EQ(GrowDataset(&dataset, batches).code(),
            StatusCode::kInvalidArgument);
}

// Random growth for the property test below: two object types, one
// relation per ordered pair of them, a categorical and a numerical
// attribute. Every node, link, observation and label is also recorded,
// so the grown dataset can be built again in one shot.
class RandomGrowth {
 public:
  static constexpr size_t kVocab = 5;

  explicit RandomGrowth(uint64_t seed) : rng_(seed) {
    for (int t = 0; t < 2; ++t) {
      types_[t] = schema_.AddObjectType(StrFormat("t%d", t)).value();
    }
    for (int s = 0; s < 2; ++s) {
      for (int t = 0; t < 2; ++t) {
        relation_[s][t] =
            schema_.AddLinkType(StrFormat("r%d%d", s, t), types_[s], types_[t])
                .value();
      }
    }
  }

  // The base: nodes, links, observations and labels of an initial batch,
  // built in one shot.
  Dataset Base(size_t num_nodes) {
    Next(num_nodes);
    return BuildOneShot();
  }

  // One more batch of random growth, relative to everything so far.
  NetworkDelta Next(size_t num_new) {
    NetworkDelta delta;
    const size_t old = nodes_.size();
    const bool labeled = rng_.Uniform() < 0.7;
    for (size_t i = 0; i < num_new; ++i) {
      const ObjectTypeId type = types_[rng_.UniformIndex(2)];
      const std::string name = StrFormat("v%zu", nodes_.size());
      delta.nodes.push_back({type, name});
      nodes_.push_back({type, name});
      uint32_t label = kUnlabeled;
      if (labeled) {
        label = rng_.Uniform() < 0.8 ? static_cast<uint32_t>(
                                           rng_.UniformIndex(3))
                                     : kUnlabeled;
        delta.node_labels.push_back(label);
      }
      labels_.push_back(label);
    }
    const size_t total = nodes_.size();
    // Links in every direction between old and new nodes (each category
    // only when its endpoints exist), then parallel copies of earlier
    // links — some with the same weight, some with a new one.
    auto pick = [&](bool fresh) -> NodeId {
      return static_cast<NodeId>(fresh ? old + rng_.UniformIndex(total - old)
                                       : rng_.UniformIndex(old));
    };
    const size_t num_links = rng_.UniformIndex(12);
    for (size_t i = 0; i < num_links; ++i) {
      const bool src_new = (i & 1) != 0;
      const bool dst_new = (i & 2) != 0;
      if ((src_new || dst_new) && total == old) continue;
      if ((!src_new || !dst_new) && old == 0) continue;
      AddLink(pick(src_new), pick(dst_new), rng_.Uniform(0.05, 3.0), &delta);
    }
    if (!links_.empty()) {
      for (size_t i = rng_.UniformIndex(4); i > 0; --i) {
        const DeltaLink twin = links_[rng_.UniformIndex(links_.size())];
        const double weight =
            rng_.Uniform() < 0.5 ? twin.weight : rng_.Uniform(0.05, 3.0);
        AddLink(twin.src, twin.dst, weight, &delta);
      }
    }
    // Observations on old and new nodes; the small vocabulary makes
    // repeated terms in one bag common.
    if (total > 0) {
      for (size_t i = rng_.UniformIndex(8); i > 0; --i) {
        DeltaObservation obs;
        obs.node = static_cast<NodeId>(rng_.UniformIndex(total));
        if (rng_.Uniform() < 0.5) {
          obs.attribute = 0;
          obs.term = static_cast<uint32_t>(rng_.UniformIndex(kVocab));
          obs.count = rng_.Uniform(0.5, 2.5);
        } else {
          obs.attribute = 1;
          obs.value = rng_.Gaussian();
        }
        delta.observations.push_back(obs);
        observations_.push_back(obs);
      }
    }
    return delta;
  }

  // Everything recorded so far through one NetworkBuilder, links in
  // shuffled order, observations in arrival order.
  Dataset BuildOneShot() {
    NetworkBuilder builder(schema_);
    for (const DeltaNode& node : nodes_) {
      EXPECT_TRUE(builder.AddNode(node.type, node.name).ok());
    }
    std::vector<size_t> order(links_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng_.Shuffle(&order);
    for (size_t i : order) {
      const DeltaLink& link = links_[i];
      EXPECT_TRUE(
          builder.AddLink(link.src, link.dst, link.type, link.weight).ok());
    }
    Dataset out;
    out.network = std::move(builder).Build().value();
    const size_t n = nodes_.size();
    out.attributes.push_back(Attribute::Categorical("text", kVocab, n));
    out.attributes.push_back(Attribute::Numerical("reading", n));
    for (const DeltaObservation& obs : observations_) {
      Attribute& attr = out.attributes[obs.attribute];
      EXPECT_TRUE((obs.attribute == 0
                       ? attr.AddTermCount(obs.node, obs.term, obs.count)
                       : attr.AddValue(obs.node, obs.value))
                      .ok());
    }
    out.labels = Labels(n);
    for (NodeId v = 0; v < n; ++v) out.labels.Set(v, labels_[v]);
    return out;
  }

 private:
  void AddLink(NodeId src, NodeId dst, double weight, NetworkDelta* delta) {
    const size_t s = nodes_[src].type == types_[0] ? 0 : 1;
    const size_t t = nodes_[dst].type == types_[0] ? 0 : 1;
    const DeltaLink link{src, dst, relation_[s][t], weight};
    delta->links.push_back(link);
    links_.push_back(link);
  }

  Rng rng_;
  Schema schema_;
  ObjectTypeId types_[2];
  LinkTypeId relation_[2][2];
  std::vector<DeltaNode> nodes_;
  std::vector<DeltaLink> links_;
  std::vector<DeltaObservation> observations_;
  std::vector<uint32_t> labels_;
};

TEST(DeltaPropertyTest, GrowthInPlaceEqualsOneShotBuild) {
  constexpr size_t kBatches = 30;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(StrFormat("seed %llu", static_cast<unsigned long long>(seed)));
    RandomGrowth growth(seed);
    const Dataset base = growth.Base(6);
    std::vector<NetworkDelta> batches;
    for (size_t b = 0; b < kBatches; ++b) {
      // Some batches add no node: links and observations among old nodes
      // only.
      batches.push_back(growth.Next(b % 7 == 3 ? 0 : 1 + b % 4));
    }
    const Dataset full = growth.BuildOneShot();

    // Batch by batch, in place.
    Dataset grown = base;
    for (const NetworkDelta& batch : batches) {
      ASSERT_TRUE(GrowDataset(&grown, {&batch, 1}).ok());
    }
    ExpectDatasetsIdentical(full, grown);

    // The whole list in one call.
    Dataset at_once = base;
    ASSERT_TRUE(GrowDataset(&at_once, batches).ok());
    ExpectDatasetsIdentical(full, at_once);

    // Slice the grown dataset back to the base's node count and regrow it
    // batch by batch from the remainder.
    NetworkDelta remainder;
    auto prefix = SliceDatasetPrefix(grown, base.network.num_nodes(),
                                     &remainder);
    ASSERT_TRUE(prefix.ok()) << prefix.status().ToString();
    Dataset regrown = std::move(prefix).value();
    for (const NetworkDelta& batch :
         SplitRemainder(remainder, base.network.num_nodes(), 7)) {
      ASSERT_TRUE(GrowDataset(&regrown, {&batch, 1}).ok());
    }
    ExpectDatasetsIdentical(full, regrown);
  }
}

}  // namespace
}  // namespace genclus
