#include "hin/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <vector>

#include "common/random.h"

namespace genclus {
namespace {

// Small bibliographic-flavoured fixture: 2 authors, 1 conference.
class NetworkFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    Schema schema;
    author_ = schema.AddObjectType("author").value();
    conf_ = schema.AddObjectType("conf").value();
    ac_ = schema.AddLinkType("ac", author_, conf_).value();
    ca_ = schema.AddLinkType("ca", conf_, author_).value();
    aa_ = schema.AddLinkType("aa", author_, author_).value();

    NetworkBuilder builder(schema);
    a0_ = builder.AddNode(author_, "alice").value();
    a1_ = builder.AddNode(author_, "bob").value();
    c0_ = builder.AddNode(conf_, "vldb").value();
    EXPECT_TRUE(builder.AddLink(a0_, c0_, ac_, 2.0).ok());
    EXPECT_TRUE(builder.AddLink(a1_, c0_, ac_, 1.0).ok());
    EXPECT_TRUE(builder.AddLink(c0_, a0_, ca_, 2.0).ok());
    EXPECT_TRUE(builder.AddLink(a0_, a1_, aa_, 3.0).ok());
    net_ = std::move(builder).Build().value();
  }

  ObjectTypeId author_, conf_;
  LinkTypeId ac_, ca_, aa_;
  NodeId a0_, a1_, c0_;
  Network net_;
};

TEST_F(NetworkFixture, CountsAndTypes) {
  EXPECT_EQ(net_.num_nodes(), 3u);
  EXPECT_EQ(net_.num_links(), 4u);
  EXPECT_EQ(net_.node_type(a0_), author_);
  EXPECT_EQ(net_.node_type(c0_), conf_);
  EXPECT_EQ(net_.node_name(a1_), "bob");
}

TEST_F(NetworkFixture, NodesOfType) {
  const auto& authors = net_.NodesOfType(author_);
  ASSERT_EQ(authors.size(), 2u);
  EXPECT_EQ(authors[0], a0_);
  EXPECT_EQ(authors[1], a1_);
  EXPECT_EQ(net_.NodesOfType(conf_).size(), 1u);
}

TEST_F(NetworkFixture, OutLinksSortedByType) {
  auto links = net_.OutLinks(a0_);
  ASSERT_EQ(links.size(), 2u);
  // ac_ was declared before aa_, so ac entries come first.
  EXPECT_EQ(links[0].type, ac_);
  EXPECT_EQ(links[0].neighbor, c0_);
  EXPECT_DOUBLE_EQ(links[0].weight, 2.0);
  EXPECT_EQ(links[1].type, aa_);
  EXPECT_EQ(links[1].neighbor, a1_);
}

TEST_F(NetworkFixture, InLinks) {
  auto in = net_.InLinks(c0_);
  ASSERT_EQ(in.size(), 2u);
  // Both are ac links, sources a0 and a1 in id order.
  EXPECT_EQ(in[0].neighbor, a0_);
  EXPECT_EQ(in[1].neighbor, a1_);
  EXPECT_EQ(net_.InDegree(a1_), 1u);  // the coauthor link
  EXPECT_EQ(net_.OutDegree(c0_), 1u);
}

TEST_F(NetworkFixture, LinkCountsByType) {
  const auto& counts = net_.LinkCountsByType();
  EXPECT_EQ(counts[ac_], 2u);
  EXPECT_EQ(counts[ca_], 1u);
  EXPECT_EQ(counts[aa_], 1u);
  const auto& weights = net_.LinkWeightsByType();
  EXPECT_DOUBLE_EQ(weights[ac_], 3.0);
  EXPECT_DOUBLE_EQ(weights[aa_], 3.0);
}

TEST_F(NetworkFixture, LinkWeightLookup) {
  EXPECT_DOUBLE_EQ(net_.LinkWeight(a0_, c0_, ac_), 2.0);
  EXPECT_DOUBLE_EQ(net_.LinkWeight(a1_, c0_, ac_), 1.0);
  EXPECT_DOUBLE_EQ(net_.LinkWeight(a0_, c0_, aa_), 0.0);  // wrong type
  EXPECT_DOUBLE_EQ(net_.LinkWeight(a1_, a0_, aa_), 0.0);  // wrong direction
}

TEST(NetworkBuilderTest, RejectsUnknownObjectType) {
  Schema schema;
  (void)schema.AddObjectType("A");
  NetworkBuilder builder(std::move(schema));
  EXPECT_FALSE(builder.AddNode(9).ok());
}

TEST(NetworkBuilderTest, RejectsLinkTypeEndpointMismatch) {
  Schema schema;
  auto a = schema.AddObjectType("A").value();
  auto b = schema.AddObjectType("B").value();
  auto ab = schema.AddLinkType("ab", a, b).value();
  NetworkBuilder builder(std::move(schema));
  NodeId n_a = builder.AddNode(a).value();
  NodeId n_b = builder.AddNode(b).value();
  // Reversed endpoints must be rejected.
  Status s = builder.AddLink(n_b, n_a, ab, 1.0);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(builder.AddLink(n_a, n_b, ab, 1.0).ok());
}

TEST(NetworkBuilderTest, RejectsBadWeightsAndIds) {
  Schema schema;
  auto a = schema.AddObjectType("A").value();
  auto aa = schema.AddLinkType("aa", a, a).value();
  NetworkBuilder builder(std::move(schema));
  NodeId v = builder.AddNode(a).value();
  NodeId u = builder.AddNode(a).value();
  EXPECT_FALSE(builder.AddLink(v, u, aa, 0.0).ok());
  EXPECT_FALSE(builder.AddLink(v, u, aa, -1.0).ok());
  EXPECT_FALSE(builder.AddLink(v, 77, aa, 1.0).ok());
  EXPECT_FALSE(builder.AddLink(v, u, 9, 1.0).ok());
}

TEST(NetworkBuilderTest, EmptyNetworkBuilds) {
  Schema schema;
  (void)schema.AddObjectType("A");
  NetworkBuilder builder(std::move(schema));
  auto net = std::move(builder).Build();
  ASSERT_TRUE(net.ok());
  EXPECT_EQ(net->num_nodes(), 0u);
  EXPECT_EQ(net->num_links(), 0u);
}

TEST(NetworkBuilderTest, ParallelLinksAreKept) {
  // Two links of the same type between the same pair: both stored.
  Schema schema;
  auto a = schema.AddObjectType("A").value();
  auto aa = schema.AddLinkType("aa", a, a).value();
  NetworkBuilder builder(std::move(schema));
  NodeId v = builder.AddNode(a).value();
  NodeId u = builder.AddNode(a).value();
  EXPECT_TRUE(builder.AddLink(v, u, aa, 1.0).ok());
  EXPECT_TRUE(builder.AddLink(v, u, aa, 2.0).ok());
  Network net = std::move(builder).Build().value();
  EXPECT_EQ(net.OutDegree(v), 2u);
  double total = 0.0;
  for (const LinkEntry& e : net.OutLinks(v)) total += e.weight;
  EXPECT_DOUBLE_EQ(total, 3.0);
}

TEST(NetworkBuilderTest, SelfLoopAllowed) {
  Schema schema;
  auto a = schema.AddObjectType("A").value();
  auto aa = schema.AddLinkType("aa", a, a).value();
  NetworkBuilder builder(std::move(schema));
  NodeId v = builder.AddNode(a).value();
  EXPECT_TRUE(builder.AddLink(v, v, aa, 1.0).ok());
  Network net = std::move(builder).Build().value();
  EXPECT_EQ(net.OutDegree(v), 1u);
  EXPECT_EQ(net.InDegree(v), 1u);
}

TEST(NetworkBuilderTest, LargeCsrConsistency) {
  // Randomized CSR check: in/out degrees must agree with the added links.
  Schema schema;
  auto a = schema.AddObjectType("A").value();
  auto r0 = schema.AddLinkType("r0", a, a).value();
  auto r1 = schema.AddLinkType("r1", a, a).value();
  NetworkBuilder builder(std::move(schema));
  const size_t n = 200;
  for (size_t i = 0; i < n; ++i) (void)builder.AddNode(a);
  std::map<NodeId, size_t> expected_out;
  std::map<NodeId, size_t> expected_in;
  size_t added = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 1; j <= 3; ++j) {
      NodeId dst = static_cast<NodeId>((i * 7 + j * 13) % n);
      LinkTypeId t = (i + j) % 2 == 0 ? r0 : r1;
      ASSERT_TRUE(builder
                      .AddLink(static_cast<NodeId>(i), dst, t,
                               1.0 + static_cast<double>(j))
                      .ok());
      expected_out[static_cast<NodeId>(i)]++;
      expected_in[dst]++;
      ++added;
    }
  }
  Network net = std::move(builder).Build().value();
  EXPECT_EQ(net.num_links(), added);
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(net.OutDegree(v), expected_out[v]) << "node " << v;
    EXPECT_EQ(net.InDegree(v), expected_in[v]) << "node " << v;
    // Within each node, entries sorted by type.
    auto links = net.OutLinks(v);
    for (size_t i = 1; i < links.size(); ++i) {
      EXPECT_LE(links[i - 1].type, links[i].type);
    }
  }
}

TEST(NetworkBuilderTest, OutLinksGroupedByTypeRegardlessOfInsertionOrder) {
  // StrengthLearner's sufficient-statistics grouping assumes each node's
  // out-link span holds every link of a relation contiguously, in
  // non-decreasing type order (it DCHECKs this). Pin the invariant with
  // adversarial insertion order: types interleaved, neighbors descending.
  Schema schema;
  ObjectTypeId doc = schema.AddObjectType("doc").value();
  LinkTypeId r0 = schema.AddLinkType("r0", doc, doc).value();
  LinkTypeId r1 = schema.AddLinkType("r1", doc, doc).value();
  LinkTypeId r2 = schema.AddLinkType("r2", doc, doc).value();

  NetworkBuilder builder(schema);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 6; ++i) nodes.push_back(builder.AddNode(doc).value());
  const NodeId v = nodes[0];
  // Interleave relations and feed neighbors high-to-low.
  const std::vector<LinkTypeId> order = {r2, r0, r1, r0, r2, r1, r0};
  for (size_t i = 0; i < order.size(); ++i) {
    ASSERT_TRUE(builder.AddLink(v, nodes[5 - (i % 6)], order[i], 1.0).ok());
  }
  Network net = std::move(builder).Build().value();

  auto links = net.OutLinks(v);
  ASSERT_EQ(links.size(), 7u);
  std::map<LinkTypeId, size_t> counts;
  for (size_t i = 0; i < links.size(); ++i) {
    counts[links[i].type]++;
    if (i == 0) continue;
    // Sorted by (type, neighbor): type non-decreasing, neighbor ascending
    // within a type run — so every relation forms one contiguous group.
    EXPECT_LE(links[i - 1].type, links[i].type) << "position " << i;
    if (links[i - 1].type == links[i].type) {
      EXPECT_LE(links[i - 1].neighbor, links[i].neighbor)
          << "position " << i;
    }
  }
  EXPECT_EQ(counts[r0], 3u);
  EXPECT_EQ(counts[r1], 2u);
  EXPECT_EQ(counts[r2], 2u);
  // Contiguity directly: a type never reappears after its run ended.
  std::vector<LinkTypeId> seen;
  for (const LinkEntry& e : links) {
    if (seen.empty() || seen.back() != e.type) {
      for (LinkTypeId earlier : seen) EXPECT_NE(earlier, e.type);
      seen.push_back(e.type);
    }
  }
}

TEST(NetworkBuilderTest, OutCsrMatchesOutLinks) {
  // The per-relation SoA views must hold exactly the out-links of each
  // relation, row by row, neighbors ascending — the contract the EM SpMM
  // kernel consumes.
  Schema schema;
  ObjectTypeId doc = schema.AddObjectType("doc").value();
  LinkTypeId r0 = schema.AddLinkType("r0", doc, doc).value();
  LinkTypeId r1 = schema.AddLinkType("r1", doc, doc).value();

  NetworkBuilder builder(schema);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 5; ++i) nodes.push_back(builder.AddNode(doc).value());
  ASSERT_TRUE(builder.AddLink(nodes[0], nodes[3], r1, 2.0).ok());
  ASSERT_TRUE(builder.AddLink(nodes[0], nodes[1], r0, 0.5).ok());
  ASSERT_TRUE(builder.AddLink(nodes[0], nodes[4], r0, 1.5).ok());
  ASSERT_TRUE(builder.AddLink(nodes[2], nodes[0], r1, 3.0).ok());
  ASSERT_TRUE(builder.AddLink(nodes[4], nodes[2], r0, 4.0).ok());
  Network net = std::move(builder).Build().value();

  for (LinkTypeId r : {r0, r1}) {
    RelationCsr csr = net.OutCsr(r);
    ASSERT_EQ(csr.row_offsets.size(), net.num_nodes() + 1);
    ASSERT_EQ(csr.neighbors.size(), csr.weights.size());
    EXPECT_EQ(csr.nnz(), net.LinkCountsByType()[r]);
    size_t total = 0;
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      // Collect the reference grouping from the AoS span.
      std::vector<std::pair<NodeId, double>> want;
      for (const LinkEntry& e : net.OutLinks(v)) {
        if (e.type == r) want.emplace_back(e.neighbor, e.weight);
      }
      const size_t begin = csr.row_offsets[v];
      const size_t end = csr.row_offsets[v + 1];
      ASSERT_EQ(end - begin, want.size()) << "row " << v;
      for (size_t i = begin; i < end; ++i) {
        EXPECT_EQ(csr.neighbors[i], want[i - begin].first);
        EXPECT_EQ(csr.weights[i], want[i - begin].second);
        if (i > begin) {
          EXPECT_LE(csr.neighbors[i - 1], csr.neighbors[i]);  // ascending
        }
      }
      total += want.size();
    }
    EXPECT_EQ(total, csr.nnz());
  }
}

TEST(NetworkBuilderTest, LayoutIsIndependentOfInsertionOrder) {
  // Rows are sorted by (type, neighbor, weight), a strict total order, so
  // parallel links with different weights land in one canonical order and
  // the same link set inserted in any order builds byte-identical
  // adjacency, typed CSR and weight sums. Rows hold more than 16 entries,
  // where std::sort stops behaving like a stable insertion sort.
  Schema schema;
  ObjectTypeId doc = schema.AddObjectType("doc").value();
  LinkTypeId r0 = schema.AddLinkType("r0", doc, doc).value();
  LinkTypeId r1 = schema.AddLinkType("r1", doc, doc).value();
  struct Link {
    NodeId src, dst;
    LinkTypeId type;
    double weight;
  };
  std::vector<Link> links;
  Rng rng(11);
  for (int i = 0; i < 120; ++i) {
    const NodeId src = static_cast<NodeId>(rng.UniformIndex(3));
    const NodeId dst = static_cast<NodeId>(rng.UniformIndex(3));
    const LinkTypeId type = rng.Uniform() < 0.5 ? r0 : r1;
    // Few distinct weights, so exact duplicates occur as well.
    links.push_back({src, dst, type, 0.1 * (1 + rng.UniformIndex(5))});
  }
  auto build = [&](const std::vector<size_t>& order) {
    NetworkBuilder builder(schema);
    for (int i = 0; i < 3; ++i) EXPECT_TRUE(builder.AddNode(doc).ok());
    for (size_t i : order) {
      const Link& l = links[i];
      EXPECT_TRUE(builder.AddLink(l.src, l.dst, l.type, l.weight).ok());
    }
    return std::move(builder).Build().value();
  };
  auto same_entries = [](std::span<const LinkEntry> a,
                         std::span<const LinkEntry> b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const LinkEntry& x, const LinkEntry& y) {
                        return x.neighbor == y.neighbor && x.type == y.type &&
                               std::bit_cast<uint64_t>(x.weight) ==
                                   std::bit_cast<uint64_t>(y.weight);
                      });
  };
  auto bits = [](std::span<const double> values) {
    std::vector<uint64_t> out;
    for (double v : values) out.push_back(std::bit_cast<uint64_t>(v));
    return out;
  };

  std::vector<size_t> order(links.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const Network reference = build(order);
  for (int trial = 0; trial < 10; ++trial) {
    rng.Shuffle(&order);
    const Network net = build(order);
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      EXPECT_TRUE(same_entries(net.OutLinks(v), reference.OutLinks(v)))
          << "out-links of " << v << ", trial " << trial;
      EXPECT_TRUE(same_entries(net.InLinks(v), reference.InLinks(v)))
          << "in-links of " << v << ", trial " << trial;
    }
    for (LinkTypeId r : {r0, r1}) {
      const RelationCsr got = net.OutCsr(r);
      const RelationCsr want = reference.OutCsr(r);
      EXPECT_TRUE(std::equal(got.row_offsets.begin(), got.row_offsets.end(),
                             want.row_offsets.begin(),
                             want.row_offsets.end()));
      EXPECT_TRUE(std::equal(got.neighbors.begin(), got.neighbors.end(),
                             want.neighbors.begin(), want.neighbors.end()));
      EXPECT_EQ(bits(got.weights), bits(want.weights));
    }
    EXPECT_EQ(bits(net.LinkWeightsByType()),
              bits(reference.LinkWeightsByType()));
  }
}

TEST(NetworkBuilderTest, OutCsrOfEmptyRelation) {
  Schema schema;
  ObjectTypeId doc = schema.AddObjectType("doc").value();
  LinkTypeId used = schema.AddLinkType("used", doc, doc).value();
  LinkTypeId unused = schema.AddLinkType("unused", doc, doc).value();
  NetworkBuilder builder(schema);
  NodeId a = builder.AddNode(doc).value();
  NodeId b = builder.AddNode(doc).value();
  ASSERT_TRUE(builder.AddLink(a, b, used, 1.0).ok());
  Network net = std::move(builder).Build().value();

  RelationCsr csr = net.OutCsr(unused);
  EXPECT_EQ(csr.nnz(), 0u);
  ASSERT_EQ(csr.row_offsets.size(), 3u);
  for (size_t offset : csr.row_offsets) EXPECT_EQ(offset, 0u);
}

}  // namespace
}  // namespace genclus
