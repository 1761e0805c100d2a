// Objective evaluation: mixture log-likelihoods (Eqs. 3-5) and the g1
// decomposition (Eq. 9).
#include "core/objective.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/feature.h"
#include "prob/simplex.h"
#include "prob/special_functions.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

TEST(ObjectiveTest, CategoricalLikelihoodManualCheck) {
  // One node, two clusters, vocab 2; theta = (0.5, 0.5),
  // beta = [[1, 0], [0, 1]]; observation: term 0 twice.
  // p(term 0) = 0.5 * 1 + 0.5 * 0 = 0.5 => LL = 2 * log 0.5.
  Attribute text = Attribute::Categorical("text", 2, 1);
  (void)text.AddTermCount(0, 0, 2.0);
  auto comp = AttributeComponents::CategoricalUniform(2, 2);
  (*comp.mutable_beta())(0, 0) = 1.0;
  (*comp.mutable_beta())(0, 1) = 0.0;
  (*comp.mutable_beta())(1, 0) = 0.0;
  (*comp.mutable_beta())(1, 1) = 1.0;
  Matrix theta(1, 2, 0.5);
  EXPECT_NEAR(AttributeLogLikelihood(text, comp, theta), 2.0 * std::log(0.5),
              1e-12);
}

TEST(ObjectiveTest, GaussianLikelihoodManualCheck) {
  // One node, one observation at x = 0; two unit Gaussians at 0 and 10;
  // theta = (1, 0) => LL = log N(0 | 0, 1).
  Attribute values = Attribute::Numerical("x", 1);
  (void)values.AddValue(0, 0.0);
  std::vector<GaussianDistribution> gaussians = {
      GaussianDistribution(0.0, 1.0), GaussianDistribution(10.0, 1.0)};
  auto comp = AttributeComponents::Numerical(std::move(gaussians));
  Matrix theta(1, 2);
  theta(0, 0) = 1.0;
  EXPECT_NEAR(AttributeLogLikelihood(values, comp, theta),
              -0.5 * std::log(2.0 * M_PI), 1e-9);
}

TEST(ObjectiveTest, MixtureBeatsWrongComponent) {
  // A node whose observation sits at cluster 0's mean must get a higher
  // likelihood when theta points at cluster 0 than at cluster 1.
  Attribute values = Attribute::Numerical("x", 1);
  (void)values.AddValue(0, 0.0);
  std::vector<GaussianDistribution> gaussians = {
      GaussianDistribution(0.0, 1.0), GaussianDistribution(5.0, 1.0)};
  auto comp = AttributeComponents::Numerical(std::move(gaussians));
  Matrix right(1, 2);
  right(0, 0) = 0.99;
  right(0, 1) = 0.01;
  Matrix wrong(1, 2);
  wrong(0, 0) = 0.01;
  wrong(0, 1) = 0.99;
  EXPECT_GT(AttributeLogLikelihood(values, comp, right),
            AttributeLogLikelihood(values, comp, wrong));
}

TEST(ObjectiveTest, NodesWithoutObservationsContributeNothing) {
  Attribute text = Attribute::Categorical("text", 2, 5);  // all empty
  auto comp = AttributeComponents::CategoricalUniform(2, 2);
  Matrix theta(5, 2, 0.5);
  EXPECT_DOUBLE_EQ(AttributeLogLikelihood(text, comp, theta), 0.0);
}

TEST(ObjectiveTest, MultiAttributeSumsIndependently) {
  Attribute a = Attribute::Categorical("a", 2, 1);
  (void)a.AddTermCount(0, 0, 1.0);
  Attribute b = Attribute::Numerical("b", 1);
  (void)b.AddValue(0, 1.0);
  auto comp_a = AttributeComponents::CategoricalUniform(2, 2);
  auto comp_b = AttributeComponents::Numerical(
      {GaussianDistribution(1.0, 1.0), GaussianDistribution(2.0, 1.0)});
  Matrix theta(1, 2, 0.5);
  const double separate = AttributeLogLikelihood(a, comp_a, theta) +
                          AttributeLogLikelihood(b, comp_b, theta);
  const double together = TotalAttributeLogLikelihood(
      {&a, &b}, {comp_a, comp_b}, theta);
  EXPECT_NEAR(separate, together, 1e-12);
}

TEST(ObjectiveTest, G1IsStructurePlusAttributes) {
  auto fixture = testing::MakeTwoCommunityNetwork(3, 1.0, 81);
  const Network& net = fixture.dataset.network;
  std::vector<const Attribute*> attrs = {&fixture.dataset.attributes[0]};
  auto comp = AttributeComponents::CategoricalUniform(2, 4);
  std::vector<AttributeComponents> comps = {comp};
  Rng rng(3);
  Matrix theta(net.num_nodes(), 2);
  for (size_t v = 0; v < net.num_nodes(); ++v) {
    theta.SetRow(v, rng.SimplexUniform(2));
  }
  std::vector<double> gamma = {1.0, 2.0, 0.5};
  EXPECT_NEAR(G1Objective(net, attrs, comps, theta, gamma),
              StructuralScore(net, theta, gamma) +
                  TotalAttributeLogLikelihood(attrs, comps, theta),
              1e-9);
}

// A network with every input the g1 terms special-case: isolated nodes,
// nodes without observations, parallel links, theta entries of exactly 0
// and below kDefaultThetaFloor, and beta entries of 0 (so some categorical
// observations have zero mass). Large enough for 8 workers to each get
// more than two 128-node scoring blocks.
struct G1Edges {
  Dataset dataset;
  std::vector<AttributeComponents> components;
  Matrix theta;
  std::vector<double> gamma;
};

G1Edges MakeG1EdgeCases() {
  constexpr size_t kNodes = 2600;
  constexpr size_t kClusters = 3;
  constexpr size_t kVocab = 6;
  Rng rng(2024);
  Schema schema;
  const ObjectTypeId type = schema.AddObjectType("node").value();
  const LinkTypeId cites = schema.AddLinkType("cites", type, type).value();
  const LinkTypeId likes = schema.AddLinkType("likes", type, type).value();
  NetworkBuilder builder(schema);
  for (size_t v = 0; v < kNodes; ++v) (void)builder.AddNode(type).value();
  const auto isolated = [](size_t v) { return v % 11 == 0; };
  for (size_t v = 0; v < kNodes; ++v) {
    if (isolated(v)) continue;
    const size_t degree = rng.UniformIndex(6);
    for (size_t d = 0; d < degree; ++d) {
      size_t u = rng.UniformIndex(kNodes);
      if (isolated(u)) u = (u + 1) % kNodes;
      const LinkTypeId r = rng.UniformIndex(2) == 0 ? cites : likes;
      const double w = 0.5 + rng.Uniform();
      EXPECT_TRUE(builder.AddLink(static_cast<NodeId>(v),
                                  static_cast<NodeId>(u), r, w)
                      .ok());
      if (d == 0 && v % 3 == 0) {
        // Parallel links: the same pair again, same and new weight.
        EXPECT_TRUE(builder.AddLink(static_cast<NodeId>(v),
                                    static_cast<NodeId>(u), r, w)
                        .ok());
        EXPECT_TRUE(builder.AddLink(static_cast<NodeId>(v),
                                    static_cast<NodeId>(u), r, 2.0 * w)
                        .ok());
      }
    }
  }
  G1Edges out;
  out.dataset.network = std::move(builder).Build().value();

  Attribute text = Attribute::Categorical("text", kVocab, kNodes);
  Attribute reading = Attribute::Numerical("reading", kNodes);
  for (size_t v = 0; v < kNodes; ++v) {
    const NodeId node = static_cast<NodeId>(v);
    if (v % 2 == 0) {
      for (size_t d = rng.UniformIndex(4); d > 0; --d) {
        EXPECT_TRUE(text.AddTermCount(
                            node, static_cast<uint32_t>(rng.UniformIndex(kVocab)),
                            1.0 + static_cast<double>(rng.UniformIndex(3)))
                        .ok());
      }
    }
    if (v % 3 != 1) {
      for (size_t d = rng.UniformIndex(4); d > 0; --d) {
        EXPECT_TRUE(reading.AddValue(node, rng.Gaussian(0.0, 3.0)).ok());
      }
    }
  }
  out.dataset.attributes.push_back(std::move(text));
  out.dataset.attributes.push_back(std::move(reading));

  auto beta = AttributeComponents::CategoricalUniform(kClusters, kVocab);
  for (size_t k = 0; k < kClusters; ++k) {
    const std::vector<double> row = rng.SimplexUniform(kVocab);
    for (size_t l = 0; l < kVocab; ++l) {
      // Term l has zero mass in every cluster but one of its own.
      (*beta.mutable_beta())(k, l) = l % kClusters == k || l < 3 ? row[l] : 0.0;
    }
  }
  out.components.push_back(std::move(beta));
  out.components.push_back(AttributeComponents::Numerical(
      {GaussianDistribution(-2.0, 0.5), GaussianDistribution(0.0, 1.0),
       GaussianDistribution(3.0, 4.0)}));

  out.theta = Matrix(kNodes, kClusters);
  for (size_t v = 0; v < kNodes; ++v) {
    std::vector<double> row = rng.SimplexUniform(kClusters);
    if (v % 5 == 0) row[v % kClusters] = 0.0;
    if (v % 7 == 0) row[(v + 1) % kClusters] = 0.1 * kDefaultThetaFloor;
    if (v % 13 == 0) {
      row.assign(kClusters, 0.0);
      row[v % kClusters] = 1.0;
    }
    out.theta.SetRow(v, row);
  }
  out.gamma = {0.7, 1.9};
  return out;
}

// g1 as the plain serial definition: LinkFeature per link in (node, link)
// order, then per attribute the mixture log-likelihood of each observation
// in (node, observation) order.
double ReferenceG1(const G1Edges& in) {
  const Network& net = in.dataset.network;
  const Matrix& theta = in.theta;
  const size_t k = theta.cols();
  double structural = 0.0;
  for (NodeId v = 0; v < net.num_nodes(); ++v) {
    for (const LinkEntry& e : net.OutLinks(v)) {
      structural += LinkFeature({theta.Row(v), k}, {theta.Row(e.neighbor), k},
                                in.gamma[e.type], e.weight);
    }
  }
  double attributes = 0.0;
  for (size_t t = 0; t < in.dataset.attributes.size(); ++t) {
    const Attribute& attr = in.dataset.attributes[t];
    const AttributeComponents& comp = in.components[t];
    double total = 0.0;
    for (NodeId v = 0; v < attr.num_nodes(); ++v) {
      const double* theta_v = theta.Row(v);
      if (attr.kind() == AttributeKind::kCategorical) {
        for (const TermCount& tc : attr.TermCounts(v)) {
          double p = 0.0;
          for (size_t c = 0; c < k; ++c) {
            p += theta_v[c] * comp.beta()(c, tc.term);
          }
          total += tc.count * std::log(p > 0.0 ? p : 1e-300);
        }
      } else {
        std::vector<double> logs(k);
        for (double x : attr.Values(v)) {
          for (size_t c = 0; c < k; ++c) {
            const double tv = theta_v[c] > 0.0 ? theta_v[c] : 1e-300;
            logs[c] = std::log(tv) + comp.LogPdf(static_cast<ClusterId>(c), x);
          }
          total += LogSumExp(logs);
        }
      }
    }
    attributes += total;
  }
  return structural + attributes;
}

TEST(ObjectiveTest, G1BitwiseEqualsSerialDefinitionForAnyPool) {
  const G1Edges in = MakeG1EdgeCases();
  std::vector<const Attribute*> attrs;
  for (const Attribute& a : in.dataset.attributes) attrs.push_back(&a);
  const double want = ReferenceG1(in);
  ASSERT_TRUE(std::isfinite(want));
  EXPECT_EQ(std::bit_cast<uint64_t>(G1Objective(in.dataset.network, attrs,
                                                in.components, in.theta,
                                                in.gamma)),
            std::bit_cast<uint64_t>(want))
      << "no pool";
  for (size_t threads : {2u, 3u, 8u}) {
    ThreadPool pool(threads);
    const double got = G1Objective(in.dataset.network, attrs, in.components,
                                   in.theta, in.gamma, &pool);
    EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
        << threads << " threads: " << got << " vs " << want;
  }
}

}  // namespace
}  // namespace genclus
