#include "baselines/topic_models.h"

#include <gtest/gtest.h>

#include "eval/nmi.h"
#include "prob/simplex.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using testing::MakeTwoCommunityNetwork;

TEST(NetPlsaTest, RecoversCommunitiesWithFullText) {
  auto fixture = MakeTwoCommunityNetwork(8, 1.0, 91);
  NetPlsaConfig config;
  config.num_clusters = 2;
  config.seed = 3;
  auto r = RunNetPlsa(fixture.dataset.network,
                      fixture.dataset.attributes[0], config);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const double nmi = NormalizedMutualInformation(
      RowArgMax(r->theta), fixture.dataset.labels.raw());
  EXPECT_GT(nmi, 0.8);
}

TEST(NetPlsaTest, ThetaOnSimplexIncludingTextFreeNodes) {
  auto fixture = MakeTwoCommunityNetwork(5, 0.5, 93);
  NetPlsaConfig config;
  config.num_clusters = 2;
  config.seed = 5;
  auto r = RunNetPlsa(fixture.dataset.network,
                      fixture.dataset.attributes[0], config);
  ASSERT_TRUE(r.ok());
  for (size_t v = 0; v < r->theta.rows(); ++v) {
    EXPECT_TRUE(IsOnSimplex(r->theta.RowVector(v), 1e-6)) << "node " << v;
  }
}

TEST(NetPlsaTest, BetaRowsAreDistributions) {
  auto fixture = MakeTwoCommunityNetwork(5, 1.0, 95);
  NetPlsaConfig config;
  config.num_clusters = 2;
  config.seed = 7;
  auto r = RunNetPlsa(fixture.dataset.network,
                      fixture.dataset.attributes[0], config);
  ASSERT_TRUE(r.ok());
  for (size_t k = 0; k < r->beta.rows(); ++k) {
    double total = 0.0;
    for (size_t l = 0; l < r->beta.cols(); ++l) total += r->beta(k, l);
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(NetPlsaTest, LambdaZeroIsPurePlsa) {
  // With lambda = 0 and no text, theta must stay flat for text-free nodes
  // only via their own (absent) signal — tags get the uniform fallback.
  auto fixture = MakeTwoCommunityNetwork(4, 1.0, 97);
  NetPlsaConfig config;
  config.num_clusters = 2;
  config.lambda = 0.0;
  config.seed = 9;
  auto r = RunNetPlsa(fixture.dataset.network,
                      fixture.dataset.attributes[0], config);
  ASSERT_TRUE(r.ok());
  // Tags carry no text; with lambda = 0 they still take neighbor averages
  // (the only defined fallback), so simply require valid rows.
  for (NodeId tag : fixture.tags) {
    EXPECT_TRUE(IsOnSimplex(r->theta.RowVector(tag), 1e-6));
  }
}

TEST(NetPlsaTest, RejectsBadInput) {
  auto fixture = MakeTwoCommunityNetwork(4, 1.0, 99);
  NetPlsaConfig config;
  config.num_clusters = 2;
  config.lambda = 1.0;  // out of range
  EXPECT_FALSE(RunNetPlsa(fixture.dataset.network,
                          fixture.dataset.attributes[0], config)
                   .ok());
  config.lambda = 0.5;
  config.num_clusters = 1;
  EXPECT_FALSE(RunNetPlsa(fixture.dataset.network,
                          fixture.dataset.attributes[0], config)
                   .ok());
  Attribute numerical = Attribute::Numerical("x",
      fixture.dataset.network.num_nodes());
  config.num_clusters = 2;
  EXPECT_FALSE(RunNetPlsa(fixture.dataset.network, numerical, config).ok());
}

TEST(ITopicModelTest, RecoversCommunitiesWithFullText) {
  auto fixture = MakeTwoCommunityNetwork(8, 1.0, 101);
  ITopicModelConfig config;
  config.num_clusters = 2;
  config.seed = 11;
  auto r = RunITopicModel(fixture.dataset.network,
                          fixture.dataset.attributes[0], config);
  ASSERT_TRUE(r.ok());
  const double nmi = NormalizedMutualInformation(
      RowArgMax(r->theta), fixture.dataset.labels.raw());
  EXPECT_GT(nmi, 0.8);
}

TEST(ITopicModelTest, PropagatesToTextFreeNodes) {
  auto fixture = MakeTwoCommunityNetwork(6, 1.0, 103);
  ITopicModelConfig config;
  config.num_clusters = 2;
  config.seed = 13;
  auto r = RunITopicModel(fixture.dataset.network,
                          fixture.dataset.attributes[0], config);
  ASSERT_TRUE(r.ok());
  // Tags have no text but link to their community's docs: their argmax
  // should match their docs'.
  const auto labels = RowArgMax(r->theta);
  EXPECT_EQ(labels[fixture.tags[0]], labels[fixture.docs[0]]);
  EXPECT_EQ(labels[fixture.tags[1]], labels[fixture.docs[6]]);
}

TEST(ITopicModelTest, DeterministicGivenSeed) {
  auto fixture = MakeTwoCommunityNetwork(4, 1.0, 105);
  ITopicModelConfig config;
  config.num_clusters = 2;
  config.seed = 15;
  auto a = RunITopicModel(fixture.dataset.network,
                          fixture.dataset.attributes[0], config);
  auto b = RunITopicModel(fixture.dataset.network,
                          fixture.dataset.attributes[0], config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(Matrix::MaxAbsDiff(a->theta, b->theta), 0.0);
}

TEST(ITopicModelTest, RejectsNegativeNeighborWeight) {
  auto fixture = MakeTwoCommunityNetwork(4, 1.0, 107);
  ITopicModelConfig config;
  config.num_clusters = 2;
  config.neighbor_weight = -1.0;
  EXPECT_FALSE(RunITopicModel(fixture.dataset.network,
                              fixture.dataset.attributes[0], config)
                   .ok());
}

TEST(TopicModelsTest, LogLikelihoodIsFinite) {
  auto fixture = MakeTwoCommunityNetwork(5, 0.8, 109);
  NetPlsaConfig np_config;
  np_config.num_clusters = 2;
  np_config.seed = 17;
  auto np = RunNetPlsa(fixture.dataset.network,
                       fixture.dataset.attributes[0], np_config);
  ASSERT_TRUE(np.ok());
  EXPECT_TRUE(std::isfinite(np->log_likelihood));

  ITopicModelConfig it_config;
  it_config.num_clusters = 2;
  it_config.seed = 19;
  auto it = RunITopicModel(fixture.dataset.network,
                           fixture.dataset.attributes[0], it_config);
  ASSERT_TRUE(it.ok());
  EXPECT_TRUE(std::isfinite(it->log_likelihood));
}

}  // namespace
}  // namespace genclus
