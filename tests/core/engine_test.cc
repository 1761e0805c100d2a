// Engine serving surface: Create validation, Infer/InferBatch equivalence
// with the per-object InferMembership path, determinism across thread
// counts, per-query error isolation, and the full train → save → load →
// serve round trip reproducing post-fit inference byte-for-byte.
#include "core/engine.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/model_io.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using testing::MakeTwoCommunityNetwork;

class EngineFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    fixture_ = MakeTwoCommunityNetwork(8, 1.0, 401);
    FitOptions options;
    options.attributes = {"text"};
    options.config = testing::PlantedFixtureConfig(402);
    auto fit = Engine::Fit(fixture_.dataset, options);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    model_ = std::move(fit).value().model;
  }

  Result<Engine> MakeEngine(size_t num_threads) {
    EngineOptions options;
    options.num_threads = num_threads;
    return Engine::Create(&fixture_.dataset.network, model_, options);
  }

  // A batch mixing link-only, text-only and combined queries for both
  // communities.
  std::vector<NewObjectQuery> MixedBatch() const {
    std::vector<NewObjectQuery> queries;
    {
      NewObjectQuery q;  // links into community 0
      for (int i = 0; i < 3; ++i) {
        q.links.push_back({fixture_.docs[i], fixture_.doc_doc, 1.0});
      }
      queries.push_back(std::move(q));
    }
    {
      NewObjectQuery q;  // community-1 text only
      q.observations.push_back(
          NewObjectObservation::Categorical(0, /*term=*/2, /*count=*/3.0));
      q.observations.push_back(
          NewObjectObservation::Categorical(0, /*term=*/3));
      queries.push_back(std::move(q));
    }
    {
      NewObjectQuery q;  // combined evidence
      q.links.push_back({fixture_.docs[0], fixture_.doc_doc, 2.0});
      q.observations.push_back(
          NewObjectObservation::Categorical(0, /*term=*/0, /*count=*/2.0));
      queries.push_back(std::move(q));
    }
    {
      NewObjectQuery q;  // no evidence: uniform
      queries.push_back(std::move(q));
    }
    return queries;
  }

  testing::TwoCommunityNetwork fixture_;
  Model model_;
};

TEST_F(EngineFixture, FitReportSplitsTimeByPhase) {
  FitOptions options;
  options.attributes = {"text"};
  options.config = testing::PlantedFixtureConfig(402);
  options.config.num_threads = 2;  // exercise the pooled γ-step wiring
  auto fit = Engine::Fit(fixture_.dataset, options);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  const FitReport& report = fit->report;
  // The per-phase totals are the sums over the trace, and the phases are
  // contained in the total wall-clock.
  double em = 0.0;
  double strength = 0.0;
  for (const OuterIterationRecord& record : report.trace) {
    em += record.em_seconds;
    strength += record.strength_seconds;
  }
  EXPECT_DOUBLE_EQ(report.em_seconds, em);
  EXPECT_DOUBLE_EQ(report.strength_seconds, strength);
  EXPECT_GT(report.em_seconds, 0.0);
  EXPECT_GT(report.strength_seconds, 0.0);
  EXPECT_LE(report.em_seconds + report.strength_seconds,
            report.total_seconds);
}

TEST_F(EngineFixture, CreateRejectsMismatchedModel) {
  EXPECT_FALSE(Engine::Create(nullptr, model_).ok());

  Model wrong_nodes = model_;
  wrong_nodes.theta = Matrix(3, model_.num_clusters(), 0.5);
  EXPECT_FALSE(
      Engine::Create(&fixture_.dataset.network, wrong_nodes).ok());

  Model wrong_links = model_;
  wrong_links.link_types[0] = "renamed";
  EXPECT_FALSE(
      Engine::Create(&fixture_.dataset.network, wrong_links).ok());

  Model missing_gamma = model_;
  missing_gamma.gamma.pop_back();
  missing_gamma.link_types.pop_back();
  EXPECT_FALSE(
      Engine::Create(&fixture_.dataset.network, missing_gamma).ok());
}

TEST_F(EngineFixture, InferBatchMatchesPerObjectInferMembership) {
  auto engine = MakeEngine(2);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const auto queries = MixedBatch();
  const auto batch = engine->InferBatch(queries);
  ASSERT_EQ(batch.size(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE(batch[i].ok()) << "query " << i;
    auto direct = InferMembership(fixture_.dataset.network, model_,
                                  queries[i].links,
                                  queries[i].observations);
    ASSERT_TRUE(direct.ok());
    // Exact equality: the batch path runs the identical fold-in update.
    EXPECT_EQ(*batch[i], *direct) << "query " << i;
  }
}

TEST_F(EngineFixture, InferBatchDeterministicAcrossThreadCounts) {
  const auto queries = MixedBatch();
  std::vector<std::vector<double>> reference;
  for (size_t num_threads : {1u, 2u, 4u, 8u}) {
    auto engine = MakeEngine(num_threads);
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ(engine->num_threads(), num_threads);
    const auto batch = engine->InferBatch(queries);
    ASSERT_EQ(batch.size(), queries.size());
    if (reference.empty()) {
      for (const auto& r : batch) {
        ASSERT_TRUE(r.ok());
        reference.push_back(*r);
      }
      continue;
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      ASSERT_TRUE(batch[i].ok());
      EXPECT_EQ(*batch[i], reference[i])
          << "thread count " << num_threads << " changed query " << i;
    }
  }
}

TEST_F(EngineFixture, InvalidQueriesFailAloneWithoutPoisoningTheBatch) {
  auto engine = MakeEngine(4);
  ASSERT_TRUE(engine.ok());
  std::vector<NewObjectQuery> queries = MixedBatch();  // 4 valid queries
  {
    NewObjectQuery q;  // out-of-range target node
    q.links.push_back({static_cast<NodeId>(999999), fixture_.doc_doc, 1.0});
    queries.insert(queries.begin() + 1, std::move(q));
  }
  {
    NewObjectQuery q;  // unknown attribute id
    q.observations.push_back(NewObjectObservation::Categorical(42, 0));
    queries.push_back(std::move(q));
  }
  {
    NewObjectQuery q;  // unknown link type
    q.links.push_back({fixture_.docs[0], 99, 1.0});
    queries.push_back(std::move(q));
  }
  {
    NewObjectQuery q;  // term outside the trained vocabulary
    q.observations.push_back(NewObjectObservation::Categorical(0, 77));
    queries.push_back(std::move(q));
  }

  const auto batch = engine->InferBatch(queries);
  ASSERT_EQ(batch.size(), 8u);
  EXPECT_FALSE(batch[1].ok());
  EXPECT_EQ(batch[1].status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(batch[5].ok());
  EXPECT_FALSE(batch[6].ok());
  EXPECT_FALSE(batch[7].ok());
  // The valid queries still answer, identically to a clean batch.
  const std::vector<NewObjectQuery> clean = MixedBatch();
  const auto clean_batch = engine->InferBatch(clean);
  for (size_t i : {0u, 2u, 3u, 4u}) {
    ASSERT_TRUE(batch[i].ok()) << "query " << i;
  }
  EXPECT_EQ(*batch[0], *clean_batch[0]);
  EXPECT_EQ(*batch[2], *clean_batch[1]);
  EXPECT_EQ(*batch[3], *clean_batch[2]);
  EXPECT_EQ(*batch[4], *clean_batch[3]);
}

TEST_F(EngineFixture, SaveLoadServeReproducesPostFitInferenceExactly) {
  // The acceptance path: SaveModel → LoadModel → InferBatch must equal a
  // direct post-Fit InferBatch byte-for-byte.
  const std::string path =
      (std::filesystem::temp_directory_path() / "engine_roundtrip.model")
          .string();
  ASSERT_TRUE(SaveModel(model_, path).ok());
  auto reloaded = LoadModel(path);
  std::remove(path.c_str());
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  auto direct = MakeEngine(2);
  auto served = Engine::Create(&fixture_.dataset.network,
                               std::move(reloaded).value());
  ASSERT_TRUE(direct.ok() && served.ok());

  const auto queries = MixedBatch();
  const auto expected = direct->InferBatch(queries);
  const auto actual = served->InferBatch(queries);
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(expected[i].ok() && actual[i].ok());
    EXPECT_EQ(*expected[i], *actual[i]) << "query " << i;
  }
}

TEST_F(EngineFixture, SingleQueryInferMatchesBatch) {
  auto engine = MakeEngine(1);
  ASSERT_TRUE(engine.ok());
  const auto queries = MixedBatch();
  const auto batch = engine->InferBatch(queries);
  for (size_t i = 0; i < queries.size(); ++i) {
    auto single = engine->Infer(queries[i]);
    ASSERT_TRUE(single.ok() && batch[i].ok());
    EXPECT_EQ(*single, *batch[i]);
  }
}

}  // namespace
}  // namespace genclus
