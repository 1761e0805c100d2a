// The micro-batching serving tier (core/server.h) and the Submit
// lifetime fixes:
//   * per-query answers bitwise identical to Engine::InferBatch no matter
//     how the admission loop batches them, including under N producers x
//     M submissions of mixed valid/invalid queries (status isolation);
//   * backpressure: a full queue rejects with kResourceExhausted
//     immediately instead of blocking;
//   * clean shutdown with a non-empty queue — draining by default,
//     failing fast with kCancelled when drain_on_stop is off;
//   * destroying a Server with pending SubmitBatch futures is safe (the
//     old Engine::Submit std::async path dangled its captured ServeState
//     — ASan/TSan cover this regression in CI);
//   * concurrent Engine::Execute calls (per-caller sessions, no global
//     execution mutex) stay bitwise equal to the reference path;
//   * ServerStats observability: counters, batch-size histogram, queue
//     high-water, latency summaries.
#include "core/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/inference.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using testing::MakeTwoCommunityNetwork;

// Shared trained state: fitting once per suite keeps the file fast.
class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new testing::TwoCommunityNetwork(
        MakeTwoCommunityNetwork(8, 1.0, 501));
    FitOptions options;
    options.attributes = {"text"};
    options.config = testing::PlantedFixtureConfig(502);
    auto fit = Engine::Fit(fixture_->dataset, options);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    model_ = new Model(std::move(fit).value().model);
  }

  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete fixture_;
    fixture_ = nullptr;
  }

  static std::unique_ptr<Server> MakeServer(ServerOptions options) {
    auto server =
        Server::Create(&fixture_->dataset.network, model_, options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(server).value();
  }

  // A small pool of distinct queries with precomputed reference answers:
  // index % 3 == 2 queries are invalid (unknown link type).
  struct QueryPool {
    std::vector<NewObjectQuery> queries;
    std::vector<Result<std::vector<double>>> reference;
  };

  static QueryPool MakeQueryPool(size_t count) {
    QueryPool pool;
    for (size_t i = 0; i < count; ++i) {
      NewObjectQuery q;
      if (i % 3 == 2) {
        q.links.push_back({fixture_->docs[0], 99, 1.0});  // invalid type
      } else {
        q.links.push_back(
            {fixture_->docs[i % fixture_->docs.size()], fixture_->doc_doc,
             1.0 + static_cast<double>(i % 4)});
        q.observations.push_back(NewObjectObservation::Categorical(
            0, static_cast<uint32_t>(i % 4)));
      }
      pool.reference.push_back(
          InferMembership(fixture_->dataset.network, *model_, q.links,
                          q.observations));
      pool.queries.push_back(std::move(q));
    }
    return pool;
  }

  static void ExpectMatchesReference(
      const QueryResult& answer,
      const Result<std::vector<double>>& reference) {
    ASSERT_EQ(answer.status, reference.status());
    if (!reference.ok()) return;
    ASSERT_EQ(answer.membership.size(), reference.value().size());
    for (size_t k = 0; k < answer.membership.size(); ++k) {
      // Bitwise: the tier must not perturb the planned pipeline.
      EXPECT_EQ(answer.membership[k], reference.value()[k]) << "k=" << k;
    }
  }

  static testing::TwoCommunityNetwork* fixture_;
  static Model* model_;
};

testing::TwoCommunityNetwork* ServerTest::fixture_ = nullptr;
Model* ServerTest::model_ = nullptr;

TEST_F(ServerTest, CreateValidatesOptionsAndModel) {
  ServerOptions bad;
  bad.max_batch = 0;
  auto server = Server::Create(&fixture_->dataset.network, model_, bad);
  EXPECT_FALSE(server.ok());
  EXPECT_EQ(server.status().code(), StatusCode::kInvalidArgument);

  auto null_model = Server::Create(&fixture_->dataset.network,
                                   static_cast<const Model*>(nullptr), {});
  EXPECT_FALSE(null_model.ok());
}

TEST_F(ServerTest, SingleQueryMatchesInferBatchBitwise) {
  ServerOptions options;
  options.num_workers = 2;
  auto server = MakeServer(options);
  QueryPool pool = MakeQueryPool(6);
  std::vector<std::future<QueryResult>> futures;
  for (const NewObjectQuery& q : pool.queries) {
    auto submitted = server->Submit(q);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted).value());
  }
  for (size_t i = 0; i < futures.size(); ++i) {
    ExpectMatchesReference(futures[i].get(), pool.reference[i]);
  }
  const ServerStats stats = server->Stats();
  EXPECT_EQ(stats.accepted, pool.queries.size());
  EXPECT_EQ(stats.completed, pool.queries.size());
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(ServerTest, ConcurrentProducersMixedValidityStatusIsolation) {
  // The satellite stress: N producers x M submissions of mixed
  // valid/invalid queries through one server. Every future must carry
  // exactly its own query's status/answer (no cross-query poisoning) and
  // match the reference path bitwise, whatever micro-batching happened.
  constexpr size_t kProducers = 4;
  constexpr size_t kPerProducer = 60;
  ServerOptions options;
  options.num_workers = 3;
  options.max_batch = 8;
  options.max_wait_us = 100;
  options.queue_capacity = 512;
  auto server = MakeServer(options);
  QueryPool pool = MakeQueryPool(12);

  struct Outcome {
    size_t pool_index;
    std::future<QueryResult> future;
  };
  std::vector<std::vector<Outcome>> outcomes(kProducers);
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = 0; i < kPerProducer; ++i) {
        const size_t index = (p * kPerProducer + i) % pool.queries.size();
        for (;;) {
          auto submitted = server->Submit(pool.queries[index]);
          if (submitted.ok()) {
            outcomes[p].push_back({index, std::move(submitted).value()});
            break;
          }
          // Backpressure is an expected, retryable outcome here.
          ASSERT_EQ(submitted.status().code(),
                    StatusCode::kResourceExhausted);
          std::this_thread::yield();
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  size_t valid = 0;
  for (std::vector<Outcome>& produced : outcomes) {
    for (Outcome& outcome : produced) {
      ExpectMatchesReference(outcome.future.get(),
                             pool.reference[outcome.pool_index]);
      if (pool.reference[outcome.pool_index].ok()) ++valid;
    }
  }
  EXPECT_GT(valid, 0u);
  const ServerStats stats = server->Stats();
  EXPECT_EQ(stats.completed, kProducers * kPerProducer);
  EXPECT_GE(stats.batches, 1u);
  // Histogram total must account for every executed micro-batch.
  size_t histogram_batches = 0;
  size_t histogram_queries = 0;
  for (size_t s = 0; s < stats.batch_size_histogram.size(); ++s) {
    histogram_batches += stats.batch_size_histogram[s];
    histogram_queries += s * stats.batch_size_histogram[s];
  }
  EXPECT_EQ(histogram_batches, stats.batches);
  EXPECT_EQ(histogram_queries, stats.completed);
  EXPECT_GE(stats.queue_high_water, 1u);
  EXPECT_EQ(stats.end_to_end.count, stats.completed);
  EXPECT_GE(stats.end_to_end.p99_us, stats.end_to_end.p50_us);
}

TEST_F(ServerTest, QueueFullRejectsImmediatelyWithResourceExhausted) {
  // One worker wedged on a deliberately expensive query + capacity 2:
  // while it grinds, the queue fills and further Submits must reject
  // immediately (never block).
  ServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 2;
  options.max_batch = 1;  // the slow query must not coalesce helpers
  options.max_wait_us = 0;
  auto server = MakeServer(options);

  NewObjectQuery slow;
  slow.links.push_back({fixture_->docs[0], fixture_->doc_doc, 1.0});
  for (int i = 0; i < 200000; ++i) {
    slow.observations.push_back(NewObjectObservation::Categorical(
        0, static_cast<uint32_t>(i % 4)));
  }
  auto wedge = server->Submit(slow);
  ASSERT_TRUE(wedge.ok());

  NewObjectQuery quick;
  quick.links.push_back({fixture_->docs[1], fixture_->doc_doc, 1.0});
  // Fill the queue and then observe a rejection. The worker may steal an
  // item between pushes, so push until the immediate-failure shows up;
  // with the worker wedged for many milliseconds this terminates at once
  // in practice, and the attempt cap keeps the test bounded regardless.
  std::vector<std::future<QueryResult>> admitted;
  bool saw_rejection = false;
  for (int attempt = 0; attempt < 10000 && !saw_rejection; ++attempt) {
    auto submitted = server->Submit(quick);
    if (submitted.ok()) {
      admitted.push_back(std::move(submitted).value());
    } else {
      EXPECT_EQ(submitted.status().code(), StatusCode::kResourceExhausted);
      saw_rejection = true;
    }
  }
  EXPECT_TRUE(saw_rejection);
  EXPECT_GE(server->Stats().rejected, 1u);
  // Drain: everything admitted still completes.
  EXPECT_TRUE(wedge->get().ok());
  for (std::future<QueryResult>& f : admitted) EXPECT_TRUE(f.get().ok());
}

TEST_F(ServerTest, StopDrainsNonEmptyQueueByDefault) {
  ServerOptions options;
  options.num_workers = 2;
  options.max_batch = 4;
  auto server = MakeServer(options);
  QueryPool pool = MakeQueryPool(9);
  std::vector<std::future<QueryResult>> futures;
  for (int round = 0; round < 5; ++round) {
    for (const NewObjectQuery& q : pool.queries) {
      auto submitted = server->Submit(q);
      ASSERT_TRUE(submitted.ok());
      futures.push_back(std::move(submitted).value());
    }
  }
  // Stop with (very likely) queued work: drain semantics demand every
  // admitted request still gets a real answer.
  server->Stop();
  for (size_t i = 0; i < futures.size(); ++i) {
    ExpectMatchesReference(futures[i].get(),
                           pool.reference[i % pool.queries.size()]);
  }
  // A stopped server rejects new work with kFailedPrecondition.
  auto late = server->Submit(pool.queries[0]);
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(ServerTest, NonDrainingStopCancelsQueuedRequests) {
  ServerOptions options;
  options.num_workers = 1;
  options.max_batch = 2;
  options.drain_on_stop = false;
  auto server = MakeServer(options);
  QueryPool pool = MakeQueryPool(3);
  std::vector<std::future<QueryResult>> futures;
  for (int round = 0; round < 40; ++round) {
    for (const NewObjectQuery& q : pool.queries) {
      auto submitted = server->Submit(q);
      if (submitted.ok()) futures.push_back(std::move(submitted).value());
    }
  }
  server->Stop();
  size_t cancelled = 0;
  for (size_t i = 0; i < futures.size(); ++i) {
    QueryResult answer = futures[i].get();  // every future must resolve
    if (answer.status.code() == StatusCode::kCancelled) {
      ++cancelled;
    } else {
      ExpectMatchesReference(answer,
                             pool.reference[i % pool.queries.size()]);
    }
  }
  EXPECT_EQ(server->Stats().cancelled, cancelled);
}

TEST_F(ServerTest, SubmitBatchAssemblesInferenceResultBitwise) {
  ServerOptions options;
  options.num_workers = 2;
  options.max_batch = 2;  // force the batch to scatter across micro-batches
  options.max_wait_us = 0;
  auto server = MakeServer(options);
  QueryPool pool = MakeQueryPool(7);

  EngineOptions engine_options;
  engine_options.num_threads = 1;
  auto engine = Engine::Create(&fixture_->dataset.network, *model_,
                               engine_options);
  ASSERT_TRUE(engine.ok());
  const InferenceResult expected =
      engine->Execute(engine->Plan(pool.queries));

  std::future<InferenceResult> future = server->SubmitBatch(pool.queries);
  const InferenceResult actual = future.get();
  ASSERT_EQ(actual.size(), expected.size());
  EXPECT_EQ(actual.memberships.data(), expected.memberships.data());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual.statuses[i], expected.statuses[i]) << "query " << i;
    EXPECT_EQ(actual.hard_labels[i], expected.hard_labels[i]);
  }
  EXPECT_EQ(actual.report.batch_size, pool.queries.size());
  EXPECT_EQ(actual.report.valid_queries, expected.report.valid_queries);
  EXPECT_EQ(actual.report.total_links, expected.report.total_links);
  EXPECT_EQ(actual.report.total_observations,
            expected.report.total_observations);

  std::future<InferenceResult> empty = server->SubmitBatch({});
  EXPECT_EQ(empty.get().size(), 0u);
}

TEST_F(ServerTest, ServerDestructionWithPendingSubmitBatchIsSafe) {
  // Regression for the PR 5 Submit hazard: a pending std::async future
  // captured the engine's heap ServeState, so destroying the owner with
  // the future in flight was a use-after-free. SubmitBatch rides the
  // draining queue: the server destructor completes every outstanding
  // submission before tearing anything down, and the futures stay valid
  // afterwards (their shared state is independent). ASan/TSan jobs in CI
  // watch this test.
  QueryPool pool = MakeQueryPool(6);

  std::vector<std::future<InferenceResult>> pending;
  {
    ServerOptions options;
    options.num_workers = 2;
    auto server = MakeServer(options);
    for (int i = 0; i < 8; ++i) {
      pending.push_back(server->SubmitBatch(pool.queries));
    }
    // Server destroyed here, submissions very likely still queued.
  }
  for (std::future<InferenceResult>& future : pending) {
    const InferenceResult result = future.get();
    ASSERT_EQ(result.size(), pool.queries.size());
    for (size_t i = 0; i < pool.queries.size(); ++i) {
      ASSERT_EQ(result.statuses[i], pool.reference[i].status());
      if (!pool.reference[i].ok()) continue;
      for (size_t k = 0; k < pool.reference[i].value().size(); ++k) {
        EXPECT_EQ(result.memberships(i, k), pool.reference[i].value()[k]);
      }
    }
  }
}

TEST_F(ServerTest, AnswersBitwiseInvariantToThetaShardsAndWorkers) {
  // Served answers must be bitwise identical across every Θ shard count x
  // worker count combination: the per-shard link terms merge in ascending
  // shard order, replaying the monolithic accumulation chain exactly, and
  // each query's sweep is independent of how micro-batches form. The
  // server serves the model's own shard count, so each count is stamped
  // on a copy of the model.
  QueryPool pool = MakeQueryPool(10);
  std::vector<QueryResult> baseline;
  for (size_t shards : {1, 2, 4}) {
    Model sharded = *model_;
    sharded.theta_shards = shards;
    for (size_t workers : {1, 2, 8}) {
      ServerOptions options;
      options.num_workers = workers;
      auto created =
          Server::Create(&fixture_->dataset.network, sharded, options);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      std::unique_ptr<Server> server = std::move(created).value();
      std::vector<std::future<QueryResult>> futures;
      for (const NewObjectQuery& q : pool.queries) {
        auto submitted = server->Submit(q);
        ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
        futures.push_back(std::move(submitted).value());
      }
      std::vector<QueryResult> answers;
      for (std::future<QueryResult>& f : futures) {
        answers.push_back(f.get());
      }
      if (baseline.empty()) {
        for (size_t i = 0; i < answers.size(); ++i) {
          ExpectMatchesReference(answers[i], pool.reference[i]);
        }
        baseline = std::move(answers);
        continue;
      }
      for (size_t i = 0; i < answers.size(); ++i) {
        EXPECT_EQ(answers[i].status, baseline[i].status)
            << "shards " << shards << " workers " << workers << " query "
            << i;
        // Bitwise: EXPECT_EQ on the double vectors, no tolerance.
        EXPECT_EQ(answers[i].membership, baseline[i].membership)
            << "shards " << shards << " workers " << workers << " query "
            << i;
        EXPECT_EQ(answers[i].hard_label, baseline[i].hard_label);
      }
    }
  }
}

TEST_F(ServerTest, StatsConcurrentWithLiveTrafficIsRaceFree) {
  // Pin for the PR 7 lock audit: every ServerStats field is
  // GENCLUS_GUARDED_BY(stats_mutex_) and Stats() snapshots the rings
  // under the lock, then summarizes (nth_element over up to 4 x 8192
  // samples) only after releasing it. This test hammers Stats() from
  // dedicated reader threads while producers keep the admission loop and
  // workers busy, so the TSan CI lane observes the reader/writer
  // interleavings and any unguarded field access becomes a hard failure.
  ServerOptions options;
  options.num_workers = 2;
  options.max_batch = 4;
  auto server = MakeServer(options);
  QueryPool pool = MakeQueryPool(6);

  std::atomic<bool> stop_readers{false};
  std::atomic<bool> readers_ok{true};
  constexpr size_t kReaders = 2;
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      while (!stop_readers.load()) {
        const ServerStats stats = server->Stats();
        // Sanity on every snapshot: totals never run ahead of admissions
        // and the histogram keeps its fixed shape.
        if (stats.completed + stats.cancelled > stats.accepted ||
            stats.batch_size_histogram.size() != options.max_batch + 1) {
          readers_ok.store(false);
          return;
        }
      }
    });
  }

  constexpr size_t kProducers = 3;
  constexpr size_t kRounds = 30;
  std::vector<std::thread> producers;
  std::atomic<size_t> accepted{0};
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&] {
      for (size_t round = 0; round < kRounds; ++round) {
        std::vector<std::future<QueryResult>> futures;
        for (const NewObjectQuery& q : pool.queries) {
          auto submitted = server->Submit(q);
          if (!submitted.ok()) continue;  // backpressure is fine here
          accepted.fetch_add(1);
          futures.push_back(std::move(submitted).value());
        }
        for (std::future<QueryResult>& f : futures) f.get();
      }
    });
  }
  for (std::thread& t : producers) t.join();
  stop_readers.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_TRUE(readers_ok.load());

  // Quiescent now: the drained totals must reconcile exactly.
  const ServerStats final_stats = server->Stats();
  EXPECT_EQ(final_stats.accepted, accepted.load());
  EXPECT_EQ(final_stats.completed, accepted.load());
  EXPECT_EQ(final_stats.cancelled, 0u);
}

TEST_F(ServerTest, ConcurrentEngineExecuteMatchesReference) {
  // With the execution mutex gone, concurrent Execute callers get their
  // own pooled sessions and must still produce bitwise-reference results
  // while genuinely overlapping on one engine (and one thread pool).
  EngineOptions engine_options;
  engine_options.num_threads = 2;
  auto engine = Engine::Create(&fixture_->dataset.network, *model_,
                               engine_options);
  ASSERT_TRUE(engine.ok());
  QueryPool pool = MakeQueryPool(8);
  const InferPlan plan = engine->Plan(pool.queries);

  constexpr size_t kCallers = 4;
  constexpr size_t kRounds = 25;
  std::vector<std::thread> callers;
  std::atomic<bool> ok{true};
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      for (size_t round = 0; round < kRounds; ++round) {
        const InferenceResult result = engine->Execute(plan);
        for (size_t i = 0; i < pool.queries.size(); ++i) {
          if (result.statuses[i] != pool.reference[i].status()) {
            ok.store(false);
            return;
          }
          if (!pool.reference[i].ok()) continue;
          const std::vector<double>& expected = pool.reference[i].value();
          if (std::memcmp(result.memberships.Row(i), expected.data(),
                          expected.size() * sizeof(double)) != 0) {
            ok.store(false);
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_TRUE(ok.load());
}

}  // namespace
}  // namespace genclus
