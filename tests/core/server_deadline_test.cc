// Deadline-aware serving (core/server.h): shedding, the linger cap and
// fault injection. Pins the robustness contracts on top of the
// micro-batching tier:
//   * a deadline that has already expired is rejected at Submit
//     (kDeadlineExceeded) without queueing;
//   * a deadline that expires while the request is queued sheds at
//     dequeue — the future resolves with kDeadlineExceeded, no work done;
//   * a tight deadline caps its micro-batch's coalescing linger, so the
//     request is answered within budget instead of lingering past it;
//   * a worker catching an exception from Execute fails that batch's
//     futures with kInternal and keeps serving (the "server.execute"
//     failpoint drives this deterministically);
//   * accounting: every admitted request resolves with a definite
//     status, and the counters reconcile exactly at quiescence.
// The failpoint-driven tests skip (GTEST_SKIP) in builds without
// GENCLUS_FAILPOINTS; the rest run in every lane, including TSan.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/deadline.h"
#include "common/failpoint.h"
#include "core/engine.h"
#include "core/server.h"
#include "tests/core/test_fixtures.h"

namespace genclus {
namespace {

using std::chrono::microseconds;
using std::chrono::milliseconds;
using testing::MakeTwoCommunityNetwork;

// Shared trained state: fitting once per suite keeps the file fast.
class ServerDeadlineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    fixture_ = new testing::TwoCommunityNetwork(
        MakeTwoCommunityNetwork(8, 1.0, 601));
    FitOptions options;
    options.attributes = {"text"};
    options.config = testing::PlantedFixtureConfig(602);
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

  void TearDown() override { Failpoints::DisarmAll(); }

  static std::unique_ptr<Server> MakeServer(ServerOptions options) {
    auto server =
        Server::Create(&fixture_->dataset.network, model_, options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    return std::move(server).value();
  }

  static NewObjectQuery MakeQuery(size_t i = 0) {
    NewObjectQuery q;
    q.links.push_back({fixture_->docs[i % fixture_->docs.size()],
                       fixture_->doc_doc, 1.0});
    q.observations.push_back(NewObjectObservation::Categorical(
        0, static_cast<uint32_t>(i % 4)));
    return q;
  }

  static testing::TwoCommunityNetwork* fixture_;
  static Model* model_;
};

testing::TwoCommunityNetwork* ServerDeadlineTest::fixture_ = nullptr;
Model* ServerDeadlineTest::model_ = nullptr;

TEST_F(ServerDeadlineTest, ValidateRejectsBadRobustnessOptions) {
  ServerOptions options;
  options.default_timeout_us = -1;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServerDeadlineTest, AlreadyExpiredDeadlineIsRejectedAtSubmit) {
  auto server = MakeServer({});
  const Deadline expired =
      Deadline::At(Deadline::Clock::now() - milliseconds(1));
  auto submitted = server->Submit(MakeQuery(), expired);
  ASSERT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), StatusCode::kDeadlineExceeded);
  const ServerStats stats = server->Stats();
  EXPECT_EQ(stats.deadline_rejected, 1u);
  EXPECT_EQ(stats.accepted, 0u);
}

TEST_F(ServerDeadlineTest, InfiniteAndGenerousDeadlinesServeNormally) {
  ServerOptions options;
  options.default_timeout_us = 5'000'000;  // generous default
  auto server = MakeServer(options);
  auto no_deadline = server->Submit(MakeQuery(0));
  ASSERT_TRUE(no_deadline.ok());
  auto explicit_deadline =
      server->Submit(MakeQuery(1), Deadline::AfterMicros(5'000'000));
  ASSERT_TRUE(explicit_deadline.ok());
  QueryResult a = no_deadline->get();
  QueryResult b = explicit_deadline->get();
  EXPECT_TRUE(a.ok()) << a.status.ToString();
  EXPECT_TRUE(b.ok()) << b.status.ToString();
  const ServerStats stats = server->Stats();
  EXPECT_EQ(stats.deadline_shed, 0u);
  EXPECT_EQ(stats.deadline_rejected, 0u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST_F(ServerDeadlineTest, ExpiredInQueueIsShedAtDequeue) {
  // One worker wedged on a deliberately expensive query: a request with a
  // few-ms budget admitted behind it expires while queued and must be
  // shed at dequeue — future resolves with kDeadlineExceeded, nothing
  // executed. The budget is long enough to outlive the submit path (so
  // the request is admitted, not rejected at Submit, even on a slow or
  // sanitized build) and far shorter than the wedge.
  constexpr int64_t kBudgetUs = 3'000;
  constexpr int kWedgeObservations = 500'000;
  ServerOptions options;
  options.num_workers = 1;
  options.max_batch = 1;  // the wedge must not coalesce its victim
  options.max_wait_us = 0;
  auto server = MakeServer(options);

  NewObjectQuery slow = MakeQuery();
  for (int i = 0; i < kWedgeObservations; ++i) {
    slow.observations.push_back(NewObjectObservation::Categorical(
        0, static_cast<uint32_t>(i % 4)));
  }
  auto wedge = server->Submit(std::move(slow));
  ASSERT_TRUE(wedge.ok());

  auto doomed = server->Submit(MakeQuery(), Deadline::AfterMicros(kBudgetUs));
  ASSERT_TRUE(doomed.ok()) << doomed.status().ToString();
  const QueryResult result = doomed->get();
  const QueryResult wedged = wedge->get();
  ASSERT_TRUE(wedged.ok()) << wedged.status.ToString();
  // Precondition: the wedge's execution (the only exec sample) outlasted
  // the budget. The shed pass expires a request whose deadline falls
  // before dequeue + predicted execution, and the prediction is this very
  // sample, so the doomed request cannot have been executed.
  const double wedge_exec_us = server->Stats().exec.max_us;
  ASSERT_GT(wedge_exec_us, static_cast<double>(kBudgetUs))
      << "wedge ran " << wedge_exec_us
      << "us, too short to outlast the deadline budget";
  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result.membership.empty());
  EXPECT_GT(result.queue_seconds, 0.0);

  const ServerStats stats = server->Stats();
  EXPECT_EQ(stats.deadline_shed, 1u);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 1u);
  // The invariant the bench gates at scale: every admitted request
  // resolved one way.
  EXPECT_EQ(stats.accepted,
            stats.completed + stats.cancelled + stats.deadline_shed);
}

TEST_F(ServerDeadlineTest, TightDeadlineCapsTheBatchLinger) {
  // A half-second linger would shed a 60ms-deadline request if the
  // worker waited it out. The deadline must cap the linger instead: the
  // request executes early and completes within budget.
  ServerOptions options;
  options.num_workers = 1;
  options.max_batch = 64;
  options.max_wait_us = 500'000;  // pathological linger
  auto server = MakeServer(options);

  const auto start = std::chrono::steady_clock::now();
  auto submitted = server->Submit(MakeQuery(), Deadline::AfterMicros(60'000));
  ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
  const QueryResult result = submitted->get();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(result.ok()) << result.status.ToString();
  EXPECT_LT(elapsed, milliseconds(400));  // nowhere near the full linger
  EXPECT_EQ(server->Stats().deadline_shed, 0u);
}

TEST_F(ServerDeadlineTest, SubmitBatchAppliesOneDeadlineToEverySlot) {
  auto server = MakeServer({});
  std::vector<NewObjectQuery> queries;
  for (size_t i = 0; i < 4; ++i) queries.push_back(MakeQuery(i));
  // Expired batch deadline: every slot fails at admission, the batch
  // future still resolves.
  const Deadline expired =
      Deadline::At(Deadline::Clock::now() - milliseconds(1));
  InferenceResult rejected =
      server->SubmitBatch(queries, expired).get();
  ASSERT_EQ(rejected.size(), queries.size());
  for (size_t i = 0; i < rejected.size(); ++i) {
    EXPECT_EQ(rejected.statuses[i].code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(server->Stats().deadline_rejected, queries.size());
  // Generous batch deadline: all served.
  InferenceResult served =
      server->SubmitBatch(queries, Deadline::AfterMicros(5'000'000)).get();
  ASSERT_EQ(served.size(), queries.size());
  for (size_t i = 0; i < served.size(); ++i) {
    EXPECT_TRUE(served.statuses[i].ok()) << served.statuses[i].ToString();
  }
}

TEST_F(ServerDeadlineTest, ExecuteExceptionFailsBatchAndWorkerSurvives) {
  if (!Failpoints::kEnabled) {
    GTEST_SKIP() << "needs a GENCLUS_FAILPOINTS build";
  }
  // "server.execute" throws inside the worker's try block. The batch's
  // futures must resolve with kInternal — counted as completed, nothing
  // hangs — and the same worker must serve the next request normally.
  ServerOptions options;
  options.num_workers = 1;
  auto server = MakeServer(options);
  Failpoints::Arm("server.execute", {.max_fires = 1});

  auto poisoned = server->Submit(MakeQuery());
  ASSERT_TRUE(poisoned.ok());
  const QueryResult failed = poisoned->get();
  EXPECT_EQ(failed.status.code(), StatusCode::kInternal);
  EXPECT_TRUE(failed.membership.empty());

  auto healthy = server->Submit(MakeQuery());
  ASSERT_TRUE(healthy.ok());
  EXPECT_TRUE(healthy->get().ok());

  const ServerStats stats = server->Stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);  // kInternal still resolves/accounts
  EXPECT_EQ(stats.accepted,
            stats.completed + stats.cancelled + stats.deadline_shed);
}

TEST_F(ServerDeadlineTest, MixedDeadlineTrafficReconcilesExactly) {
  // Concurrent producers with a mix of absent, generous and hopeless
  // deadlines: at quiescence every submission is accounted for exactly
  // once across accepted/rejected/deadline_rejected, and every admitted
  // request across completed/cancelled/deadline_shed.
  ServerOptions options;
  options.num_workers = 2;
  options.max_batch = 8;
  options.queue_capacity = 64;
  auto server = MakeServer(options);

  constexpr size_t kProducers = 3;
  constexpr size_t kPerProducer = 40;
  std::atomic<size_t> submissions{0};
  std::atomic<size_t> admitted{0};
  std::atomic<size_t> rejected_seen{0};
  std::vector<std::vector<std::future<QueryResult>>> futures(kProducers);
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (size_t i = 0; i < kPerProducer; ++i) {
        Deadline deadline;  // infinite
        if (i % 3 == 1) deadline = Deadline::AfterMicros(2'000'000);
        if (i % 3 == 2) deadline = Deadline::AfterMicros(50 + 20 * (i % 7));
        submissions.fetch_add(1);
        auto submitted = server->Submit(MakeQuery(p + i), deadline);
        if (submitted.ok()) {
          admitted.fetch_add(1);
          futures[p].push_back(std::move(submitted).value());
        } else {
          rejected_seen.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : producers) t.join();
  size_t completed_ok = 0;
  size_t shed = 0;
  for (std::vector<std::future<QueryResult>>& produced : futures) {
    for (std::future<QueryResult>& future : produced) {
      const QueryResult result = future.get();  // every future resolves
      if (result.ok()) {
        ++completed_ok;
      } else {
        ASSERT_EQ(result.status.code(), StatusCode::kDeadlineExceeded)
            << result.status.ToString();
        ++shed;
      }
    }
  }
  const ServerStats stats = server->Stats();
  EXPECT_EQ(stats.accepted, admitted.load());
  EXPECT_EQ(stats.rejected + stats.deadline_rejected, rejected_seen.load());
  EXPECT_EQ(submissions.load(),
            stats.accepted + stats.rejected + stats.deadline_rejected);
  EXPECT_EQ(stats.completed, completed_ok);
  EXPECT_EQ(stats.deadline_shed, shed);
  EXPECT_EQ(stats.accepted,
            stats.completed + stats.cancelled + stats.deadline_shed);
}

}  // namespace
}  // namespace genclus
