#include "core/server.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/mutex.h"
#include "common/string_util.h"

namespace genclus {

namespace {

// Latency rings keep the most recent samples only: percentiles reflect
// current behavior, memory stays bounded under sustained traffic.
constexpr size_t kMaxLatencySamples = 8192;

// Smoothing of the batch-execution EWMA. One sample per micro-batch: 0.25
// converges in a handful of batches yet rides out single-batch outliers.
constexpr double kEwmaAlpha = 0.25;

// Scheduling slack added to the predicted execution time when a deadline
// caps its micro-batch's linger: the batch must start early enough that
// dequeue-to-execute overhead does not eat the remaining budget.
constexpr int64_t kLingerSlackUs = 1000;

// The latest instant a worker may linger while holding a request due at
// `deadline`, pessimistically predicting `exec_us` of execution: half of
// the time left before deadline - (exec_us + kLingerSlackUs). A fixed
// slack alone is too thin on a loaded host, where the linger's wake-up can
// be late by more than the slack and the shed pass then drops the very
// request the batch lingered for; the slack that stays scales with the
// request's own budget.
std::chrono::steady_clock::time_point LingerCap(
    std::chrono::steady_clock::time_point deadline, double exec_us,
    std::chrono::steady_clock::time_point now) {
  const auto latest =
      deadline - std::chrono::microseconds(static_cast<int64_t>(exec_us) +
                                           kLingerSlackUs);
  if (latest <= now) return latest;
  return now + (latest - now) / 2;
}

// Nearest-rank percentile, reordering `samples` in place. Successive
// calls on the same scratch buffer are fine: nth_element needs no
// pre-existing order.
double Percentile(std::vector<double>& samples, double q) {
  const size_t rank = std::min(
      samples.size() - 1,
      static_cast<size_t>(q * static_cast<double>(samples.size())));
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return samples[rank];
}

// Takes its scratch copy by value; Stats() passes ring snapshots taken
// under stats_mutex_, so the nth_element work here runs unlocked.
LatencySummary Summarize(std::vector<double> samples) {
  LatencySummary out;
  out.count = samples.size();
  if (samples.empty()) return out;
  out.max_us = *std::max_element(samples.begin(), samples.end());
  out.p50_us = Percentile(samples, 0.50);
  out.p90_us = Percentile(samples, 0.90);
  out.p99_us = Percentile(samples, 0.99);
  return out;
}

double SecondsBetween(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Folds one sample into a bit-cast-published EWMA. Callers serialize the
// read-modify-write (the workers run it under stats_mutex_); the atomic is
// only the lock-free publication channel for readers. Zero bits = no
// samples yet, so the first sample seeds the average instead of decaying
// from 0.
void FoldEwma(std::atomic<uint64_t>* bits, double sample_us) {
  const double prev =
      std::bit_cast<double>(bits->load(std::memory_order_relaxed));
  const double next =
      prev == 0.0 ? sample_us : prev + kEwmaAlpha * (sample_us - prev);
  bits->store(std::bit_cast<uint64_t>(next), std::memory_order_relaxed);
}

// Largest accepted ServerOptions::max_batch. The batch-size histogram
// holds max_batch + 1 counters, so an unbounded value would overflow its
// size or fail the allocation; this is far above serve_bench's knee (64).
constexpr size_t kMaxBatchCeiling = 65536;

// Deadline admission: only a deadline that has already expired is turned
// away at Submit; everything else queues (or meets a full queue) and a
// request that expires while queued is shed at dequeue.
Status CheckDeadlineAdmissible(const Deadline& deadline,
                               std::chrono::steady_clock::time_point now) {
  if (!deadline.is_infinite() && deadline.Expired(now)) {
    return Status::DeadlineExceeded("deadline already expired at submit");
  }
  return Status::OK();
}

}  // namespace

Status ServerOptions::Validate() const {
  if (queue_capacity < 1) {
    return Status::InvalidArgument("queue_capacity must be >= 1");
  }
  if (max_batch < 1 || max_batch > kMaxBatchCeiling) {
    return Status::InvalidArgument(
        StrFormat("max_batch must be in [1, %zu]", kMaxBatchCeiling));
  }
  if (default_timeout_us < 0) {
    return Status::InvalidArgument("default_timeout_us must be >= 0");
  }
  return Status::OK();
}

// One published model snapshot (see server.h). `planner` is built against
// `model` (and its stamped Θ shard count) once at publication; Plan() is
// const, so every worker on this version shares it without
// synchronization.
struct Server::VersionedModel {
  std::shared_ptr<const Model> model;
  BatchPlanner planner;
  uint64_t version;
  uint64_t fingerprint;

  VersionedModel(const Network* network, std::shared_ptr<const Model> m,
                 uint64_t v)
      : model(std::move(m)),
        planner(network, model.get()),
        version(v),
        fingerprint(model->Fingerprint()) {}
};

void Server::SampleRing::Add(double us) {
  if (samples.size() < kMaxLatencySamples) {
    samples.push_back(us);
    return;
  }
  samples[next] = us;
  next = (next + 1) % kMaxLatencySamples;
}

Result<std::unique_ptr<Server>> Server::Create(const Network* network,
                                               Model model,
                                               ServerOptions options) {
  return Create(network, std::make_shared<const Model>(std::move(model)),
                options);
}

Result<std::unique_ptr<Server>> Server::Create(
    const Network* network, std::shared_ptr<const Model> model,
    ServerOptions options) {
  if (network == nullptr) {
    return Status::InvalidArgument("network must not be null");
  }
  if (model == nullptr) {
    return Status::InvalidArgument("model must not be null");
  }
  GENCLUS_RETURN_IF_ERROR(options.Validate());
  GENCLUS_RETURN_IF_ERROR(model->ValidateAgainst(*network));
  auto first =
      std::make_shared<const VersionedModel>(network, std::move(model),
                                             /*v=*/1);
  return std::unique_ptr<Server>(new Server(network, std::move(first),
                                            options));
}

Server::Server(const Network* network,
               std::shared_ptr<const VersionedModel> first,
               ServerOptions options)
    : options_(options),
      network_(network),
      num_clusters_(first->model->num_clusters()),
      queue_(options.queue_capacity),
      current_model_(std::move(first)),
      batch_size_histogram_(options.max_batch + 1, 0) {
  size_t num_workers = options_.num_workers;
  if (num_workers == 0) {
    num_workers = std::max<unsigned>(1, std::thread::hardware_concurrency());
  }
  options_.num_workers = num_workers;
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Server::~Server() { Stop(); }

void Server::Stop() {
  MutexLock lock(stop_mutex_);
  if (stopped_) return;
  stopped_ = true;
  if (!options_.drain_on_stop) cancel_pending_.store(true);
  // Close first: admissions stop, workers drain what is left (executing
  // or cancelling it), then their PopBatch returns 0 and they exit.
  queue_.Close();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

std::shared_ptr<const Server::VersionedModel> Server::CurrentModel() const {
  MutexLock lock(model_mutex_);
  return current_model_;
}

Status Server::SwapModel(std::shared_ptr<const Model> model) {
  if (model == nullptr) {
    return Status::InvalidArgument("model must not be null");
  }
  // ValidateForServing, not ValidateAgainst: a refreshed model trained on
  // a grown dataset legitimately covers more nodes than the serving
  // network. K is pinned so clients read hard labels in one cluster-id
  // space across the swap.
  GENCLUS_RETURN_IF_ERROR(model->ValidateForServing(*network_));
  if (model->num_clusters() != num_clusters_) {
    return Status::InvalidArgument(StrFormat(
        "swapped model has %zu clusters, server was created with %zu",
        model->num_clusters(), num_clusters_));
  }
  // Build the snapshot (planner + fingerprint — the expensive part)
  // outside the lock; only version assignment and publication are
  // serialized.
  auto replacement =
      std::make_shared<VersionedModel>(network_, std::move(model), /*v=*/0);
  {
    MutexLock lock(model_mutex_);
    replacement->version = current_model_->version + 1;
    current_model_ = std::move(replacement);
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status Server::SwapModel(Model model) {
  return SwapModel(std::make_shared<const Model>(std::move(model)));
}

std::shared_ptr<const Model> Server::model() const {
  return CurrentModel()->model;
}

uint64_t Server::model_version() const { return CurrentModel()->version; }

Deadline Server::EffectiveDeadline(Deadline deadline) const {
  if (!deadline.is_infinite()) return deadline;
  if (options_.default_timeout_us > 0) {
    return Deadline::AfterMicros(options_.default_timeout_us);
  }
  return Deadline::Infinite();
}

double Server::PredictedExecMicros() const {
  return std::bit_cast<double>(
      exec_ewma_bits_.load(std::memory_order_relaxed));
}

bool Server::Enqueue(Request request, Status* rejection) {
  // Counted before the push makes the request visible to a worker, which
  // may complete it at once; a failed push takes the count back. So
  // accepted_ never trails the terminal counters (see Stats).
  accepted_.fetch_add(1, std::memory_order_relaxed);
  if (queue_.TryPush(std::move(request))) return true;
  accepted_.fetch_sub(1, std::memory_order_relaxed);
  rejected_.fetch_add(1, std::memory_order_relaxed);
  *rejection = queue_.closed()
                   ? Status::FailedPrecondition("server is stopped")
                   : Status::ResourceExhausted(StrFormat(
                         "request queue full (capacity %zu)",
                         queue_.capacity()));
  return false;
}

Result<std::future<QueryResult>> Server::Submit(NewObjectQuery query) {
  return Submit(std::move(query), Deadline::Infinite());
}

Result<std::future<QueryResult>> Server::Submit(NewObjectQuery query,
                                                Deadline deadline) {
  Request request;
  request.query = std::move(query);
  request.deadline = EffectiveDeadline(deadline);
  request.enqueued_at = std::chrono::steady_clock::now();
  Status admission =
      CheckDeadlineAdmissible(request.deadline, request.enqueued_at);
  if (!admission.ok()) {
    deadline_rejected_.fetch_add(1, std::memory_order_relaxed);
    return admission;
  }
  std::future<QueryResult> future = request.promise.get_future();
  Status rejection;
  if (!Enqueue(std::move(request), &rejection)) return rejection;
  return future;
}

void Server::Deliver(Request& request, const InferenceResult& result,
                     size_t row, uint64_t model_version,
                     std::chrono::steady_clock::time_point dequeued_at,
                     std::chrono::steady_clock::time_point now) {
  // Counted BEFORE the promise is fulfilled: a caller that just resolved
  // its future must see stats that already include that query. Release
  // pairs with the acquire load in Stats.
  completed_.fetch_add(1, std::memory_order_release);
  QueryResult answer;
  answer.status = result.statuses[row];
  if (answer.status.ok()) {
    const double* membership = result.memberships.Row(row);
    answer.membership.assign(membership,
                             membership + result.memberships.cols());
  }
  answer.hard_label = result.hard_labels[row];
  answer.queue_seconds = SecondsBetween(request.enqueued_at, dequeued_at);
  answer.total_seconds = SecondsBetween(request.enqueued_at, now);
  answer.model_version = model_version;
  request.promise.set_value(std::move(answer));
}

void Server::Shed(Request& request,
                  std::chrono::steady_clock::time_point dequeued_at) {
  // Before fulfillment; release pairs with the acquire load in Stats.
  deadline_shed_.fetch_add(1, std::memory_order_release);
  QueryResult answer;
  answer.status = Status::DeadlineExceeded("deadline expired before execution");
  answer.queue_seconds = SecondsBetween(request.enqueued_at, dequeued_at);
  answer.total_seconds = answer.queue_seconds;
  request.promise.set_value(std::move(answer));
}

void Server::Fail(Request& request, Status status,
                  std::atomic<size_t>* counter) {
  // Before fulfillment; release pairs with the acquire load in Stats.
  counter->fetch_add(1, std::memory_order_release);
  QueryResult answer;
  answer.status = std::move(status);
  request.promise.set_value(std::move(answer));
}

// The admission loop body each worker runs: coalesce queued queries into
// one micro-batch (linger capped by the tightest member deadline), shed
// members whose deadline already passed, plan + execute the rest on this
// worker's own session (own ServeWorkspace — workers never share mutable
// execution state, so micro-batches run concurrently), deliver per-query
// answers and record stats (including the execution EWMA the linger cap
// and the shed pass read).
// The session runs its batch serially: with num_workers sessions in
// flight the tier already saturates the cores batch-wise, and serial
// execution keeps per-batch latency deterministic. An execution exception
// fails only that batch (kInternal) — the worker keeps serving.
//
// Model swaps are observed per batch: the worker pins the current
// VersionedModel snapshot before planning, so a SwapModel racing this
// batch takes effect at the NEXT dequeue — never mid-batch. The
// InferSession (whose ServeWorkspace caches model-side tables) is rebuilt
// lazily on the first batch after the pinned snapshot changes; a rebuild
// failure fails only that batch with kInternal and keeps the previous
// session, so the worker still serves the old model until a rebuild
// succeeds.
void Server::WorkerLoop() {
  // Built lazily against `pinned` (the snapshot the session's workspace
  // caches tables for); nullopt until the first non-empty batch.
  std::shared_ptr<const VersionedModel> pinned;
  std::optional<InferSession> session;
  std::vector<Request> batch;
  std::vector<Request> live;
  std::vector<NewObjectQuery> queries;
  std::vector<double> queue_waits_us;
  const std::chrono::microseconds linger(options_.max_wait_us);
  // A tight-deadline member caps its batch's linger: coalescing must end
  // early enough that the predicted execution (plus scheduling slack)
  // still fits that member's remaining budget (see LingerCap).
  const auto linger_cap = [this](const Request& request) {
    if (request.deadline.is_infinite()) {
      return std::chrono::steady_clock::time_point::max();
    }
    return LingerCap(request.deadline.when(), PredictedExecMicros(),
                     std::chrono::steady_clock::now());
  };
  while (queue_.PopBatch(&batch, options_.max_batch, linger, linger_cap) >
         0) {
    const auto dequeued_at = std::chrono::steady_clock::now();
    if (cancel_pending_.load(std::memory_order_relaxed)) {
      for (Request& request : batch) {
        Fail(request, Status::Cancelled("server stopped before execution"),
             &cancelled_);
      }
      continue;
    }
    // Shed pass: drop members that cannot meet their deadline anymore —
    // expired outright, or expiring within the predicted execution time
    // (an answer delivered after its deadline helps nobody and delays
    // every request queued behind it).
    const auto exec_budget = std::chrono::microseconds(
        static_cast<int64_t>(PredictedExecMicros()));
    live.clear();
    queue_waits_us.clear();
    for (Request& request : batch) {
      queue_waits_us.push_back(
          SecondsBetween(request.enqueued_at, dequeued_at) * 1e6);
      if (request.deadline.Expired(dequeued_at + exec_budget)) {
        Shed(request, dequeued_at);
      } else {
        live.push_back(std::move(request));
      }
    }
    InferPlan plan;
    InferenceResult result;
    Status exec_error;
    uint64_t batch_model_version = 0;
    // The server's own span of each phase: [plan_at, planned_at) plans,
    // [planned_at, done_at) executes. The session rebuild above the plan
    // span counts toward neither.
    std::chrono::steady_clock::time_point plan_at;
    std::chrono::steady_clock::time_point planned_at;
    if (!live.empty()) {
      // Pin the model snapshot this whole batch runs on; a concurrent
      // SwapModel affects only later dequeues. Rebuild the session when
      // the snapshot changed since the last batch (or never existed).
      std::shared_ptr<const VersionedModel> current = CurrentModel();
      if (pinned != current) {
        try {
          // Error-injection site: proves a worker exception during the
          // post-swap session rebuild fails only that batch (kInternal)
          // while the worker keeps its old session and keeps serving.
          GENCLUS_FAILPOINT("server.swap_model",
                            throw std::runtime_error(
                                "injected server.swap_model rebuild "
                                "failure"));
          session.emplace(current->model.get(), /*pool=*/nullptr);
          pinned = std::move(current);
        } catch (const std::exception& e) {
          exec_error = Status::Internal(StrFormat(
              "session rebuild after model swap failed: %s", e.what()));
        } catch (...) {
          exec_error =
              Status::Internal("session rebuild after model swap failed");
        }
      }
      if (exec_error.ok()) {
        batch_model_version = pinned->version;
        queries.clear();
        queries.reserve(live.size());
        for (Request& request : live) {
          queries.push_back(std::move(request.query));
        }
        plan_at = std::chrono::steady_clock::now();
        plan = pinned->planner.Plan(queries);
        planned_at = std::chrono::steady_clock::now();
        try {
          // Error-injection site: proves a throwing Execute fails its
          // batch with kInternal while the worker keeps serving.
          GENCLUS_FAILPOINT("server.execute",
                            throw std::runtime_error(
                                "injected server.execute failure"));
          result = session->Execute(plan);
        } catch (const std::exception& e) {
          exec_error =
              Status::Internal(StrFormat("batch execution failed: %s",
                                         e.what()));
        } catch (...) {
          exec_error = Status::Internal("batch execution failed");
        }
      }
    }
    const auto done_at = std::chrono::steady_clock::now();
    const bool executed = !live.empty() && exec_error.ok();
    if (executed) batches_.fetch_add(1, std::memory_order_relaxed);
    // Stats first, delivery second: the moment a future resolves, the
    // histogram, rings and EWMA already cover its micro-batch.
    {
      MutexLock lock(stats_mutex_);
      for (const double wait_us : queue_waits_us) {
        queue_wait_us_.Add(wait_us);
      }
      if (executed) {
        batch_size_histogram_[live.size()] += 1;
        const double exec_us = SecondsBetween(planned_at, done_at) * 1e6;
        plan_us_.Add(SecondsBetween(plan_at, planned_at) * 1e6);
        exec_us_.Add(exec_us);
        FoldEwma(&exec_ewma_bits_, exec_us);
        for (const Request& request : live) {
          end_to_end_us_.Add(
              SecondsBetween(request.enqueued_at, done_at) * 1e6);
        }
      }
    }
    if (live.empty()) continue;
    if (!exec_error.ok()) {
      for (Request& request : live) {
        Fail(request, exec_error, &completed_);
      }
      continue;
    }
    for (size_t i = 0; i < live.size(); ++i) {
      Deliver(live[i], result, i, batch_model_version, dequeued_at, done_at);
    }
  }
}

ServerStats Server::Stats() const {
  ServerStats out;
  // Terminal counters first, with acquire: every request they count was
  // admitted before it was pushed, so the accepted_ load that follows
  // sees at least those admissions — a snapshot never shows more requests
  // finished than accepted.
  out.completed = completed_.load(std::memory_order_acquire);
  out.cancelled = cancelled_.load(std::memory_order_acquire);
  out.deadline_shed = deadline_shed_.load(std::memory_order_acquire);
  out.accepted = accepted_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.deadline_rejected =
      deadline_rejected_.load(std::memory_order_relaxed);
  out.batches = batches_.load(std::memory_order_relaxed);
  out.predicted_exec_us = PredictedExecMicros();
  out.queue_depth = queue_.size();
  out.queue_high_water = queue_.high_water();
  {
    const std::shared_ptr<const VersionedModel> current = CurrentModel();
    out.model_version = current->version;
    out.model_fingerprint = current->fingerprint;
  }
  out.model_swaps = swaps_.load(std::memory_order_relaxed);
  // Hold stats_mutex_ only for the copies: Summarize's percentile
  // extraction (4 rings x up to 8192 samples) runs on the snapshots after
  // release, so a monitor polling Stats() never stalls a worker's
  // per-batch stats recording.
  std::vector<double> queue_wait_snapshot;
  std::vector<double> plan_snapshot;
  std::vector<double> exec_snapshot;
  std::vector<double> end_to_end_snapshot;
  {
    MutexLock lock(stats_mutex_);
    out.batch_size_histogram = batch_size_histogram_;
    queue_wait_snapshot = queue_wait_us_.samples;
    plan_snapshot = plan_us_.samples;
    exec_snapshot = exec_us_.samples;
    end_to_end_snapshot = end_to_end_us_.samples;
  }
  out.queue_wait = Summarize(std::move(queue_wait_snapshot));
  out.plan = Summarize(std::move(plan_snapshot));
  out.exec = Summarize(std::move(exec_snapshot));
  out.end_to_end = Summarize(std::move(end_to_end_snapshot));
  return out;
}

}  // namespace genclus
