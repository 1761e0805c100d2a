#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/logging.h"
#include "common/mutex.h"
#include "common/random.h"
#include "common/thread_annotations.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/em.h"
#include "core/init.h"
#include "core/objective.h"
#include "core/strength.h"

namespace genclus {

Status Engine::ResolveAttributes(const Dataset& dataset,
                                 const std::vector<std::string>& names,
                                 std::vector<const Attribute*>* attrs,
                                 std::vector<ModelAttributeInfo>* info) {
  attrs->reserve(names.size());
  info->reserve(names.size());
  for (const std::string& name : names) {
    AttributeId id = dataset.FindAttribute(name);
    if (id == kInvalidAttribute) {
      return Status::NotFound(
          StrFormat("attribute '%s' not in dataset", name.c_str()));
    }
    const Attribute& attribute = dataset.attributes[id];
    attrs->push_back(&attribute);
    ModelAttributeInfo entry;
    entry.name = attribute.name();
    entry.kind = attribute.kind();
    entry.vocab_size = attribute.kind() == AttributeKind::kCategorical
                           ? attribute.vocab_size()
                           : 0;
    info->push_back(std::move(entry));
  }
  return Status::OK();
}

Result<FitResult> Engine::RunOuterLoop(
    const Network& network, std::vector<const Attribute*> attrs,
    std::vector<ModelAttributeInfo> info, const GenClusConfig& config,
    std::optional<WarmStart> warm, ProgressObserver* observer,
    const CancellationToken* cancellation) {
  const Schema& schema = network.schema();
  const size_t num_relations = schema.num_link_types();
  std::unique_ptr<ThreadPool> pool;
  if (config.num_threads != 1) {
    pool = std::make_unique<ThreadPool>(config.num_threads);
  }
  Rng rng(config.seed);
  EmOptimizer optimizer(&network, attrs, &config, pool.get());
  // One workspace for every EM phase of the outer loop: the problem shape
  // never changes, so all EM scratch is allocated exactly once per fit.
  EmWorkspace em_workspace;

  // gamma^0: all link types equally important unless overridden (§4.3).
  std::vector<double> gamma = config.initial_gamma.empty()
                                  ? std::vector<double>(num_relations, 1.0)
                                  : config.initial_gamma;

  FitResult out;
  Model& model = out.model;
  FitReport& report = out.report;
  {
    OuterIterationRecord initial;
    initial.iteration = 0;
    initial.gamma = gamma;
    report.trace.push_back(std::move(initial));
  }

  // Theta'_0, beta'_0: either the caller-provided warm start (the refit
  // path) or best-of-seeds (§4.3 initialization).
  if (warm) {
    if (warm->components.size() != attrs.size()) {
      return Status::InvalidArgument(StrFormat(
          "warm start carries %zu component sets, attribute subset has %zu",
          warm->components.size(), attrs.size()));
    }
    for (size_t t = 0; t < attrs.size(); ++t) {
      const AttributeComponents& comp = warm->components[t];
      const Attribute& attr = *attrs[t];
      const bool shape_ok =
          comp.kind() == attr.kind() &&
          comp.num_clusters() == config.num_clusters &&
          (attr.kind() != AttributeKind::kCategorical ||
           comp.beta().cols() == attr.vocab_size());
      if (!shape_ok) {
        return Status::InvalidArgument(StrFormat(
            "warm-start components for attribute %zu do not match its "
            "kind/shape", t));
      }
    }
    model.theta = std::move(warm->theta);
    model.components = std::move(warm->components);
  } else {
    BestOfSeedsInit(optimizer, network, attrs, config, gamma, &rng,
                    &model.theta, &model.components);
  }

  for (size_t outer = 1; outer <= config.outer_iterations; ++outer) {
    if (cancellation && cancellation->IsCancellationRequested()) {
      return Status::Cancelled(StrFormat(
          "training cancelled before outer iteration %zu", outer));
    }
    OuterIterationRecord record;
    record.iteration = outer;

    // Step 1: optimize Theta, beta for fixed gamma.
    WallTimer em_timer;
    if (!config.warm_start && outer > 1) {
      BestOfSeedsInit(optimizer, network, attrs, config, gamma, &rng,
                      &model.theta, &model.components);
    }
    EmStats em_stats = optimizer.Run(gamma, &model.theta, &model.components,
                                     &em_workspace);
    record.em_seconds = em_timer.Seconds();
    record.em_iterations = em_stats.iterations;
    record.em_block_sweeps = em_stats.iterations * em_stats.blocks;
    for (size_t skipped : em_stats.skipped_per_sweep) {
      record.em_blocks_skipped += skipped;
    }
    report.em_blocks_skipped += record.em_blocks_skipped;
    report.em_final_block_deltas = std::move(em_stats.final_block_deltas);
    record.em_objective = G1Objective(network, attrs, model.components,
                                      model.theta, gamma, pool.get());

    // Step 2: optimize gamma for fixed Theta.
    double gamma_delta = 0.0;
    WallTimer strength_timer;
    if (config.learn_strengths) {
      StrengthLearner learner(&network, &model.theta, &config, pool.get());
      StrengthStats strength_stats;
      std::vector<double> new_gamma = learner.Learn(gamma, &strength_stats);
      for (size_t r = 0; r < num_relations; ++r) {
        gamma_delta = std::max(gamma_delta,
                               std::fabs(new_gamma[r] - gamma[r]));
      }
      gamma = std::move(new_gamma);
      record.strength_objective = strength_stats.objective;
    }
    record.strength_seconds = strength_timer.Seconds();
    record.gamma = gamma;

    GENCLUS_LOGS(Info) << "GenClus outer " << outer
                       << ": g1=" << record.em_objective
                       << " em_iters=" << em_stats.iterations
                       << " gamma_delta=" << gamma_delta;

    report.em_seconds += record.em_seconds;
    report.strength_seconds += record.strength_seconds;
    report.outer_iterations = outer;
    report.trace.push_back(std::move(record));
    if (observer) observer->OnOuterIteration(report.trace.back(), model.theta);

    if (config.learn_strengths && outer > 1 &&
        gamma_delta < config.outer_tolerance) {
      report.converged = true;
      break;
    }
  }

  model.objective = G1Objective(network, attrs, model.components,
                                model.theta, gamma, pool.get());
  report.objective = model.objective;
  model.gamma = std::move(gamma);
  // Stamp the resolved shard count the fit ran with, so serving adopts
  // the same partition by default and both model formats persist it.
  model.theta_shards =
      ShardPartition::Resolve(config.theta_shards, model.theta.rows())
          .num_shards();
  model.attributes = std::move(info);
  model.link_types.reserve(num_relations);
  for (LinkTypeId r = 0; r < num_relations; ++r) {
    model.link_types.push_back(schema.link_type(r).name);
  }
  return out;
}

Result<FitResult> Engine::Fit(const Dataset& dataset,
                              const FitOptions& options) {
  GENCLUS_RETURN_IF_ERROR(dataset.Validate());
  GENCLUS_RETURN_IF_ERROR(options.config.Validate(
      dataset.network.schema().num_link_types()));

  std::vector<const Attribute*> attrs;
  std::vector<ModelAttributeInfo> attr_info;
  GENCLUS_RETURN_IF_ERROR(
      ResolveAttributes(dataset, options.attributes, &attrs, &attr_info));

  WallTimer timer;
  GENCLUS_ASSIGN_OR_RETURN(
      FitResult fit,
      RunOuterLoop(dataset.network, std::move(attrs), std::move(attr_info),
                   options.config, std::nullopt, options.observer,
                   options.cancellation));
  fit.report.total_seconds = timer.Seconds();
  return fit;
}

// Batch planner plus a pool of InferSessions. Sessions are created
// lazily, one per concurrent Execute caller, and recycled through the
// free list — each owns its own ServeWorkspace, so concurrent batches
// execute in parallel with no global execution mutex (the pool tracks
// completion per call, so sessions may share the engine's thread pool).
struct Engine::ServeState {
  ServeState(const Network* network, const Model* model, ThreadPool* pool)
      : model(model), pool(pool), planner(network, model) {}

  const Model* model;
  ThreadPool* pool;
  BatchPlanner planner;

  Mutex session_mutex;
  std::vector<std::unique_ptr<InferSession>> free_sessions
      GENCLUS_GUARDED_BY(session_mutex);

  std::unique_ptr<InferSession> AcquireSession()
      GENCLUS_EXCLUDES(session_mutex) {
    {
      MutexLock lock(session_mutex);
      if (!free_sessions.empty()) {
        std::unique_ptr<InferSession> session =
            std::move(free_sessions.back());
        free_sessions.pop_back();
        return session;
      }
    }
    return std::make_unique<InferSession>(model, pool);
  }

  void ReleaseSession(std::unique_ptr<InferSession> session)
      GENCLUS_EXCLUDES(session_mutex) {
    MutexLock lock(session_mutex);
    free_sessions.push_back(std::move(session));
  }
};

Engine::Engine(Engine&&) noexcept = default;
Engine& Engine::operator=(Engine&&) noexcept = default;
Engine::~Engine() = default;

Engine::Engine(const Network* network, std::unique_ptr<Model> model,
               EngineOptions options)
    : model_(std::move(model)),
      pool_(std::make_unique<ThreadPool>(options.num_threads)),
      serve_(std::make_unique<ServeState>(network, model_.get(),
                                          pool_.get())) {}

Result<Engine> Engine::Create(const Network* network, Model model,
                              EngineOptions options) {
  if (network == nullptr) {
    return Status::InvalidArgument("network must not be null");
  }
  GENCLUS_RETURN_IF_ERROR(model.ValidateAgainst(*network));
  return Engine(network, std::make_unique<Model>(std::move(model)),
                options);
}

InferPlan Engine::Plan(std::span<const NewObjectQuery> queries) const {
  return serve_->planner.Plan(queries);
}

InferenceResult Engine::Execute(const InferPlan& plan) const {
  // Check a session out of the pool (or build one for a new concurrency
  // level) and return it afterwards; an exception drops the session
  // instead of recycling it, which is safe — just slower next time.
  std::unique_ptr<InferSession> session = serve_->AcquireSession();
  InferenceResult result = session->Execute(plan);
  serve_->ReleaseSession(std::move(session));
  return result;
}

Result<std::vector<double>> Engine::Infer(const NewObjectQuery& query) const {
  InferenceResult result = Execute(Plan(std::span(&query, 1)));
  if (!result.statuses[0].ok()) return result.statuses[0];
  return result.memberships.RowVector(0);
}

std::vector<Result<std::vector<double>>> Engine::InferBatch(
    std::span<const NewObjectQuery> queries) const {
  InferenceResult result = Execute(Plan(queries));
  std::vector<Result<std::vector<double>>> out;
  out.reserve(result.size());
  for (size_t i = 0; i < result.size(); ++i) {
    if (result.statuses[i].ok()) {
      out.push_back(result.memberships.RowVector(i));
    } else {
      out.push_back(std::move(result.statuses[i]));
    }
  }
  return out;
}

}  // namespace genclus
