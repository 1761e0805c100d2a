#include "trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/em.h"
#include "core/init.h"
#include "core/objective.h"
#include "core/strength.h"
#include "linalg/sharding.h"
#include "report.h"

namespace perfbench {

using namespace genclus;

int Tracer::Begin(const std::string& name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(
      {name, NowSeconds(), 0.0, open_.empty() ? -1 : open_.back()});
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  spans_[id].end = NowSeconds();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::SelfTimes(int root) const {
  // Spans are stored in begin order and children begin after their
  // parent, so one forward pass sees every ancestor before its subtree.
  std::vector<char> inside(spans_.size(), 0);
  std::vector<double> self(spans_.size(), 0.0);
  for (size_t i = root; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (static_cast<int>(i) != root &&
        (s.parent < 0 || !inside[s.parent])) {
      continue;
    }
    inside[i] = 1;
    self[i] += s.end - s.start;
    if (static_cast<int>(i) != root) self[s.parent] -= s.end - s.start;
  }
  std::map<std::string, double> out;
  for (size_t i = root; i < spans_.size(); ++i) {
    if (inside[i]) out[spans_[i].name] += self[i];
  }
  return out;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.end - s.start);
  }
  return out;
}

Status Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IoError("cannot write " + path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                 s.name.c_str(), (s.start - origin) * 1e6,
                 (s.end - s.start) * 1e6, i, s.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IoError("cannot write " + path);
}

namespace {

Status ResolveAttributes(const Dataset& dataset,
                         const std::vector<std::string>& names,
                         std::vector<const Attribute*>* attrs,
                         std::vector<ModelAttributeInfo>* info) {
  for (const std::string& name : names) {
    const AttributeId id = dataset.FindAttribute(name);
    if (id == kInvalidAttribute) {
      return Status::NotFound("attribute '" + name + "' not in dataset");
    }
    const Attribute& attribute = dataset.attributes[id];
    attrs->push_back(&attribute);
    if (info != nullptr) {
      info->push_back({attribute.name(), attribute.kind(),
                       attribute.kind() == AttributeKind::kCategorical
                           ? attribute.vocab_size()
                           : 0});
    }
  }
  return Status::OK();
}

std::unique_ptr<ThreadPool> MakePool(size_t threads) {
  return threads == 1 ? nullptr : std::make_unique<ThreadPool>(threads);
}

}  // namespace

Result<TracedFit> RunTracedFit(const Dataset& dataset,
                               const FitOptions& options, Tracer* tracer) {
  const Network& network = dataset.network;
  const GenClusConfig& config = options.config;
  const size_t num_relations = network.schema().num_link_types();
  GENCLUS_RETURN_IF_ERROR(dataset.Validate());
  GENCLUS_RETURN_IF_ERROR(config.Validate(num_relations));
  std::vector<const Attribute*> attrs;
  std::vector<ModelAttributeInfo> info;
  GENCLUS_RETURN_IF_ERROR(
      ResolveAttributes(dataset, options.attributes, &attrs, &info));

  TracedFit out;
  ScopedSpan root(tracer, "fit");
  out.root_span = root.id();
  // GenClus::Run's state, in its order.
  std::unique_ptr<ThreadPool> pool = MakePool(config.num_threads);
  Rng rng(config.seed);
  EmOptimizer optimizer(&network, attrs, &config, pool.get());
  EmWorkspace em_workspace;
  std::vector<double> gamma = config.initial_gamma.empty()
                                  ? std::vector<double>(num_relations, 1.0)
                                  : config.initial_gamma;
  Matrix theta;
  std::vector<AttributeComponents> components;

  {
    // BestOfSeedsInit, call for call.
    ScopedSpan init(tracer, "init.best_of_seeds");
    double best = -std::numeric_limits<double>::infinity();
    EmWorkspace workspace;
    auto consider = [&](Matrix cand_theta,
                        std::vector<AttributeComponents> cand_components) {
      for (size_t step = 0; step < config.init_em_steps; ++step) {
        ScopedSpan span(tracer, "em.step");
        optimizer.Step(gamma, &cand_theta, &cand_components, &workspace);
      }
      double obj;
      {
        ScopedSpan span(tracer, "init.score");
        obj = G1Objective(network, attrs, cand_components, cand_theta, gamma);
      }
      if (obj > best) {
        best = obj;
        theta = std::move(cand_theta);
        components = std::move(cand_components);
      }
    };
    if (config.theta_init == ThetaInit::kRandomSeedsPlusKMeans) {
      Matrix kmeans_theta;
      bool ok;
      {
        ScopedSpan span(tracer, "init.kmeans");
        ok = KMeansTheta(network, attrs, config, &rng, &kmeans_theta);
      }
      if (ok) {
        std::vector<AttributeComponents> cand;
        {
          ScopedSpan span(tracer, "init.candidate");
          cand = InitialComponents(attrs, config, &rng);
          optimizer.EstimateComponents(kmeans_theta, &cand);
        }
        consider(std::move(kmeans_theta), std::move(cand));
      }
    }
    for (size_t s = 0; s < std::max<size_t>(1, config.num_init_seeds); ++s) {
      Matrix cand_theta;
      std::vector<AttributeComponents> cand;
      {
        // BestOfSeedsInit draws both from one Rng as the two arguments of
        // consider(RandomTheta(...), InitialComponents(...)), an order C++
        // leaves unspecified; GCC evaluates them right to left.
        ScopedSpan span(tracer, "init.candidate");
        cand = InitialComponents(attrs, config, &rng);
        cand_theta = RandomTheta(network.num_nodes(), config.num_clusters,
                                 &rng);
      }
      consider(std::move(cand_theta), std::move(cand));
    }
  }

  for (size_t outer = 1; outer <= config.outer_iterations; ++outer) {
    if (!config.warm_start && outer > 1) {
      return Status::InvalidArgument("traced fit requires warm_start");
    }
    for (size_t iter = 0; iter < config.em_iterations; ++iter) {
      double delta;
      {
        ScopedSpan span(tracer, "em.step");
        delta = optimizer.Step(gamma, &theta, &components, &em_workspace);
      }
      if (delta < config.em_tolerance) break;
    }
    {
      ScopedSpan span(tracer, "em.objective");
      (void)G1Objective(network, attrs, components, theta, gamma);
    }
    if (!config.learn_strengths) continue;
    double gamma_delta = 0.0;
    std::vector<double> new_gamma;
    StrengthStats stats;
    {
      int build = tracer ? tracer->Begin("strength.stats_build") : -1;
      StrengthLearner learner(&network, &theta, &config, pool.get());
      if (tracer) tracer->End(build);
      ScopedSpan span(tracer, "strength.learn");
      new_gamma = learner.Learn(gamma, &stats);
    }
    out.newton_iterations += stats.iterations;
    out.newton_fallbacks += stats.used_gradient_fallback ? 1 : 0;
    for (size_t r = 0; r < num_relations; ++r) {
      gamma_delta = std::max(gamma_delta, std::fabs(new_gamma[r] - gamma[r]));
    }
    out.last_gamma_in = gamma;
    gamma = std::move(new_gamma);
    if (outer > 1 && gamma_delta < config.outer_tolerance) break;
  }

  double objective;
  {
    ScopedSpan span(tracer, "em.objective");
    objective = G1Objective(network, attrs, components, theta, gamma);
  }
  // Engine::Fit's model assembly.
  Model& model = out.model;
  model.theta_shards =
      ShardPartition::Resolve(config.theta_shards, theta.rows()).num_shards();
  model.theta = std::move(theta);
  model.gamma = std::move(gamma);
  model.components = std::move(components);
  model.attributes = std::move(info);
  model.objective = objective;
  for (LinkTypeId r = 0; r < num_relations; ++r) {
    model.link_types.push_back(network.schema().link_type(r).name);
  }
  return out;
}

double EmStepSpeedup(const Dataset& dataset, const FitOptions& options,
                     const Model& model, size_t threads) {
  std::vector<const Attribute*> attrs;
  if (!ResolveAttributes(dataset, options.attributes, &attrs, nullptr).ok()) {
    return 0.0;
  }
  auto median_step = [&](ThreadPool* pool) {
    EmOptimizer optimizer(&dataset.network, attrs, &options.config, pool);
    EmWorkspace workspace;
    std::vector<double> seconds;
    // The first step sizes the workspace; time the next three.
    for (int rep = 0; rep < 4; ++rep) {
      Matrix theta = model.theta;
      std::vector<AttributeComponents> components = model.components;
      const double start = NowSeconds();
      optimizer.Step(model.gamma, &theta, &components, &workspace);
      if (rep > 0) seconds.push_back(NowSeconds() - start);
    }
    return Median(seconds);
  };
  std::unique_ptr<ThreadPool> pool = MakePool(threads);
  const double parallel = median_step(pool.get());
  return parallel > 0.0 ? median_step(nullptr) / parallel : 0.0;
}

double StrengthSpeedup(const Dataset& dataset, const FitOptions& options,
                       const Model& model,
                       const std::vector<double>& gamma_in, size_t threads) {
  if (gamma_in.empty()) return 0.0;
  auto median_step = [&](ThreadPool* pool) {
    std::vector<double> seconds;
    for (int rep = 0; rep < 3; ++rep) {
      const double start = NowSeconds();
      StrengthLearner learner(&dataset.network, &model.theta, &options.config,
                              pool);
      (void)learner.Learn(gamma_in, nullptr);
      seconds.push_back(NowSeconds() - start);
    }
    return Median(seconds);
  };
  std::unique_ptr<ThreadPool> pool = MakePool(threads);
  const double parallel = median_step(pool.get());
  return parallel > 0.0 ? median_step(nullptr) / parallel : 0.0;
}

}  // namespace perfbench
