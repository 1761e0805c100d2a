#include "core/update.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "core/em.h"
#include "prob/simplex.h"

namespace genclus {

namespace {

// Jacobi refinement rounds ApplyUpdates runs over the touched node set.
constexpr size_t kUpdateRounds = 2;

// Buffers of FoldInRow, reused across rows.
struct FoldInScratch {
  std::vector<double> link_mix;
  std::vector<double> mix;
  std::vector<double> resp;
  std::vector<double> theta_v;
  std::vector<double> log_theta;
  std::vector<double> log_pdf;
};

// The fold-in update (Eq. 10/11 with the rest of the model fixed) for one
// node of a full network: the link term reads `snapshot` rows — only
// neighbors below `valid_rows`, so a Refit seeding pass can walk new
// nodes in ascending id order — and the attribute part runs `iterations`
// fixed-point sweeps over the node's own observations.
void FoldInRow(const Network& network, NodeId v, const Matrix& snapshot,
               size_t valid_rows, const std::vector<double>& gamma,
               const std::vector<const Attribute*>& attrs,
               const std::vector<AttributeComponents>& components,
               size_t iterations, double theta_floor, FoldInScratch* scratch,
               double* out) {
  const size_t num_clusters = snapshot.cols();
  std::vector<double>& link_mix = scratch->link_mix;
  std::vector<double>& mix = scratch->mix;
  std::vector<double>& resp = scratch->resp;
  std::vector<double>& theta_v = scratch->theta_v;
  std::vector<double>& log_theta = scratch->log_theta;
  std::vector<double>& log_pdf = scratch->log_pdf;
  link_mix.assign(num_clusters, 0.0);
  mix.resize(num_clusters);
  resp.resize(num_clusters);
  theta_v.assign(num_clusters, 1.0 / static_cast<double>(num_clusters));
  log_theta.resize(num_clusters);

  for (const LinkEntry& e : network.OutLinks(v)) {
    if (e.neighbor >= valid_rows) continue;
    const double coeff = gamma[e.type] * e.weight;
    if (coeff == 0.0) continue;
    const double* row = snapshot.Row(e.neighbor);
    for (size_t k = 0; k < num_clusters; ++k) link_mix[k] += coeff * row[k];
  }

  // log p(x | k) of every numerical observation does not depend on theta,
  // so it is evaluated once here rather than once per sweep.
  log_pdf.clear();
  for (size_t t = 0; t < attrs.size(); ++t) {
    if (attrs[t]->kind() != AttributeKind::kNumerical) continue;
    for (double x : attrs[t]->Values(v)) {
      for (size_t k = 0; k < num_clusters; ++k) {
        log_pdf.push_back(components[t].LogPdf(k, x));
      }
    }
  }

  for (size_t it = 0; it < iterations; ++it) {
    std::copy(link_mix.begin(), link_mix.end(), mix.begin());
    if (!log_pdf.empty()) {
      for (size_t k = 0; k < num_clusters; ++k) {
        log_theta[k] = std::log(theta_v[k] > 0.0 ? theta_v[k] : 1e-300);
      }
    }
    const double* pdf = log_pdf.data();
    for (size_t t = 0; t < attrs.size(); ++t) {
      const Attribute& attr = *attrs[t];
      if (attr.kind() == AttributeKind::kCategorical) {
        const Matrix& beta = components[t].beta();
        for (const TermCount& tc : attr.TermCounts(v)) {
          double total = 0.0;
          for (size_t k = 0; k < num_clusters; ++k) {
            resp[k] = theta_v[k] * beta(k, tc.term);
            total += resp[k];
          }
          if (total <= 0.0) {
            std::fill(resp.begin(), resp.end(),
                      1.0 / static_cast<double>(num_clusters));
            total = 1.0;
          }
          for (size_t k = 0; k < num_clusters; ++k) {
            mix[k] += tc.count * resp[k] / total;
          }
        }
      } else {
        for (size_t i = 0; i < attr.Values(v).size(); ++i) {
          double max_log = -std::numeric_limits<double>::infinity();
          for (size_t k = 0; k < num_clusters; ++k) {
            resp[k] = log_theta[k] + pdf[k];
            max_log = std::max(max_log, resp[k]);
          }
          pdf += num_clusters;
          double total = 0.0;
          for (size_t k = 0; k < num_clusters; ++k) {
            resp[k] = std::exp(resp[k] - max_log);
            total += resp[k];
          }
          for (size_t k = 0; k < num_clusters; ++k) {
            mix[k] += resp[k] / total;
          }
        }
      }
    }
    double delta = 0.0;
    NormalizeOntoSimplex(mix.data(), num_clusters, theta_floor, mix.data());
    for (size_t k = 0; k < num_clusters; ++k) {
      delta = std::max(delta, std::fabs(mix[k] - theta_v[k]));
      theta_v[k] = mix[k];
    }
    if (delta < ServeDefaults::kSweepTolerance) break;
  }
  std::copy(theta_v.begin(), theta_v.end(), out);
}

// Checks that the dataset's schema and attribute shapes still match what
// `model` was trained on — the precondition for carrying Theta rows,
// components and gamma over.
Status CheckModelMatchesDataset(const Model& model, const Dataset& dataset) {
  const Schema& schema = dataset.network.schema();
  if (model.link_types.size() != schema.num_link_types()) {
    return Status::InvalidArgument(StrFormat(
        "model was trained on %zu link types, dataset schema declares %zu",
        model.link_types.size(), schema.num_link_types()));
  }
  for (LinkTypeId r = 0; r < schema.num_link_types(); ++r) {
    if (model.link_types[r] != schema.link_type(r).name) {
      return Status::InvalidArgument(StrFormat(
          "link type %u is '%s' in the model but '%s' in the dataset",
          r, model.link_types[r].c_str(),
          schema.link_type(r).name.c_str()));
    }
  }
  for (const ModelAttributeInfo& info : model.attributes) {
    const AttributeId id = dataset.FindAttribute(info.name);
    if (id == kInvalidAttribute) {
      return Status::NotFound(StrFormat(
          "model attribute '%s' not in dataset", info.name.c_str()));
    }
    const Attribute& attr = dataset.attributes[id];
    if (attr.kind() != info.kind) {
      return Status::InvalidArgument(StrFormat(
          "attribute '%s' changed kind since the model was trained",
          info.name.c_str()));
    }
    if (info.kind == AttributeKind::kCategorical &&
        attr.vocab_size() != info.vocab_size) {
      return Status::InvalidArgument(StrFormat(
          "attribute '%s' has vocabulary %zu, model was trained on %zu "
          "(the vocabulary must stay stable across refits)",
          info.name.c_str(), attr.vocab_size(), info.vocab_size));
    }
  }
  return Status::OK();
}

std::vector<std::string> ModelAttributeNames(const Model& model) {
  std::vector<std::string> names;
  names.reserve(model.attributes.size());
  for (const ModelAttributeInfo& info : model.attributes) {
    names.push_back(info.name);
  }
  return names;
}

}  // namespace

Result<FitResult> Engine::Refit(const Dataset& dataset,
                                const Model& prev_model,
                                const RefitOptions& options) {
  GENCLUS_RETURN_IF_ERROR(dataset.Validate());
  GENCLUS_RETURN_IF_ERROR(prev_model.Validate());
  GENCLUS_RETURN_IF_ERROR(CheckModelMatchesDataset(prev_model, dataset));
  const Schema& schema = dataset.network.schema();
  const size_t n = dataset.network.num_nodes();
  const size_t prev_rows = prev_model.num_nodes();
  const size_t num_clusters = prev_model.num_clusters();
  if (prev_rows > n) {
    return Status::InvalidArgument(StrFormat(
        "previous model covers %zu nodes, grown dataset has only %zu "
        "(refit supports growth, not shrinkage)", prev_rows, n));
  }

  // K is pinned by the previous model, gamma and warm start carry over.
  GenClusConfig config = options.config;
  config.num_clusters = num_clusters;
  config.warm_start = true;
  if (config.initial_gamma.empty()) config.initial_gamma = prev_model.gamma;
  GENCLUS_RETURN_IF_ERROR(config.Validate(schema.num_link_types()));

  std::vector<const Attribute*> attrs;
  std::vector<ModelAttributeInfo> attr_info;
  GENCLUS_RETURN_IF_ERROR(ResolveAttributes(
      dataset, ModelAttributeNames(prev_model), &attrs, &attr_info));

  WallTimer timer;
  // Warm Theta: survivors keep their rows, new nodes are seeded by the
  // fold-in update in ascending id order (each seed may read earlier
  // seeds — links among new nodes still contribute).
  Matrix theta(n, num_clusters);
  for (size_t v = 0; v < prev_rows; ++v) {
    std::copy(prev_model.theta.Row(v), prev_model.theta.Row(v) + num_clusters,
              theta.Row(v));
  }
  FoldInScratch scratch;
  for (size_t v = prev_rows; v < n; ++v) {
    FoldInRow(dataset.network, static_cast<NodeId>(v), theta,
              /*valid_rows=*/v, config.initial_gamma, attrs,
              prev_model.components, ServeDefaults::kInferenceIterations,
              config.theta_floor, &scratch, theta.Row(v));
  }

  GENCLUS_ASSIGN_OR_RETURN(
      FitResult fit,
      RunOuterLoop(dataset.network, std::move(attrs), std::move(attr_info),
                   config, WarmStart{std::move(theta), prev_model.components},
                   options.observer, options.cancellation));
  fit.report.total_seconds = timer.Seconds();
  return fit;
}

Result<UpdateReport> ApplyUpdates(Dataset* dataset, Model* model,
                                  std::span<const NetworkDelta> deltas) {
  GENCLUS_CHECK(dataset != nullptr && model != nullptr);
  GENCLUS_RETURN_IF_ERROR(dataset->Validate());
  GENCLUS_RETURN_IF_ERROR(model->Validate());
  GENCLUS_RETURN_IF_ERROR(CheckModelMatchesDataset(*model, *dataset));
  const size_t num_clusters = model->num_clusters();
  const size_t old_nodes = dataset->network.num_nodes();
  if (model->num_nodes() != old_nodes) {
    return Status::InvalidArgument(StrFormat(
        "model covers %zu nodes, dataset has %zu — refit instead of "
        "streaming updates", model->num_nodes(), old_nodes));
  }

  WallTimer timer;
  // GrowDataset validates the whole list before it changes anything, and
  // nothing below can fail: an error leaves dataset and model as they were.
  GENCLUS_RETURN_IF_ERROR(GrowDataset(dataset, deltas));
  const size_t n = dataset->network.num_nodes();

  UpdateReport report;
  // Touched rows, ascending and distinct: every new node, the source of
  // every new link and every node with a new observation.
  std::vector<NodeId> touched;
  for (size_t v = old_nodes; v < n; ++v) {
    touched.push_back(static_cast<NodeId>(v));
  }
  for (const NetworkDelta& delta : deltas) {
    for (const DeltaLink& link : delta.links) touched.push_back(link.src);
    for (const DeltaObservation& obs : delta.observations) {
      touched.push_back(obs.node);
    }
    report.deltas_applied += 1;
    report.new_nodes += delta.nodes.size();
    report.new_links += delta.links.size();
    report.new_observations += delta.observations.size();
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  report.touched_nodes = touched.size();

  std::vector<const Attribute*> attrs;
  attrs.reserve(model->attributes.size());
  for (const ModelAttributeInfo& info : model->attributes) {
    // CheckModelMatchesDataset validated the name on the base dataset and
    // growth never removes attributes.
    attrs.push_back(&dataset->attributes[dataset->FindAttribute(info.name)]);
  }

  // Grow Theta: survivors keep their rows, new nodes start uniform and
  // are solved by the Jacobi rounds below (every new node is touched).
  model->theta.AppendRows(n - old_nodes,
                          1.0 / static_cast<double>(num_clusters));

  // Jacobi rounds: each round solves every touched row into `next` from
  // the previous round's Theta and only then writes the rows back, so the
  // result is independent of the iteration order (deterministic, and
  // trivially parallelizable).
  Matrix next(touched.size(), num_clusters);
  FoldInScratch scratch;
  for (size_t round = 0; round < kUpdateRounds; ++round) {
    for (size_t i = 0; i < touched.size(); ++i) {
      FoldInRow(dataset->network, touched[i], model->theta,
                /*valid_rows=*/n, model->gamma, attrs, model->components,
                ServeDefaults::kInferenceIterations,
                ServeDefaults::kThetaFloor, &scratch, next.Row(i));
    }
    for (size_t i = 0; i < touched.size(); ++i) {
      std::copy(next.Row(i), next.Row(i) + num_clusters,
                model->theta.Row(touched[i]));
    }
  }

  // Re-estimate beta and the Gaussians from the settled rows (one pass
  // over all observations).
  if (!attrs.empty()) {
    GenClusConfig config;
    config.num_clusters = num_clusters;
    EmOptimizer optimizer(&dataset->network, attrs, &config, nullptr);
    optimizer.EstimateComponents(model->theta, &model->components);
  }

  report.seconds = timer.Seconds();
  return report;
}

}  // namespace genclus
