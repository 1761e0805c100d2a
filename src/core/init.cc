#include "core/init.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "baselines/interpolation.h"
#include "baselines/kmeans.h"
#include "common/check.h"
#include "core/objective.h"

namespace genclus {

Matrix RandomTheta(size_t num_nodes, size_t num_clusters, Rng* rng) {
  GENCLUS_CHECK(rng != nullptr);
  GENCLUS_CHECK_GE(num_clusters, 2u);
  Matrix theta(num_nodes, num_clusters);
  for (size_t v = 0; v < num_nodes; ++v) {
    std::vector<double> row = rng->SimplexUniform(num_clusters);
    theta.SetRow(v, row);
  }
  return theta;
}

std::vector<AttributeComponents> InitialComponents(
    const std::vector<const Attribute*>& attributes,
    const GenClusConfig& config, Rng* rng) {
  GENCLUS_CHECK(rng != nullptr);
  const size_t num_clusters = config.num_clusters;
  std::vector<AttributeComponents> components;
  components.reserve(attributes.size());

  for (const Attribute* attr : attributes) {
    if (attr->kind() == AttributeKind::kCategorical) {
      const size_t vocab = attr->vocab_size();
      // Corpus-wide term counts.
      std::vector<double> corpus(vocab, 0.0);
      double total = 0.0;
      for (NodeId v = 0; v < attr->num_nodes(); ++v) {
        for (const TermCount& tc : attr->TermCounts(v)) {
          corpus[tc.term] += tc.count;
          total += tc.count;
        }
      }
      AttributeComponents comp =
          AttributeComponents::CategoricalUniform(num_clusters, vocab);
      Matrix* beta = comp.mutable_beta();
      for (size_t k = 0; k < num_clusters; ++k) {
        double row_total = 0.0;
        for (size_t l = 0; l < vocab; ++l) {
          // Corpus share plus multiplicative noise to break symmetry.
          const double base =
              total > 0.0 ? corpus[l] / total : 1.0 / vocab;
          const double noisy = (base + 0.1 / vocab) * (0.5 + rng->Uniform());
          (*beta)(k, l) = noisy;
          row_total += noisy;
        }
        for (size_t l = 0; l < vocab; ++l) (*beta)(k, l) /= row_total;
      }
      components.push_back(std::move(comp));
    } else {
      // Global moments of the observed values.
      double sum = 0.0;
      double sum2 = 0.0;
      double count = 0.0;
      std::vector<double> pool;
      for (NodeId v = 0; v < attr->num_nodes(); ++v) {
        for (double x : attr->Values(v)) {
          sum += x;
          sum2 += x * x;
          count += 1.0;
          pool.push_back(x);
        }
      }
      const double mean = count > 0.0 ? sum / count : 0.0;
      double var = count > 0.0 ? sum2 / count - mean * mean : 1.0;
      if (var < config.variance_floor) var = config.variance_floor;
      // Sorted so the drawn centers do not depend on node order.
      std::sort(pool.begin(), pool.end());
      const double stddev = std::sqrt(var);
      std::vector<GaussianDistribution> gaussians;
      gaussians.reserve(num_clusters);
      for (size_t k = 0; k < num_clusters; ++k) {
        // Centers at random observed values plus jitter; the multi-seed
        // objective picks the best start. The two draws are sequenced
        // explicitly (operands of + are unsequenced).
        double center;
        if (pool.empty()) {
          center = mean + rng->Gaussian();
        } else {
          const double observed = pool[rng->UniformIndex(pool.size())];
          center = observed + 0.05 * stddev * rng->Gaussian();
        }
        gaussians.emplace_back(center, var);
      }
      components.push_back(
          AttributeComponents::Numerical(std::move(gaussians)));
    }
  }
  return components;
}

bool KMeansTheta(const Network& network,
                 const std::vector<const Attribute*>& attributes,
                 const GenClusConfig& config, Rng* rng, Matrix* theta) {
  GENCLUS_CHECK(theta != nullptr && rng != nullptr);
  std::vector<const Attribute*> numerical;
  for (const Attribute* attr : attributes) {
    if (attr->kind() == AttributeKind::kNumerical) numerical.push_back(attr);
  }
  if (numerical.empty()) return false;
  auto features = InterpolateNumericalAttributes(network, numerical);
  if (!features.ok()) return false;
  StandardizeColumns(&features.value());
  KMeansConfig kconfig;
  kconfig.num_clusters = config.num_clusters;
  kconfig.num_restarts = 5;
  kconfig.seed = rng->engine()();
  auto kmeans = RunKMeans(*features, kconfig);
  if (!kmeans.ok()) return false;
  // Concentrated-but-soft memberships: EM can still move nodes around.
  constexpr double kEps = 0.2;
  *theta = Matrix(network.num_nodes(), config.num_clusters,
                  kEps / static_cast<double>(config.num_clusters - 1));
  for (NodeId v = 0; v < network.num_nodes(); ++v) {
    (*theta)(v, kmeans->labels[v]) = 1.0 - kEps;
  }
  return true;
}

void BestOfSeedsInit(const EmOptimizer& optimizer, const Network& network,
                     const std::vector<const Attribute*>& attributes,
                     const GenClusConfig& config,
                     const std::vector<double>& gamma, Rng* rng,
                     Matrix* theta,
                     std::vector<AttributeComponents>* components) {
  GENCLUS_CHECK(theta != nullptr && components != nullptr);
  const size_t seeds = std::max<size_t>(1, config.num_init_seeds);
  double best_objective = -std::numeric_limits<double>::infinity();

  // One workspace shared across every candidate's scoring steps: the
  // problem shape never changes, so all scratch is allocated exactly once.
  EmWorkspace workspace;
  auto consider = [&](Matrix cand_theta,
                      std::vector<AttributeComponents> cand_components) {
    for (size_t step = 0; step < config.init_em_steps; ++step) {
      optimizer.Step(gamma, &cand_theta, &cand_components, &workspace);
    }
    const double obj = G1Objective(network, attributes, cand_components,
                                   cand_theta, gamma, optimizer.pool());
    if (obj > best_objective) {
      best_objective = obj;
      *theta = std::move(cand_theta);
      *components = std::move(cand_components);
    }
  };

  if (config.theta_init == ThetaInit::kRandomSeedsPlusKMeans) {
    Matrix kmeans_theta;
    if (KMeansTheta(network, attributes, config, rng, &kmeans_theta)) {
      std::vector<AttributeComponents> cand_components =
          InitialComponents(attributes, config, rng);
      optimizer.EstimateComponents(kmeans_theta, &cand_components);
      consider(std::move(kmeans_theta), std::move(cand_components));
    }
  }
  for (size_t s = 0; s < seeds; ++s) {
    // Both draw from one Rng, so the order is spelled out instead of left
    // to the compiler's (unspecified) argument evaluation order.
    std::vector<AttributeComponents> cand_components =
        InitialComponents(attributes, config, rng);
    Matrix cand_theta =
        RandomTheta(network.num_nodes(), config.num_clusters, rng);
    consider(std::move(cand_theta), std::move(cand_components));
  }
}

}  // namespace genclus
