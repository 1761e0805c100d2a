#include "core/objective.h"

#include <cmath>

#include "common/check.h"
#include "core/feature.h"
#include "prob/distributions.h"
#include "prob/special_functions.h"

namespace genclus {

double AttributeLogLikelihood(const Attribute& attribute,
                              const AttributeComponents& components,
                              const Matrix& theta, ThreadPool* pool) {
  const size_t num_clusters = theta.cols();
  GENCLUS_CHECK_EQ(components.num_clusters(), num_clusters);
  GENCLUS_CHECK_EQ(attribute.num_nodes(), theta.rows());

  // One term per observation at its (node, observation) position; a
  // per-block partial sum would regroup the additions, the buffer keeps
  // the serial chain.
  const size_t n = attribute.num_nodes();
  const bool categorical = attribute.kind() == AttributeKind::kCategorical;
  std::vector<size_t> offsets(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    offsets[v + 1] = offsets[v] + (categorical ? attribute.TermCounts(v).size()
                                               : attribute.Values(v).size());
  }
  std::vector<double> terms(offsets[n]);

  if (categorical) {
    const Matrix& beta = components.beta();
    ForEachFixedGrainBlock(
        pool, n, kScoreBlockGrain,
        [&](size_t /*block*/, size_t begin, size_t end) {
          for (size_t vi = begin; vi < end; ++vi) {
            const NodeId v = static_cast<NodeId>(vi);
            const double* theta_v = theta.Row(v);
            double* out = terms.data() + offsets[vi];
            for (const TermCount& tc : attribute.TermCounts(v)) {
              double p = 0.0;
              for (size_t k = 0; k < num_clusters; ++k) {
                p += theta_v[k] * beta(k, tc.term);
              }
              // Guard against components that assign zero mass everywhere;
              // the smoothing in the M-step normally prevents this.
              *out++ = tc.count * std::log(p > 0.0 ? p : 1e-300);
            }
          }
        });
  } else {
    // GaussianDistribution::LogPdf's per-cluster factors, hoisted:
    // -0.5 * (log(2 pi) + log sigma^2) and 2 sigma^2.
    std::vector<double> mean(num_clusters);
    std::vector<double> log_norm(num_clusters);
    std::vector<double> two_var(num_clusters);
    for (size_t k = 0; k < num_clusters; ++k) {
      const GaussianDistribution& g =
          components.gaussian(static_cast<ClusterId>(k));
      mean[k] = g.mean();
      log_norm[k] = -0.5 * (kLogTwoPi + std::log(g.variance()));
      two_var[k] = 2.0 * g.variance();
    }
    ForEachFixedGrainBlock(
        pool, n, kScoreBlockGrain,
        [&](size_t /*block*/, size_t begin, size_t end) {
          std::vector<double> log_theta(num_clusters);
          std::vector<double> logs(num_clusters);
          for (size_t vi = begin; vi < end; ++vi) {
            const NodeId v = static_cast<NodeId>(vi);
            const std::vector<double>& values = attribute.Values(v);
            if (values.empty()) continue;
            const double* theta_v = theta.Row(v);
            for (size_t k = 0; k < num_clusters; ++k) {
              const double t = theta_v[k] > 0.0 ? theta_v[k] : 1e-300;
              log_theta[k] = std::log(t);
            }
            double* out = terms.data() + offsets[vi];
            for (double x : values) {
              for (size_t k = 0; k < num_clusters; ++k) {
                const double d = x - mean[k];
                logs[k] = log_theta[k] + (log_norm[k] - d * d / two_var[k]);
              }
              *out++ = LogSumExp(logs);
            }
          }
        });
  }
  double total = 0.0;
  for (double term : terms) total += term;
  return total;
}

double TotalAttributeLogLikelihood(
    const std::vector<const Attribute*>& attributes,
    const std::vector<AttributeComponents>& components, const Matrix& theta,
    ThreadPool* pool) {
  GENCLUS_CHECK_EQ(attributes.size(), components.size());
  double total = 0.0;
  for (size_t t = 0; t < attributes.size(); ++t) {
    total += AttributeLogLikelihood(*attributes[t], components[t], theta, pool);
  }
  return total;
}

double G1Objective(const Network& network,
                   const std::vector<const Attribute*>& attributes,
                   const std::vector<AttributeComponents>& components,
                   const Matrix& theta, const std::vector<double>& gamma,
                   ThreadPool* pool) {
  return StructuralScore(network, theta, gamma, pool) +
         TotalAttributeLogLikelihood(attributes, components, theta, pool);
}

}  // namespace genclus
