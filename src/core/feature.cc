#include "core/feature.h"

#include <cmath>

#include "common/check.h"
#include "prob/simplex.h"

namespace genclus {

double CrossEntropyScore(std::span<const double> theta_i,
                         std::span<const double> theta_j) {
  GENCLUS_DCHECK(theta_i.size() == theta_j.size());
  double acc = 0.0;
  for (size_t k = 0; k < theta_i.size(); ++k) {
    if (theta_j[k] == 0.0) continue;
    const double ti =
        theta_i[k] < kDefaultThetaFloor ? kDefaultThetaFloor : theta_i[k];
    acc += theta_j[k] * std::log(ti);
  }
  return acc;
}

void FlooredLogs(std::span<const double> theta_i,
                 std::span<double> floored_logs) {
  GENCLUS_DCHECK(theta_i.size() == floored_logs.size());
  for (size_t k = 0; k < theta_i.size(); ++k) {
    const double ti =
        theta_i[k] < kDefaultThetaFloor ? kDefaultThetaFloor : theta_i[k];
    floored_logs[k] = std::log(ti);
  }
}

double CrossEntropyFromLogs(std::span<const double> floored_logs_i,
                            std::span<const double> theta_j) {
  GENCLUS_DCHECK(floored_logs_i.size() == theta_j.size());
  double acc = 0.0;
  for (size_t k = 0; k < theta_j.size(); ++k) {
    if (theta_j[k] == 0.0) continue;
    acc += theta_j[k] * floored_logs_i[k];
  }
  return acc;
}

double LinkFeature(std::span<const double> theta_i,
                   std::span<const double> theta_j, double gamma_r,
                   double weight) {
  return gamma_r * weight * CrossEntropyScore(theta_i, theta_j);
}

double StructuralScore(const Network& network, const Matrix& theta,
                       const std::vector<double>& gamma, ThreadPool* pool) {
  GENCLUS_CHECK_EQ(theta.rows(), network.num_nodes());
  GENCLUS_CHECK_EQ(gamma.size(), network.schema().num_link_types());
  const size_t k = theta.cols();
  // One term per link at its node-major position; a per-block partial sum
  // would regroup the additions, the buffer keeps the serial chain.
  std::vector<double> terms(network.num_links());
  ForEachFixedGrainBlock(
      pool, network.num_nodes(), kScoreBlockGrain,
      [&](size_t /*block*/, size_t begin, size_t end) {
        std::vector<double> logs(k);
        for (size_t vi = begin; vi < end; ++vi) {
          const NodeId v = static_cast<NodeId>(vi);
          const auto links = network.OutLinks(v);
          if (links.empty()) continue;
          FlooredLogs({theta.Row(v), k}, logs);
          double* out = terms.data() + network.OutLinkOffset(v);
          for (const LinkEntry& e : links) {
            *out++ = gamma[e.type] * e.weight *
                     CrossEntropyFromLogs(logs, {theta.Row(e.neighbor), k});
          }
        }
      });
  double total = 0.0;
  for (double term : terms) total += term;
  return total;
}

double PerRelationScore(const Network& network, const Matrix& theta,
                        LinkTypeId relation) {
  GENCLUS_CHECK_EQ(theta.rows(), network.num_nodes());
  GENCLUS_CHECK(network.schema().ValidLinkType(relation));
  const size_t k = theta.cols();
  double total = 0.0;
  for (NodeId v = 0; v < network.num_nodes(); ++v) {
    std::span<const double> theta_v(theta.Row(v), k);
    for (const LinkEntry& e : network.OutLinks(v)) {
      if (e.type != relation) continue;
      std::span<const double> theta_u(theta.Row(e.neighbor), k);
      total += e.weight * CrossEntropyScore(theta_v, theta_u);
    }
  }
  return total;
}

}  // namespace genclus
