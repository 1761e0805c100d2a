// Objective evaluation: the attribute log-likelihood of §3.2, the
// simplified cluster-optimization objective g1 (Eq. 9), and the full
// regularized objective g (Eq. 8) up to the gamma partition function
// (which is constant during cluster optimization and handled via the
// pseudo-likelihood in the strength learner).
#pragma once

#include <vector>

#include "common/thread_pool.h"
#include "core/components.h"
#include "hin/attributes.h"
#include "hin/network.h"
#include "linalg/matrix.h"

namespace genclus {

/// log p({v[X]} | Theta, beta) for one attribute: the mixture-model
/// log-likelihood of every observation (Eqs. 3 and 4). The per-observation
/// terms are evaluated over node blocks on `pool` (null = caller thread)
/// and summed in (node, observation) order, so the result is bitwise equal
/// to the serial sum for any pool.
double AttributeLogLikelihood(const Attribute& attribute,
                              const AttributeComponents& components,
                              const Matrix& theta,
                              ThreadPool* pool = nullptr);

/// Sum of AttributeLogLikelihood over the specified attributes (Eq. 5
/// assumes independence across attributes).
double TotalAttributeLogLikelihood(
    const std::vector<const Attribute*>& attributes,
    const std::vector<AttributeComponents>& components, const Matrix& theta,
    ThreadPool* pool = nullptr);

/// g1(Theta, beta) = structural score + attribute log-likelihood (Eq. 9).
/// Bitwise independent of `pool`.
double G1Objective(const Network& network,
                   const std::vector<const Attribute*>& attributes,
                   const std::vector<AttributeComponents>& components,
                   const Matrix& theta, const std::vector<double>& gamma,
                   ThreadPool* pool = nullptr);

}  // namespace genclus
