// Probability-simplex utilities. Cluster membership vectors theta_v live on
// the K-simplex; the cross-entropy feature function (Eq. 6) takes logs of
// their components, so components are clamped away from exact zero.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

namespace genclus {

/// Default floor for membership probabilities before logs are taken.
inline constexpr double kDefaultThetaFloor = 1e-12;

/// Normalizes v in place so it sums to 1. If the total mass is <= 0 or
/// non-finite the vector is reset to uniform. The raw-buffer overload is
/// the implementation; the vector form forwards to it, so both produce
/// bitwise identical results on the same values. Inline so hot callers
/// with a compile-time length (the serve sweep's K-specialized
/// instantiations) unroll it — inlining never reorders the arithmetic.
inline void NormalizeToSimplex(double* v, size_t n) {
  double total = 0.0;
  bool bad = false;
  for (size_t i = 0; i < n; ++i) {
    const double x = v[i];
    if (!(x >= 0.0) || !std::isfinite(x)) {
      bad = true;
      break;
    }
    total += x;
  }
  if (bad || total <= 0.0 || !std::isfinite(total)) {
    const double u = 1.0 / static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) v[i] = u;
    return;
  }
  for (size_t i = 0; i < n; ++i) v[i] /= total;
}
void NormalizeToSimplex(std::vector<double>* v);

/// Clamps every component to at least `floor` and renormalizes.
inline void ClampToSimplex(double* v, size_t n,
                           double floor = kDefaultThetaFloor) {
  NormalizeToSimplex(v, n);
  bool needs_clamp = false;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] < floor) {
      needs_clamp = true;
      break;
    }
  }
  if (!needs_clamp) return;
  for (size_t i = 0; i < n; ++i) {
    if (v[i] < floor) v[i] = floor;
  }
  NormalizeToSimplex(v, n);
}
void ClampToSimplex(std::vector<double>* v, double floor = kDefaultThetaFloor);

/// Writes `mix` normalized onto the simplex into `out` (aliasing allowed):
/// divide by the total, clamp each component to at least `floor`, divide
/// by the clamped total. An all-zero or non-finite mix (an isolated,
/// attribute-free node) becomes uniform. The one normalization rule of the
/// training EM sweep and the streaming-update fold-in, so both apply
/// identical arithmetic.
inline void NormalizeOntoSimplex(const double* mix, size_t n, double floor,
                                 double* out) {
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) total += mix[k];
  if (total <= 0.0 || !std::isfinite(total)) {
    const double u = 1.0 / static_cast<double>(n);
    for (size_t k = 0; k < n; ++k) out[k] = u;
    return;
  }
  double clamped_total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    double val = mix[k] / total;
    if (val < floor) val = floor;
    out[k] = val;
    clamped_total += val;
  }
  for (size_t k = 0; k < n; ++k) out[k] /= clamped_total;
}

/// True if v sums to 1 within `tol` and every component is in [0, 1].
bool IsOnSimplex(const std::vector<double>& v, double tol = 1e-9);

/// Shannon entropy H(p) = -sum p_k log p_k (natural log). Zero components
/// contribute zero.
double Entropy(const std::vector<double>& p);

/// Cross entropy H(q, p) = -sum_k q_k log p_k, the deviation measure in
/// Eq. 6 (note the order: q weights, log of p). Components of p are floored
/// at kDefaultThetaFloor to keep the value finite.
double CrossEntropy(const std::vector<double>& q, const std::vector<double>& p);

/// KL divergence D(q || p) = H(q,p) - H(q).
double KlDivergence(const std::vector<double>& q, const std::vector<double>& p);

/// Cosine similarity between arbitrary non-negative vectors; 0 if either
/// norm vanishes.
double CosineSimilarity(const std::vector<double>& a,
                        const std::vector<double>& b);

/// Euclidean distance.
double EuclideanDistance(const std::vector<double>& a,
                         const std::vector<double>& b);

/// Index of the largest component (ties broken toward the lower index).
size_t ArgMax(const std::vector<double>& v);

}  // namespace genclus
