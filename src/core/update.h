// Incremental model maintenance: the middle ground between fit-once and
// refit-from-scratch for HINs that keep growing.
//
// Three freshness tiers, cheapest first:
//
//   * ApplyUpdates — streaming: folds batches of NetworkDelta (hin/delta.h)
//     into an existing Dataset + Model in place. New nodes get Theta rows
//     from the fold-in update (the same Eq. 10/11 arithmetic serving
//     uses), touched survivors are re-solved with two Jacobi rounds, and
//     components are re-estimated from the updated Theta. No EM sweeps
//     over the full network.
//
//   * Engine::Refit (declared in core/engine.h, defined here) — nightly:
//     a full Algorithm 1 run on the grown dataset, warm-started from the
//     previous Model. Surviving nodes keep their Theta rows, new nodes
//     are seeded by the fold-in path, and components/gamma carry over, so
//     convergence costs iterations-to-delta instead of
//     iterations-from-scratch. Combine with
//     GenClusConfig::block_convergence_tol to also skip already-converged
//     node blocks inside each sweep.
//
//   * Engine::Fit — the from-scratch baseline.
//
// A refreshed model reaches production through Server::SwapModel
// (core/server.h) with zero downtime; Model::Fingerprint() identifies
// which model answered which request.
#pragma once

#include <span>

#include "core/engine.h"
#include "hin/delta.h"

namespace genclus {

/// Options of Engine::Refit. The cluster count always comes from the
/// previous model (a refit cannot change K); an empty
/// config.initial_gamma means "carry the previous model's gamma".
struct RefitOptions {
  GenClusConfig config;
  /// Notified after every outer iteration; null = no observation.
  ProgressObserver* observer = nullptr;
  /// Polled between outer iterations; null = not cancellable.
  const CancellationToken* cancellation = nullptr;
};

/// What one ApplyUpdates call did.
struct UpdateReport {
  size_t deltas_applied = 0;
  size_t new_nodes = 0;
  size_t new_links = 0;
  size_t new_observations = 0;
  /// Distinct nodes whose Theta rows were re-solved (new nodes, sources
  /// of new links, nodes with new observations).
  size_t touched_nodes = 0;
  double seconds = 0.0;
};

/// Folds `deltas` (applied in order) into `dataset` and `model` in place:
/// the dataset grows via ApplyNetworkDelta, the model gains fold-in Theta
/// rows for new nodes, every touched row is refined with two Jacobi
/// rounds, and beta and the Gaussians are re-estimated from the settled
/// Theta. The model's objective field is left at its last fitted value
/// (stale until the next Refit). Requires
/// model->num_nodes() == dataset->network.num_nodes() on entry and the
/// model's attribute/link-type metadata to match the dataset's schema.
/// On error the dataset may have grown by a prefix of the deltas, but the
/// model is only ever mutated after every delta validated and applied.
Result<UpdateReport> ApplyUpdates(Dataset* dataset, Model* model,
                                  std::span<const NetworkDelta> deltas);

}  // namespace genclus
