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
//     over the full network, and no rebuild of it: the cost follows the
//     delta, not the network.
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
/// the dataset grows via GrowDataset (hin/delta.h), the model gains
/// Theta rows for new nodes, every touched row is refined with two Jacobi
/// rounds, and beta and the Gaussians are re-estimated from the settled
/// Theta. The model's objective field is left at its last fitted value
/// (stale until the next Refit). Requires
/// model->num_nodes() == dataset->network.num_nodes() on entry and the
/// model's attribute/link-type metadata to match the dataset's schema.
///
/// Cost: O(delta + touched rows x their degree) plus bulk moves of the
/// adjacency arrays and one O(observations x K) component pass — no base
/// link or observation is replayed. Atomic: the whole delta list is
/// validated before anything changes, so on error neither `dataset` nor
/// `model` is modified. Growing the dataset invalidates any Engine or
/// Server created on its network (and any span or pointer into it); the
/// refreshed model reaches a live server through Server::SwapModel.
Result<UpdateReport> ApplyUpdates(Dataset* dataset, Model* model,
                                  std::span<const NetworkDelta> deltas);

}  // namespace genclus
