#include "core/em.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "common/check.h"
#include "linalg/sharding.h"
#include "linalg/spmm.h"
#include "prob/simplex.h"
#include "prob/special_functions.h"

namespace genclus {

namespace {

// Nodes per reduction block. Fixed (independent of the thread count) so
// block boundaries — and therefore the merged floating-point result — are
// invariant to how many workers execute them (same contract as the
// strength learner's ParallelForReduce grain).
constexpr size_t kEmBlockGrain = 128;

// Count elements per task of the categorical merge: 1 KiB of sums per task,
// folded on the stack and stored once.
constexpr size_t kMergeGrain = 128;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

void ZeroAccumulator(EmComponentAccumulator* acc) {
  std::fill(acc->counts.begin(), acc->counts.end(), 0.0);
  std::fill(acc->weight_sum.begin(), acc->weight_sum.end(), 0.0);
  std::fill(acc->value_sum.begin(), acc->value_sum.end(), 0.0);
  std::fill(acc->square_sum.begin(), acc->square_sum.end(), 0.0);
}

void MergeMoments(EmComponentAccumulator* into,
                  const EmComponentAccumulator& from) {
  for (size_t i = 0; i < into->weight_sum.size(); ++i) {
    into->weight_sum[i] += from.weight_sum[i];
    into->value_sum[i] += from.value_sum[i];
    into->square_sum[i] += from.square_sum[i];
  }
}

}  // namespace

void EmWorkspace::Prepare(size_t num_nodes, size_t num_clusters,
                          const std::vector<const Attribute*>& attributes,
                          size_t num_blocks) {
  bool shape_unchanged =
      num_nodes_ == num_nodes && num_clusters_ == num_clusters &&
      num_blocks_ == num_blocks && num_attributes_ == attributes.size();
  for (size_t t = 0; shape_unchanged && t < attributes.size(); ++t) {
    if (attributes[t]->kind() == AttributeKind::kCategorical) {
      shape_unchanged = beta_transpose_[t].rows() == attributes[t]->vocab_size();
    } else {
      shape_unchanged = beta_transpose_[t].empty();
    }
  }
  if (shape_unchanged) return;
  num_nodes_ = num_nodes;
  num_clusters_ = num_clusters;
  num_blocks_ = num_blocks;
  num_attributes_ = attributes.size();

  new_theta_ = Matrix(num_nodes, num_clusters);
  block_delta_.assign(num_blocks, 0.0);
  block_objective_.assign(num_blocks, 0.0);
  constexpr size_t kLineDoubles = kCacheLineBytes / sizeof(double);
  const size_t per_block = (4 + 3 * attributes.size()) * num_clusters;
  scratch_stride_ =
      (per_block + kLineDoubles - 1) / kLineDoubles * kLineDoubles;
  scratch_.assign(num_blocks * scratch_stride_, 0.0);

  block_acc_.assign(num_blocks, {});
  for (auto& block : block_acc_) {
    block.resize(attributes.size());
    for (size_t t = 0; t < attributes.size(); ++t) {
      if (attributes[t]->kind() == AttributeKind::kCategorical) {
        block[t].counts.assign(
            num_clusters * attributes[t]->vocab_size(), 0.0);
      } else {
        block[t].weight_sum.assign(num_clusters, 0.0);
        block[t].value_sum.assign(num_clusters, 0.0);
        block[t].square_sum.assign(num_clusters, 0.0);
      }
    }
  }

  beta_transpose_.assign(attributes.size(), Matrix());
  gaussians_.assign(attributes.size(), GaussianEvalTable());
  for (size_t t = 0; t < attributes.size(); ++t) {
    if (attributes[t]->kind() == AttributeKind::kCategorical) {
      beta_transpose_[t] = Matrix(attributes[t]->vocab_size(), num_clusters);
    }
  }

  // Convergence-aware skip state starts disarmed for a new shape; the
  // merge buffer clones block 0's accumulator shapes.
  block_quiet_.assign(num_blocks, 0);
  block_skip_.assign(num_blocks, 0);
  block_dependents_.clear();
  dependents_ready_ = false;
  last_gamma_.clear();
  last_sweep_skipped_ = 0;
  merged_acc_ = block_acc_[0];
}

void EmWorkspace::PrepareSharding(const Network& network,
                                  size_t requested_shards) {
  const ShardPartition partition =
      ShardPartition::Resolve(requested_shards, network.num_nodes());
  const size_t num_relations = network.schema().num_link_types();
  const size_t want_splits = partition.num_shards() > 1 ? num_relations : 0;
  if (shard_ready_ &&
      shard_partition_.num_shards() == partition.num_shards() &&
      shard_partition_.num_cols() == partition.num_cols() &&
      shard_splits_.size() == want_splits) {
    return;
  }
  shard_partition_ = partition;
  shard_splits_.assign(want_splits, CsrColumnSplit());
  for (LinkTypeId r = 0; r < want_splits; ++r) {
    const RelationCsr adj = network.OutCsr(r);
    const CsrMatrixView view{adj.row_offsets, adj.neighbors, adj.weights};
    shard_splits_[r].Build(view, shard_partition_);
  }
  shard_ready_ = true;
}

EmOptimizer::EmOptimizer(const Network* network,
                         std::vector<const Attribute*> attributes,
                         const GenClusConfig* config, ThreadPool* pool)
    : network_(network),
      attributes_(std::move(attributes)),
      config_(config),
      pool_(pool) {
  GENCLUS_CHECK(network_ != nullptr);
  GENCLUS_CHECK(config_ != nullptr);
  GENCLUS_CHECK_GE(config_->num_clusters, 2u);
  for (const Attribute* a : attributes_) {
    GENCLUS_CHECK(a != nullptr);
    GENCLUS_CHECK_EQ(a->num_nodes(), network_->num_nodes());
    if (a->kind() == AttributeKind::kNumerical) has_numerical_ = true;
  }
}

size_t EmOptimizer::NumBlocks() const {
  const size_t n = network_->num_nodes();
  // At least one block so the merged accumulators exist even for an empty
  // node range (UpdateComponents still applies its empty-cluster rules;
  // ForEachFixedGrainBlock runs nothing for n == 0, so the sweeps zero
  // that block's slots explicitly in that case).
  return std::max<size_t>(1, (n + kEmBlockGrain - 1) / kEmBlockGrain);
}

void EmOptimizer::RebuildDerivedTables(
    const std::vector<AttributeComponents>& components,
    EmWorkspace* ws) const {
  for (size_t t = 0; t < attributes_.size(); ++t) {
    if (attributes_[t]->kind() == AttributeKind::kCategorical) {
      const Matrix& beta = components[t].beta();
      Matrix& beta_t = ws->beta_transpose_[t];
      for (size_t k = 0; k < beta.rows(); ++k) {
        const double* row = beta.Row(k);
        for (size_t l = 0; l < beta.cols(); ++l) beta_t(l, k) = row[l];
      }
    } else {
      ws->gaussians_[t].Rebuild(components[t]);
    }
  }
}

void EmOptimizer::AccumulateLinkTerm(const std::vector<double>& gamma,
                                     const double* theta_data, size_t begin,
                                     size_t end, EmWorkspace* ws,
                                     double* out) const {
  const size_t num_clusters = config_->num_clusters;
  const size_t num_relations = gamma.size();
  const ShardPartition& partition = ws->shard_partition_;
  const size_t num_shards = partition.num_shards();
  for (LinkTypeId r = 0; r < num_relations; ++r) {
    if (gamma[r] == 0.0) continue;
    const RelationCsr adj = network_->OutCsr(r);
    const CsrMatrixView view{adj.row_offsets, adj.neighbors, adj.weights};
    if (num_shards == 1) {
      SpmmAccumulate(view, gamma[r], theta_data, num_clusters, begin, end,
                     out);
      continue;
    }
    // Shards run ascending inside each relation so every output row's
    // non-zero chain replays the unsharded relation-by-relation order.
    for (size_t s = 0; s < num_shards; ++s) {
      SpmmAccumulateShard(view, ws->shard_splits_[r], partition, s, gamma[r],
                          theta_data + partition.begin(s) * num_clusters,
                          num_clusters, begin, end, out);
    }
  }
}

double EmOptimizer::FusedStep(const std::vector<double>& gamma, Matrix* theta,
                              std::vector<AttributeComponents>* components,
                              EmWorkspace* ws, double* entry_objective,
                              bool allow_block_skip) const {
  GENCLUS_CHECK(theta != nullptr && components != nullptr && ws != nullptr);
  GENCLUS_CHECK_EQ(theta->rows(), network_->num_nodes());
  GENCLUS_CHECK_EQ(theta->cols(), config_->num_clusters);
  GENCLUS_CHECK_EQ(gamma.size(), network_->schema().num_link_types());
  GENCLUS_CHECK_EQ(components->size(), attributes_.size());

  const size_t n = network_->num_nodes();
  const size_t num_clusters = config_->num_clusters;
  const size_t num_blocks = NumBlocks();
  const bool track = entry_objective != nullptr;
  const bool need_logs = has_numerical_ || track;
  const double log_theta_floor = std::log(kDefaultThetaFloor);

  ws->Prepare(n, num_clusters, attributes_, num_blocks);
  ws->PrepareSharding(*network_, config_->theta_shards);
  RebuildDerivedTables(*components, ws);

  const double* theta_data = theta->data().data();
  double* new_theta_data = ws->new_theta_.data().data();
  if (n == 0) {
    // No blocks run below; clear the lone reduction slot by hand so a
    // reused workspace cannot leak stale statistics into the M-step.
    for (auto& a : ws->block_acc_[0]) ZeroAccumulator(&a);
    ws->block_delta_[0] = 0.0;
    ws->block_objective_[0] = 0.0;
  }

  // Convergence-aware skip decisions, made serially before the sweep from
  // last sweep's deterministic per-block deltas: a block quiet for
  // block_convergence_sweeps consecutive sweeps is carried forward. A
  // traced sweep must evaluate every block, so skipping disengages while
  // an objective rides along.
  const double block_tol = config_->block_convergence_tol;
  const bool adaptive = allow_block_skip && block_tol > 0.0 && !track && n > 0;
  if (adaptive) {
    // A gamma change (a new outer iteration) rescales every link term, so
    // cached quiet streaks no longer mean anything.
    if (ws->last_gamma_ != gamma) {
      std::fill(ws->block_quiet_.begin(), ws->block_quiet_.end(), 0);
      ws->last_gamma_ = gamma;
    }
    if (!ws->dependents_ready_) BuildBlockDependents(ws);
    for (size_t b = 0; b < num_blocks; ++b) {
      ws->block_skip_[b] =
          ws->block_quiet_[b] >= config_->block_convergence_sweeps ? 1 : 0;
    }
  } else {
    std::fill(ws->block_skip_.begin(), ws->block_skip_.end(), 0);
  }

  ForEachFixedGrainBlock(pool_, n, kEmBlockGrain, [&](size_t b, size_t begin,
                                                      size_t end) {
    if (ws->block_skip_[b]) {
      // Carried block: Theta rows pass through unchanged, the component
      // statistics cached from the block's last computed sweep are merged
      // as-is below, and block_delta_ keeps its frozen value (< block_tol,
      // so it can never stall the global convergence test).
      std::memcpy(new_theta_data + begin * num_clusters,
                  theta_data + begin * num_clusters,
                  (end - begin) * num_clusters * sizeof(double));
      return;
    }
    std::vector<EmComponentAccumulator>& acc = ws->block_acc_[b];
    double* resp = ws->BlockScratch(b);
    double* log_e = resp + num_clusters;  // E-step clamp (1e-300)
    double* log_s = log_e + num_clusters;  // structural clamp (theta floor)
    double* base = log_s + num_clusters;  // log theta_vk + log_norm_k
    // Numerical moment sums, 3 * K per attribute, on the block's own lines.
    double* moments = base + num_clusters;
    std::fill(moments, moments + 3 * num_clusters * attributes_.size(), 0.0);
    for (size_t t = 0; t < attributes_.size(); ++t) {
      std::fill(acc[t].counts.begin(), acc[t].counts.end(), 0.0);
    }

    // Link part of Eq. 10/11/12 as a typed-CSR SpMM: per relation r,
    // new_theta rows of this block += gamma_r * (W_r Theta), one column
    // shard at a time.
    std::fill(new_theta_data + begin * num_clusters,
              new_theta_data + end * num_clusters, 0.0);
    AccumulateLinkTerm(gamma, theta_data, begin, end, ws, new_theta_data);

    double local_delta = 0.0;
    double local_obj = 0.0;
    for (size_t vi = begin; vi < end; ++vi) {
      const NodeId v = static_cast<NodeId>(vi);
      const double* theta_v = theta_data + vi * num_clusters;
      double* out = new_theta_data + vi * num_clusters;

      if (need_logs) {
        for (size_t k = 0; k < num_clusters; ++k) {
          const double tk = theta_v[k] > 0.0 ? theta_v[k] : 1e-300;
          log_e[k] = std::log(tk);
          if (track) {
            log_s[k] = theta_v[k] < kDefaultThetaFloor ? log_theta_floor
                                                       : log_e[k];
          }
        }
      }
      if (track) {
        // Feature part of g1 at the entry iterate, factored through the
        // link mix: sum_e gamma w CE(theta_v, theta_u)
        //         = sum_k log(clamped theta_vk) * [sum_e gamma w theta_uk],
        // and `out` holds exactly that bracket before the attribute part
        // lands on it.
        double structural = 0.0;
        for (size_t k = 0; k < num_clusters; ++k) {
          structural += log_s[k] * out[k];
        }
        local_obj += structural;
      }

      // Attribute part: responsibilities of v's own observations, with
      // the per-observation likelihood riding along for the fused trace.
      for (size_t t = 0; t < attributes_.size(); ++t) {
        const Attribute& attr = *attributes_[t];
        if (attr.kind() == AttributeKind::kCategorical) {
          const Matrix& beta_t = ws->beta_transpose_[t];
          const size_t vocab = attr.vocab_size();
          double* counts = acc[t].counts.data();
          for (const TermCount& tc : attr.TermCounts(v)) {
            const double* beta_term = beta_t.Row(tc.term);
            double total = 0.0;
            for (size_t k = 0; k < num_clusters; ++k) {
              resp[k] = theta_v[k] * beta_term[k];
              total += resp[k];
            }
            if (track) {
              local_obj +=
                  tc.count * std::log(total > 0.0 ? total : 1e-300);
            }
            if (total <= 0.0) {
              // All clusters assign zero mass (possible with zero
              // smoothing): treat the observation as uninformative.
              const double u = 1.0 / static_cast<double>(num_clusters);
              for (size_t k = 0; k < num_clusters; ++k) resp[k] = u;
              total = 1.0;
            }
            const double scale = tc.count / total;  // one division per obs
            for (size_t k = 0; k < num_clusters; ++k) {
              const double r = resp[k] * scale;
              out[k] += r;
              counts[k * vocab + tc.term] += r;
            }
          }
        } else {
          const std::vector<double>& values = attr.Values(v);
          if (values.empty()) continue;
          const GaussianEvalTable& table = ws->gaussians_[t];
          const double* mean = table.means().data();
          const double* neg_half_inv_var = table.neg_half_inv_vars().data();
          const double* log_norm = table.log_norms().data();
          double* weight_sum = moments + t * 3 * num_clusters;
          double* value_sum = weight_sum + num_clusters;
          double* square_sum = value_sum + num_clusters;
          // log theta_vk + log_norm_k is observation-invariant: hoist it so
          // the per-observation logit is two fused ops per cluster.
          for (size_t k = 0; k < num_clusters; ++k) {
            base[k] = log_e[k] + log_norm[k];
          }
          for (double x : values) {
            // Log-space for numerical stability of the Gaussian E-step;
            // log theta_v and the Gaussian constants are hoisted, so the
            // inner loop is pure arithmetic.
            double max_log = kNegInf;
            size_t arg_max = 0;
            for (size_t k = 0; k < num_clusters; ++k) {
              const double d = x - mean[k];
              resp[k] = base[k] + neg_half_inv_var[k] * d * d;
              if (resp[k] > max_log) {
                max_log = resp[k];
                arg_max = k;
              }
            }
            // exp(0) is exactly 1, so the max cluster's exponential is
            // free — one std::exp saved per observation.
            double total = 0.0;
            for (size_t k = 0; k < num_clusters; ++k) {
              resp[k] =
                  k == arg_max ? 1.0 : std::exp(resp[k] - max_log);
              total += resp[k];
            }
            if (track) local_obj += max_log + std::log(total);
            const double inv_total = 1.0 / total;
            for (size_t k = 0; k < num_clusters; ++k) {
              const double r = resp[k] * inv_total;
              out[k] += r;
              weight_sum[k] += r;
              value_sum[k] += r * x;
              square_sum[k] += r * x * x;
            }
          }
        }
      }

      NormalizeOntoSimplex(out, num_clusters, config_->theta_floor, out);
      for (size_t k = 0; k < num_clusters; ++k) {
        local_delta = std::max(local_delta, std::fabs(out[k] - theta_v[k]));
      }
    }
    for (size_t t = 0; t < attributes_.size(); ++t) {
      if (attributes_[t]->kind() != AttributeKind::kNumerical) continue;
      const double* sums = moments + t * 3 * num_clusters;
      std::copy(sums, sums + num_clusters, acc[t].weight_sum.begin());
      std::copy(sums + num_clusters, sums + 2 * num_clusters,
                acc[t].value_sum.begin());
      std::copy(sums + 2 * num_clusters, sums + 3 * num_clusters,
                acc[t].square_sum.begin());
    }
    ws->block_delta_[b] = local_delta;
    ws->block_objective_[b] = local_obj;
  });

  // Deterministic reduction: fold block partials in block order, so the
  // merged statistics (and hence beta and the Gaussians) never depend on
  // how blocks were scheduled across threads.
  double delta = 0.0;
  for (size_t b = 0; b < num_blocks; ++b) {
    delta = std::max(delta, ws->block_delta_[b]);
  }
  if (track) {
    double obj = 0.0;
    for (size_t b = 0; b < num_blocks; ++b) obj += ws->block_objective_[b];
    *entry_objective = obj;
  }
  MergeBlockStatistics(ws);
  UpdateComponents(ws->merged_acc_, components);
  std::swap(*theta, ws->new_theta_);

  size_t skipped = 0;
  if (adaptive) {
    // Saturating quiet streaks (a skipped block's frozen delta keeps it
    // quiet), then re-arm every reader of a block that moved this sweep:
    // the reader's link term depends on the mover's Theta rows.
    constexpr size_t kQuietCap = size_t{1} << 20;
    for (size_t b = 0; b < num_blocks; ++b) {
      if (ws->block_skip_[b]) ++skipped;
      size_t& quiet = ws->block_quiet_[b];
      quiet = ws->block_delta_[b] < block_tol ? std::min(quiet + 1, kQuietCap)
                                              : 0;
    }
    for (size_t m = 0; m < num_blocks; ++m) {
      if (ws->block_skip_[m] || ws->block_delta_[m] < block_tol) continue;
      for (uint32_t reader : ws->block_dependents_[m]) {
        ws->block_quiet_[reader] = 0;
      }
    }
  }
  ws->last_sweep_skipped_ = skipped;
  return delta;
}

void EmOptimizer::MergeBlockStatistics(EmWorkspace* ws) const {
  // Fold into the dedicated merge buffer — never into block 0's slot, whose
  // cached statistics a skipped block 0 must be able to reuse next sweep.
  // Every element's chain starts from block 0's value and adds the other
  // blocks in ascending order, whichever task folds it.
  const size_t num_blocks = ws->num_blocks_;
  for (size_t t = 0; t < attributes_.size(); ++t) {
    EmComponentAccumulator& merged = ws->merged_acc_[t];
    if (attributes_[t]->kind() != AttributeKind::kCategorical) {
      merged = ws->block_acc_[0][t];
      for (size_t b = 1; b < num_blocks; ++b) {
        MergeMoments(&merged, ws->block_acc_[b][t]);
      }
      continue;
    }
    ForEachFixedGrainBlock(
        pool_, merged.counts.size(), kMergeGrain,
        [&](size_t /*task*/, size_t begin, size_t end) {
          double sums[kMergeGrain];
          const double* first = ws->block_acc_[0][t].counts.data();
          std::copy(first + begin, first + end, sums);
          for (size_t b = 1; b < num_blocks; ++b) {
            const double* from = ws->block_acc_[b][t].counts.data() + begin;
            for (size_t i = 0; i < end - begin; ++i) sums[i] += from[i];
          }
          std::copy(sums, sums + (end - begin), merged.counts.data() + begin);
        });
  }
}

void EmOptimizer::BuildBlockDependents(EmWorkspace* ws) const {
  const size_t num_blocks = NumBlocks();
  ws->block_dependents_.assign(num_blocks, {});
  // stamp[m] = last reader block recorded for target m. Nodes iterate in
  // ascending order, so each reader's inserts arrive contiguously and the
  // stamp dedups them in O(1); every list comes out sorted ascending.
  std::vector<uint32_t> stamp(num_blocks,
                              std::numeric_limits<uint32_t>::max());
  for (NodeId v = 0; v < network_->num_nodes(); ++v) {
    const uint32_t reader = static_cast<uint32_t>(v / kEmBlockGrain);
    for (const LinkEntry& e : network_->OutLinks(v)) {
      const uint32_t target =
          static_cast<uint32_t>(e.neighbor / kEmBlockGrain);
      if (stamp[target] == reader) continue;
      stamp[target] = reader;
      ws->block_dependents_[target].push_back(reader);
    }
  }
  ws->dependents_ready_ = true;
}

double EmOptimizer::FusedObjective(
    const std::vector<double>& gamma, const Matrix& theta,
    const std::vector<AttributeComponents>& components,
    EmWorkspace* ws) const {
  // This sweep deliberately mirrors the `track` arithmetic of FusedStep
  // (same SpMM link mix, log hoists, arg-max exp skip) minus the state
  // updates — keep the two in sync. The FusedTraceMatchesG1Objective test
  // pins both against objective.h's independent G1Objective, so drift in
  // either copy fails the suite.
  GENCLUS_CHECK(ws != nullptr);
  GENCLUS_CHECK_EQ(theta.rows(), network_->num_nodes());
  GENCLUS_CHECK_EQ(theta.cols(), config_->num_clusters);
  GENCLUS_CHECK_EQ(gamma.size(), network_->schema().num_link_types());
  GENCLUS_CHECK_EQ(components.size(), attributes_.size());

  const size_t num_clusters = config_->num_clusters;
  const size_t num_blocks = NumBlocks();
  const double log_theta_floor = std::log(kDefaultThetaFloor);

  const size_t n = network_->num_nodes();
  ws->Prepare(n, num_clusters, attributes_, num_blocks);
  ws->PrepareSharding(*network_, config_->theta_shards);
  RebuildDerivedTables(components, ws);
  const double* theta_data = theta.data().data();
  double* mix_data = ws->new_theta_.data().data();  // scratch rows only
  if (n == 0) ws->block_objective_[0] = 0.0;

  ForEachFixedGrainBlock(pool_, n, kEmBlockGrain, [&](size_t b, size_t begin,
                                                      size_t end) {
    double* resp = ws->BlockScratch(b);
    double* log_e = resp + num_clusters;
    double* log_s = log_e + num_clusters;
    double* base = log_s + num_clusters;

    std::fill(mix_data + begin * num_clusters, mix_data + end * num_clusters,
              0.0);
    AccumulateLinkTerm(gamma, theta_data, begin, end, ws, mix_data);

    double local_obj = 0.0;
    for (size_t vi = begin; vi < end; ++vi) {
      const NodeId v = static_cast<NodeId>(vi);
      const double* theta_v = theta_data + vi * num_clusters;
      const double* mix = mix_data + vi * num_clusters;
      for (size_t k = 0; k < num_clusters; ++k) {
        const double tk = theta_v[k] > 0.0 ? theta_v[k] : 1e-300;
        log_e[k] = std::log(tk);
        log_s[k] = theta_v[k] < kDefaultThetaFloor ? log_theta_floor
                                                   : log_e[k];
        local_obj += log_s[k] * mix[k];
      }
      for (size_t t = 0; t < attributes_.size(); ++t) {
        const Attribute& attr = *attributes_[t];
        if (attr.kind() == AttributeKind::kCategorical) {
          const Matrix& beta_t = ws->beta_transpose_[t];
          for (const TermCount& tc : attr.TermCounts(v)) {
            const double* beta_term = beta_t.Row(tc.term);
            double total = 0.0;
            for (size_t k = 0; k < num_clusters; ++k) {
              total += theta_v[k] * beta_term[k];
            }
            local_obj += tc.count * std::log(total > 0.0 ? total : 1e-300);
          }
        } else {
          const std::vector<double>& values = attr.Values(v);
          if (values.empty()) continue;
          const GaussianEvalTable& table = ws->gaussians_[t];
          const double* mean = table.means().data();
          const double* neg_half_inv_var = table.neg_half_inv_vars().data();
          const double* log_norm = table.log_norms().data();
          for (size_t k = 0; k < num_clusters; ++k) {
            base[k] = log_e[k] + log_norm[k];
          }
          for (double x : values) {
            double max_log = kNegInf;
            size_t arg_max = 0;
            for (size_t k = 0; k < num_clusters; ++k) {
              const double d = x - mean[k];
              resp[k] = base[k] + neg_half_inv_var[k] * d * d;
              if (resp[k] > max_log) {
                max_log = resp[k];
                arg_max = k;
              }
            }
            double total = 0.0;
            for (size_t k = 0; k < num_clusters; ++k) {
              total += k == arg_max ? 1.0 : std::exp(resp[k] - max_log);
            }
            local_obj += max_log + std::log(total);
          }
        }
      }
    }
    ws->block_objective_[b] = local_obj;
  });

  double obj = 0.0;
  for (size_t b = 0; b < num_blocks; ++b) obj += ws->block_objective_[b];
  return obj;
}

void EmOptimizer::ProcessNodes(
    size_t begin, size_t end, const std::vector<double>& gamma,
    const Matrix& theta, const std::vector<AttributeComponents>& components,
    Matrix* new_theta, std::vector<EmComponentAccumulator>* acc) const {
  const size_t num_clusters = config_->num_clusters;
  std::vector<double> mix(num_clusters);   // theta_v contributions
  std::vector<double> resp(num_clusters);  // per-observation responsibilities

  for (size_t vi = begin; vi < end; ++vi) {
    const NodeId v = static_cast<NodeId>(vi);
    std::fill(mix.begin(), mix.end(), 0.0);

    // Link part of Eq. 10/11/12: out-neighbors weighted by link weight and
    // relation strength.
    for (const LinkEntry& e : network_->OutLinks(v)) {
      const double coeff = gamma[e.type] * e.weight;
      if (coeff == 0.0) continue;
      const double* theta_u = theta.Row(e.neighbor);
      for (size_t k = 0; k < num_clusters; ++k) {
        mix[k] += coeff * theta_u[k];
      }
    }

    // Attribute part: responsibilities of v's own observations.
    const double* theta_v = theta.Row(v);
    for (size_t t = 0; t < attributes_.size(); ++t) {
      const Attribute& attr = *attributes_[t];
      const AttributeComponents& comp = components[t];
      if (attr.kind() == AttributeKind::kCategorical) {
        const Matrix& beta = comp.beta();
        const size_t vocab = attr.vocab_size();
        for (const TermCount& tc : attr.TermCounts(v)) {
          double total = 0.0;
          for (size_t k = 0; k < num_clusters; ++k) {
            resp[k] = theta_v[k] * beta(k, tc.term);
            total += resp[k];
          }
          if (total <= 0.0) {
            // All clusters assign zero mass (possible with zero smoothing):
            // treat the observation as uninformative.
            std::fill(resp.begin(), resp.end(), 1.0 / num_clusters);
            total = 1.0;
          }
          double* counts = (*acc)[t].counts.data();
          for (size_t k = 0; k < num_clusters; ++k) {
            const double r = tc.count * resp[k] / total;
            mix[k] += r;
            counts[k * vocab + tc.term] += r;
          }
        }
      } else {
        for (double x : attr.Values(v)) {
          // Log-space for numerical stability of the Gaussian E-step.
          double max_log = kNegInf;
          for (size_t k = 0; k < num_clusters; ++k) {
            const double tk = theta_v[k] > 0.0 ? theta_v[k] : 1e-300;
            resp[k] = std::log(tk) + comp.LogPdf(k, x);
            max_log = std::max(max_log, resp[k]);
          }
          double total = 0.0;
          for (size_t k = 0; k < num_clusters; ++k) {
            resp[k] = std::exp(resp[k] - max_log);
            total += resp[k];
          }
          auto& a = (*acc)[t];
          for (size_t k = 0; k < num_clusters; ++k) {
            const double r = resp[k] / total;
            mix[k] += r;
            a.weight_sum[k] += r;
            a.value_sum[k] += r * x;
            a.square_sum[k] += r * x * x;
          }
        }
      }
    }

    // Normalize onto the simplex; isolated attribute-free nodes fall back
    // to uniform inside NormalizeOntoSimplex.
    NormalizeOntoSimplex(mix.data(), num_clusters, config_->theta_floor,
                         new_theta->Row(v));
  }
}

void EmOptimizer::UpdateComponents(
    const std::vector<EmComponentAccumulator>& acc,
    std::vector<AttributeComponents>* components) const {
  const size_t num_clusters = config_->num_clusters;
  for (size_t t = 0; t < attributes_.size(); ++t) {
    if (attributes_[t]->kind() == AttributeKind::kCategorical) {
      const size_t vocab = attributes_[t]->vocab_size();
      Matrix* beta = (*components)[t].mutable_beta();
      for (size_t k = 0; k < num_clusters; ++k) {
        double row_total = 0.0;
        for (size_t l = 0; l < vocab; ++l) {
          row_total += acc[t].counts[k * vocab + l];
        }
        // Additive smoothing scaled by the cluster's count mass keeps the
        // relative flattening comparable across clusters of any size.
        const double smooth =
            config_->beta_smoothing * (row_total > 0.0 ? row_total : 1.0);
        const double denom = row_total + smooth * static_cast<double>(vocab);
        if (denom <= 0.0) {
          // Empty cluster: keep a uniform term distribution.
          const double u = 1.0 / static_cast<double>(vocab);
          for (size_t l = 0; l < vocab; ++l) (*beta)(k, l) = u;
        } else {
          for (size_t l = 0; l < vocab; ++l) {
            (*beta)(k, l) = (acc[t].counts[k * vocab + l] + smooth) / denom;
          }
        }
      }
    } else {
      auto* gaussians = (*components)[t].mutable_gaussians();
      for (size_t k = 0; k < num_clusters; ++k) {
        const double w = acc[t].weight_sum[k];
        if (w <= 1e-12) continue;  // empty cluster: keep previous parameters
        const double mean = acc[t].value_sum[k] / w;
        double var = acc[t].square_sum[k] / w - mean * mean;
        if (var < config_->variance_floor) var = config_->variance_floor;
        (*gaussians)[k] = GaussianDistribution(mean, var);
      }
    }
  }
}

double EmOptimizer::Step(const std::vector<double>& gamma, Matrix* theta,
                         std::vector<AttributeComponents>* components) const {
  EmWorkspace workspace;
  return FusedStep(gamma, theta, components, &workspace, nullptr);
}

double EmOptimizer::Step(const std::vector<double>& gamma, Matrix* theta,
                         std::vector<AttributeComponents>* components,
                         EmWorkspace* workspace) const {
  return FusedStep(gamma, theta, components, workspace, nullptr);
}

double EmOptimizer::ReferenceStep(
    const std::vector<double>& gamma, Matrix* theta,
    std::vector<AttributeComponents>* components) const {
  GENCLUS_CHECK(theta != nullptr && components != nullptr);
  GENCLUS_CHECK_EQ(theta->rows(), network_->num_nodes());
  GENCLUS_CHECK_EQ(theta->cols(), config_->num_clusters);
  GENCLUS_CHECK_EQ(gamma.size(), network_->schema().num_link_types());
  GENCLUS_CHECK_EQ(components->size(), attributes_.size());

  const size_t n = network_->num_nodes();
  const size_t num_clusters = config_->num_clusters;
  Matrix new_theta(n, num_clusters);
  std::vector<EmComponentAccumulator> acc(attributes_.size());
  for (size_t t = 0; t < attributes_.size(); ++t) {
    if (attributes_[t]->kind() == AttributeKind::kCategorical) {
      acc[t].counts.assign(num_clusters * attributes_[t]->vocab_size(), 0.0);
    } else {
      acc[t].weight_sum.assign(num_clusters, 0.0);
      acc[t].value_sum.assign(num_clusters, 0.0);
      acc[t].square_sum.assign(num_clusters, 0.0);
    }
  }
  ProcessNodes(0, n, gamma, *theta, *components, &new_theta, &acc);
  UpdateComponents(acc, components);
  const double delta = Matrix::MaxAbsDiff(*theta, new_theta);
  *theta = std::move(new_theta);
  return delta;
}

EmStats EmOptimizer::Run(const std::vector<double>& gamma, Matrix* theta,
                         std::vector<AttributeComponents>* components,
                         bool track_objective) const {
  EmWorkspace workspace;
  return Run(gamma, theta, components, &workspace, track_objective);
}

EmStats EmOptimizer::Run(const std::vector<double>& gamma, Matrix* theta,
                         std::vector<AttributeComponents>* components,
                         EmWorkspace* workspace, bool track_objective) const {
  GENCLUS_CHECK(workspace != nullptr);
  EmStats stats;
  stats.blocks = NumBlocks();
  // A traced run evaluates every block every sweep (the fused trace must
  // be exact), so convergence-aware skipping engages only untraced.
  const bool adaptive =
      !track_objective && config_->block_convergence_tol > 0.0;
  for (size_t iter = 0; iter < config_->em_iterations; ++iter) {
    // The sweep of iteration t evaluates g1 at its entry iterate for free,
    // which is exactly the post-iteration value of iteration t-1 (useless
    // on the first sweep); only the final iterate needs a dedicated
    // objective pass below.
    double entry_objective = 0.0;
    const bool want_entry = track_objective && iter > 0;
    const double delta =
        FusedStep(gamma, theta, components, workspace,
                  want_entry ? &entry_objective : nullptr,
                  /*allow_block_skip=*/!track_objective);
    if (want_entry) stats.objective_trace.push_back(entry_objective);
    if (adaptive) {
      stats.skipped_per_sweep.push_back(workspace->last_sweep_skipped_);
    }
    stats.iterations = iter + 1;
    stats.final_delta = delta;
    if (delta < config_->em_tolerance) {
      stats.converged = true;
      break;
    }
  }
  if (stats.iterations > 0) {
    stats.final_block_deltas.assign(workspace->block_delta_.begin(),
                                    workspace->block_delta_.end());
  }
  if (track_objective && stats.iterations > 0) {
    stats.objective_trace.push_back(
        FusedObjective(gamma, *theta, *components, workspace));
  }
  return stats;
}

void EmOptimizer::EstimateComponents(
    const Matrix& theta, std::vector<AttributeComponents>* components) const {
  const size_t num_clusters = config_->num_clusters;
  GENCLUS_CHECK(components != nullptr);
  GENCLUS_CHECK_EQ(components->size(), attributes_.size());

  for (size_t t = 0; t < attributes_.size(); ++t) {
    const Attribute& attr = *attributes_[t];
    if (attr.kind() == AttributeKind::kCategorical) {
      const size_t vocab = attr.vocab_size();
      Matrix* beta = (*components)[t].mutable_beta();
      Matrix counts(num_clusters, vocab);
      for (NodeId v = 0; v < attr.num_nodes(); ++v) {
        const double* theta_v = theta.Row(v);
        for (const TermCount& tc : attr.TermCounts(v)) {
          for (size_t k = 0; k < num_clusters; ++k) {
            counts(k, tc.term) += theta_v[k] * tc.count;
          }
        }
      }
      for (size_t k = 0; k < num_clusters; ++k) {
        double row_total = 0.0;
        for (size_t l = 0; l < vocab; ++l) row_total += counts(k, l);
        // Same smoothing rule as UpdateComponents, so the initial
        // component estimate and the EM updates are interchangeable.
        const double smooth =
            config_->beta_smoothing * (row_total > 0.0 ? row_total : 1.0);
        const double denom = row_total + smooth * static_cast<double>(vocab);
        if (denom <= 0.0) {
          // Empty cluster: keep a uniform term distribution.
          const double u = 1.0 / static_cast<double>(vocab);
          for (size_t l = 0; l < vocab; ++l) (*beta)(k, l) = u;
        } else {
          for (size_t l = 0; l < vocab; ++l) {
            (*beta)(k, l) = (counts(k, l) + smooth) / denom;
          }
        }
      }
    } else {
      auto* gaussians = (*components)[t].mutable_gaussians();
      for (size_t k = 0; k < num_clusters; ++k) {
        double w = 0.0;
        double wx = 0.0;
        double wx2 = 0.0;
        for (NodeId v = 0; v < attr.num_nodes(); ++v) {
          const double tv = theta(v, k);
          for (double x : attr.Values(v)) {
            w += tv;
            wx += tv * x;
            wx2 += tv * x * x;
          }
        }
        if (w <= 1e-12) continue;
        const double mean = wx / w;
        double var = wx2 / w - mean * mean;
        if (var < config_->variance_floor) var = config_->variance_floor;
        (*gaussians)[k] = GaussianDistribution(mean, var);
      }
    }
  }
}

}  // namespace genclus
