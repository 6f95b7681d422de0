// The deep-learning attack (Secs. 4-5 of the paper).
//
// Training: per-query softmax-regression loss (or the two-class ablation
// loss) over the n candidate VPPs of each sink fragment in the training
// designs; Adam with the paper's step-decay schedule. Attacking: for every
// sink fragment of the victim design, pick the candidate with the highest
// predicted score (Eq. 2).
//
// Execution: training runs one query per "lane" — a network replica
// sharing the master's weights — `batch_size` lanes per step (1 for the
// paper's per-query SGD), and reduces lane gradients into one fused
// TrainStep reduce+Adam pass (nn/train_step.hpp) in lane order, with no
// weight copy back to the lanes. Inference leases pinned shared-weight
// replicas (ReplicaSet). An image net first embeds every distinct pin of
// the dataset once (AttackNet::trunk) into a per-call table; then the
// replicas partition the queries and score each with the net's head over
// the table's rows (`select_one`), so the conv trunk runs once per pin,
// not once per candidate slot. Each selection lands in its own slot.
// A pool only runs lanes and chunks concurrently: the code path, the
// lane structure and therefore every floating-point sum depend on the
// config alone, so any thread count, including none, produces
// bit-identical models and CCRs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/attack_result.hpp"
#include "attack/dataset.hpp"
#include "attack/replica_set.hpp"
#include "nn/attack_net.hpp"
#include "nn/losses.hpp"
#include "nn/optimizer.hpp"
#include "runtime/thread_pool.hpp"

namespace sma::attack {

struct TrainConfig {
  int epochs = 24;
  nn::AdamConfig adam;        ///< lr 0.001, decay 0.6 (paper schedule)
  int decay_every = 20;       ///< epochs between lr decays
  /// Cap on training queries drawn per design per epoch (subsampling keeps
  /// single-core training tractable; 0 = use all).
  int max_queries_per_design = 400;
  /// Queries per optimizer step, one lane replica each. 1 reproduces the
  /// paper's per-query SGD; > 1 sums gradients over the batch (the effective
  /// step size grows with the batch, as with any summed minibatch, and a
  /// trailing partial batch takes a proportionally smaller step). Changing
  /// this changes the trained model — it is a training hyperparameter,
  /// not a performance knob; thread count alone never changes results.
  int batch_size = 1;
  std::uint64_t seed = 99;
  /// Report validation CCR every k epochs (0 = never).
  int validate_every = 0;
  /// Save a resumable checkpoint to `checkpoint_path` every k completed
  /// epochs (0 = never). A later `train` call with the same configuration
  /// and datasets picks the checkpoint up and continues — producing a
  /// final model byte-identical to an uninterrupted run (the durability
  /// contract tests/test_durability.cpp gates). A checkpoint from a
  /// *different* configuration or dataset is detected via an embedded
  /// digest and discarded; a damaged checkpoint file likewise falls back
  /// to a fresh start instead of failing the run.
  int checkpoint_every = 0;
  std::string checkpoint_path;
};

struct TrainStats {
  std::vector<double> epoch_loss;      ///< mean loss per epoch
  std::vector<double> validation_ccr;  ///< filled when validate_every > 0
  double seconds = 0.0;
  long queries_seen = 0;
  /// Activation-arena heap-growth events per epoch, summed over every
  /// gradient-lane replica. The first epoch warms
  /// the arenas up to the largest query shape; once every query shape of
  /// an epoch has been seen before, its entry is 0 — the alloc-free
  /// steady state bench_train and CI assert.
  std::vector<long> arena_allocs_per_epoch;
  /// Arena backing bytes pinned by the lanes at the end of training.
  std::size_t arena_bytes_pinned = 0;
  /// Epoch index this run resumed from (0 = started fresh). On resume the
  /// per-epoch vectors above still cover the FULL run: the histories come
  /// from the checkpoint and `arena_allocs_per_epoch` is zero-padded for
  /// the skipped epochs, so every vector stays indexable by epoch.
  int resumed_from_epoch = 0;
  /// Checkpoints written by this train() call.
  long checkpoints_saved = 0;
};

/// Score query `i` of `dataset` on `net` and pick the highest-scoring
/// candidate (Eq. 2). Without `embeddings` this is one batch-1 forward
/// over the query's n + 1 images; with them (the dataset's per-pin trunk
/// output, [num_pins, hidden], row order of `QueryDataset::pin_rows`) it
/// runs the net's head alone on the query's rows — the same score bytes.
/// An empty candidate list yields the no-op choice without touching the
/// net. `input` is the caller's reusable assembly buffer, so a worker
/// that keeps one across queries assembles without heap traffic once
/// warm. The one query-to-selection function: attack() workers and the
/// serving loop both call it.
Selection select_one(nn::AttackNet& net, const QueryDataset& dataset,
                     std::size_t i, nn::QueryInput& input,
                     const nn::Tensor* embeddings = nullptr);

/// The per-pin embedding table of `dataset` for an image net: row r is
/// `trunk` of pin row r's image, [num_pins, hidden]. `nets` (replicas
/// sharing one net's weights, each used by one task at a time) embed
/// disjoint contiguous slices of the rows, in batches of at most the
/// dataset's largest n + 1 images, so no net's arena grows past what a
/// forward over the largest query needs. `trunk` is image-local, so the
/// table's bytes depend on neither the net count nor the pool.
nn::Tensor embed_pins(const std::vector<nn::AttackNet*>& nets,
                      const QueryDataset& dataset,
                      runtime::ThreadPool* pool = nullptr);

class DlAttack {
 public:
  explicit DlAttack(const nn::NetConfig& net_config);
  /// Adopt an existing (e.g. deserialized) network.
  explicit DlAttack(nn::AttackNet net);

  nn::AttackNet& net() { return net_; }

  /// Train on `training` datasets; if `validation` is non-empty and
  /// `config.validate_every` > 0, track validation CCR. `pool` only
  /// changes wall-clock time, never the resulting model.
  TrainStats train(const std::vector<QueryDataset>& training,
                   const std::vector<QueryDataset>& validation,
                   const TrainConfig& config,
                   runtime::ThreadPool* pool = nullptr);

  /// Run inference over every query of `dataset`. The shared network is
  /// never used directly: `pool`'s threads plus the caller each run one
  /// chunk of work on a *pinned* replica leased from the ReplicaSet
  /// (shared read-only weights, private activation caches; no per-call
  /// clone), one replica for a serial call — so concurrent `attack` calls
  /// on one DlAttack are safe, with or without a pool, and repeated calls
  /// reuse the same replicas. An image net works in two phases under
  /// that one lease: the replicas embed disjoint slices of the dataset's
  /// pins into a per-call embedding table (trace span attack/embed_pins),
  /// then score disjoint chunks of queries against it. Each query is one
  /// `select_one` call and each table row one pin's trunk output, so
  /// selections and CCR do not depend on the thread count, and they
  /// equal a batch-1 forward per query. Throws std::invalid_argument,
  /// before any work, when an image net meets a dataset whose images
  /// have another channel count (or none).
  AttackResult attack(const QueryDataset& dataset,
                      runtime::ThreadPool* pool = nullptr);

  /// The pinned inference replica set — the serving loop (src/serve/)
  /// leases from it directly so bounded replicas backpressure serving
  /// the same way they backpressure attack() calls.
  ReplicaSet& replicas() { return *replicas_; }

  /// Replicas created by attack() calls so far. Pinning means this
  /// stops growing once the set covers the worker count — the test hook
  /// for the replica-reuse contract.
  long inference_clones() const { return replicas_->clones_created(); }

  /// Aggregate activation-arena stats over the pinned inference replicas.
  /// Each replica owns one arena for its lifetime, and arenas warm per
  /// pool width: repeating attack() at a width already run, over
  /// already-seen query shapes, adds zero allocations. A call at a new
  /// width can still grow an arena: a serial call after only pooled ones
  /// grows replica 0, which now embeds every pin and scores every query
  /// where the pooled call gave it one slice.
  nn::ArenaStats inference_arena_stats() const {
    return replicas_->arena_stats();
  }

  /// Lease-lifecycle stats of the pinned replica set (leases, acquisition
  /// wait, occupancy) — the serving section of obs::RunReport.
  ReplicaSet::LeaseStats replica_lease_stats() const {
    return replicas_->lease_stats();
  }

 private:
  nn::AttackNet net_;
  /// Pinned inference replicas (heap-allocated so DlAttack stays movable;
  /// replicas reference net_'s layer objects, which have stable
  /// addresses even when the DlAttack moves).
  std::unique_ptr<ReplicaSet> replicas_;
};

}  // namespace sma::attack
