// Attack-serving front end: many concurrent callers, one query each.
//
// `submit()` answers one query on the CALLING thread: it leases one
// replica from the attack's ReplicaSet, runs one batch-1 forward (the
// image trunk over the query's n + 1 pin images, then the head over its
// n candidate VPPs, the paper's batch definition) through
// `attack::select_one`, and returns the lease. Concurrency therefore
// equals the number of callers. The replica bound
// (`ReplicaSet::set_max_replicas`) plus `lease_timeout_seconds` are the
// only backpressure: a saturated bounded set makes callers wait for a
// replica, and a lease timeout reaches the submitter as
// AcquireTimeoutError.
//
// Determinism contract: every answer is byte-identical to what a direct
// `attack()` chooses. The two run the same trunk and head in two call
// shapes over replicas that share the master's weights: a submit embeds
// the query's own n + 1 pins in one trunk call, while `attack()` embeds
// each distinct pin of the dataset once into a table and runs the head
// on the query's rows of it. A pin's embedding depends only on the
// weights and its image (AttackNet::trunk), so both shapes feed the head
// the same bytes. Client count, replica count and arrival timing
// therefore never change any answer; only latency and throughput are
// timing-dependent. The serving loop keeps no per-dataset table: a
// submit is a pure function of (weights, dataset, query).
//
// Lifecycle: `shutdown()` rejects new submits and returns only after every
// submit already accepted has finished. It may be called concurrently
// with itself and with submits; the destructor calls it.
//
// Datasets are immutable once constructed (every image is rendered up
// front), so concurrent submits read them with no registration step.
#pragma once

#include <cstddef>

#include "attack/attack_result.hpp"
#include "attack/dataset.hpp"
#include "attack/dl_attack.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace sma::serve {

struct ServeConfig {
  /// Forwarded to ReplicaSet::lease: < 0 waits for a replica
  /// indefinitely; >= 0 fails the submit with AcquireTimeoutError after
  /// that many seconds.
  double lease_timeout_seconds = -1.0;
};

/// Lifecycle counters, snapshot via ServeLoop::stats(). Lease wait and
/// hold times go to the ReplicaSet's stats and the metrics registry
/// (histogram replica.lease_held_us).
struct ServeStats {
  long submitted = 0;  ///< submit() calls accepted
  long answered = 0;   ///< non-empty queries answered with a selection
  long failed = 0;     ///< accepted submits that threw
  long empty = 0;      ///< empty-candidate queries answered inline
  long batches = 0;    ///< forward passes run (one per non-empty submit
                       ///< that obtained a replica, failed ones included)
};

class ServeLoop {
 public:
  /// Serves `attack`'s model. The attack (and every dataset later
  /// submitted) must outlive this loop.
  ServeLoop(attack::DlAttack& attack, ServeConfig config);
  ~ServeLoop();  ///< shutdown()
  ServeLoop(const ServeLoop&) = delete;
  ServeLoop& operator=(const ServeLoop&) = delete;

  /// Serve one query of `dataset` on the calling thread and return its
  /// selection — byte-identical to what attack() chooses.
  /// Empty-candidate queries are answered inline without a replica.
  /// Throws std::runtime_error after shutdown() (before touching the
  /// dataset) and AcquireTimeoutError when no replica frees up within
  /// `lease_timeout_seconds`; every other exception (e.g. the net's
  /// std::invalid_argument for an input of the wrong shape) propagates
  /// with its original type.
  attack::Selection submit(const attack::QueryDataset& dataset,
                           std::size_t query) SMA_EXCLUDES(mutex_);

  /// Reject new submits, then wait for every accepted submit to finish.
  /// Idempotent and safe to call concurrently; called by the destructor.
  void shutdown() SMA_EXCLUDES(mutex_);

  ServeStats stats() const SMA_EXCLUDES(mutex_);

 private:
  /// Count an accepted submit's outcome and wake shutdown() when it was
  /// the last one in flight.
  void finish(long ServeStats::*outcome, bool forwarded)
      SMA_EXCLUDES(mutex_);

  attack::DlAttack* attack_;
  ServeConfig config_;

  mutable util::Mutex mutex_;
  util::CondVar idle_;  ///< signaled when the last in-flight submit ends
  bool closed_ SMA_GUARDED_BY(mutex_) = false;
  long in_flight_ SMA_GUARDED_BY(mutex_) = 0;
  ServeStats stats_ SMA_GUARDED_BY(mutex_);
};

}  // namespace sma::serve
