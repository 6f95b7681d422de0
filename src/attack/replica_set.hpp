// Pinned inference replicas, shared by attack() calls and the
// serving loop (src/serve/).
//
// Before this existed, every pooled `DlAttack::attack()` call cloned a
// fresh network replica per worker — a full weight copy plus a full
// random re-initialization, repeated for every validation pass and every
// victim design. A `ReplicaSet` instead pins replicas for the lifetime of
// the attack object: each replica is an `AttackNet::clone_shared()` that
// *reads the master's weight tensors* (one weight copy total, zero
// synchronization — a master weight update is immediately visible to all
// replicas) while keeping private activation caches, so concurrent
// workers never race.
//
// Concurrency model: replicas are handed out through exclusive leases.
// Sequential `attack()` calls reuse the same pinned replicas; concurrent
// calls (e.g. parallel per-design evaluation) lease disjoint ones, and
// the set only grows when every pinned replica is already on loan. Each
// ServeLoop submit leases one replica, so a bound (`set_max_replicas`)
// caps how many submits run a forward at once.
// Determinism is untouched: shared weights make all replicas numerically
// identical, and outputs land in index-addressed slots, so *which*
// replica serves a chunk never matters.
#pragma once

#include <cstddef>
#include <deque>
#include <stdexcept>
#include <vector>

#include "nn/arena.hpp"
#include "nn/attack_net.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace sma::attack {

/// A bounded `ReplicaSet::lease` gave up waiting for free replicas before
/// its deadline. Typed so callers can tell "the serving tier is saturated"
/// apart from every other runtime_error and shed load deliberately.
class AcquireTimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ReplicaSet;

/// Exclusive use of `nets` until destruction (returns them to the set).
class ReplicaLease {
 public:
  ReplicaLease(ReplicaSet* set, std::vector<nn::AttackNet*> nets,
               std::vector<std::size_t> indices, std::size_t lease_id);
  ~ReplicaLease();
  ReplicaLease(const ReplicaLease&) = delete;
  ReplicaLease& operator=(const ReplicaLease&) = delete;

  const std::vector<nn::AttackNet*>& nets() const { return nets_; }

 private:
  ReplicaSet* set_;
  std::vector<nn::AttackNet*> nets_;
  std::vector<std::size_t> indices_;
  /// Slot in the set's live-lease table (birth time + replica count live
  /// there, so occupancy snapshots can see leases still in flight).
  std::size_t lease_id_ = 0;
};

class ReplicaSet {
 public:
  /// Lease-lifecycle accounting for the run report: how often replicas
  /// were leased, how long callers waited to acquire the set (mutex
  /// contention between concurrent attack() calls), and the summed
  /// lease lifetimes (occupancy — replica-seconds on loan).
  struct LeaseStats {
    long leases = 0;            ///< lease() calls completed
    long replicas_leased = 0;   ///< replicas handed out, summed over leases
    long clones_created = 0;    ///< replicas ever constructed
    std::size_t max_on_loan = 0;  ///< peak concurrently leased replicas
    double wait_seconds = 0.0;    ///< summed time to acquire the set
    /// Summed replica-seconds on loan. Includes leases still live at the
    /// snapshot (their occupancy so far), so a serving loop's mid-flight
    /// numbers are honest rather than lagging one lease behind.
    double occupancy_seconds = 0.0;
    long timeouts = 0;            ///< lease() deadlines missed (bounded sets)
  };

  /// Lease `n` replicas of `master` for exclusive use. Grows the set (via
  /// `master.clone_shared()`) only when fewer than `n` replicas are free;
  /// the master is passed per call rather than stored so the owning
  /// object stays movable (pinned replicas reference the master's layer
  /// objects, which live behind stable heap storage).
  ///
  /// With a replica bound (`set_max_replicas`) the call BLOCKS while the
  /// bound leaves fewer than `n` replicas obtainable, until concurrent
  /// leases release. `timeout_seconds` caps that wait: < 0 waits
  /// indefinitely (the default), >= 0 throws AcquireTimeoutError once the
  /// deadline passes without acquisition (counted in
  /// LeaseStats::timeouts). Requesting `n` larger than the bound can
  /// never succeed and throws std::invalid_argument immediately.
  /// Unbounded sets (the default) never block and never time out.
  ReplicaLease lease(std::size_t n, nn::AttackNet& master,
                     double timeout_seconds = -1.0) SMA_EXCLUDES(mutex_);

  /// Bound the set to `cap` pinned replicas (0 = unbounded, the default).
  /// Bounds memory on wide machines: each pinned replica carries private
  /// activation arenas even though weights are shared. Shrinking below
  /// the current size keeps existing replicas but stops growth.
  void set_max_replicas(std::size_t cap) SMA_EXCLUDES(mutex_);
  std::size_t max_replicas() const SMA_EXCLUDES(mutex_);

  /// Replicas ever created — a monotone counter tests use to prove that
  /// repeated attack() calls reuse pinned replicas instead of cloning.
  long clones_created() const SMA_EXCLUDES(mutex_);

  /// Lease-lifecycle stats since construction (see LeaseStats). Safe to
  /// read while leases are live: `occupancy_seconds` and `max_on_loan`
  /// both reflect in-flight leases as of the snapshot.
  LeaseStats lease_stats() const SMA_EXCLUDES(mutex_);

  /// Aggregate activation-arena stats over every pinned replica. Each
  /// replica owns one arena for its lifetime, sized by the largest share
  /// of work it has been leased for, so warmth is per pool width:
  /// repeated attack() calls at an already-run width over already-seen
  /// query shapes leave `allocs` unchanged — the serving-side half of the
  /// alloc-free steady-state contract — while a first call at another
  /// width may grow a replica (serial after pooled grows replica 0). Arenas
  /// are single-owner: call this between attack() calls, not while a
  /// lease is live (a working replica mutates its arena unsynchronized).
  nn::ArenaStats arena_stats() const SMA_EXCLUDES(mutex_);

 private:
  friend class ReplicaLease;
  void release(const std::vector<std::size_t>& indices, std::size_t lease_id)
      SMA_EXCLUDES(mutex_);

  /// Free pinned replicas plus headroom to clone under the bound.
  std::size_t obtainable_locked() const SMA_REQUIRES(mutex_);

  /// One in-flight lease: birth time and replica count, kept in the set
  /// (not the lease object) so stat snapshots can account for it while
  /// it is still on loan.
  struct LiveLease {
    double start_us = 0.0;
    std::size_t replicas = 0;
    bool active = false;
  };

  mutable util::Mutex mutex_;
  util::CondVar available_;  ///< signaled on every release
  /// Deque: growth keeps addresses stable for live leases.
  std::deque<nn::AttackNet> replicas_ SMA_GUARDED_BY(mutex_);
  std::vector<bool> on_loan_ SMA_GUARDED_BY(mutex_);
  long clones_created_ SMA_GUARDED_BY(mutex_) = 0;
  LeaseStats stats_ SMA_GUARDED_BY(mutex_);
  std::size_t on_loan_now_ SMA_GUARDED_BY(mutex_) = 0;
  std::size_t max_replicas_ SMA_GUARDED_BY(mutex_) = 0;  ///< 0 = unbounded
  /// Live-lease table, slot-addressed by ReplicaLease::lease_id_ with a
  /// free list for reuse (bounded by peak lease concurrency).
  std::vector<LiveLease> live_ SMA_GUARDED_BY(mutex_);
  std::vector<std::size_t> live_free_ SMA_GUARDED_BY(mutex_);
};

}  // namespace sma::attack
