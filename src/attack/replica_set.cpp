#include "attack/replica_set.hpp"

#include <algorithm>
#include <chrono>
#include <string>

#include "obs/obs.hpp"

namespace sma::attack {

ReplicaLease::ReplicaLease(ReplicaSet* set, std::vector<nn::AttackNet*> nets,
                           std::vector<std::size_t> indices,
                           std::size_t lease_id)
    : set_(set),
      nets_(std::move(nets)),
      indices_(std::move(indices)),
      lease_id_(lease_id) {}

ReplicaLease::~ReplicaLease() { set_->release(indices_, lease_id_); }

std::size_t ReplicaSet::obtainable_locked() const {
  // Obtainable now = free pinned replicas + headroom to clone new ones.
  return (replicas_.size() - on_loan_now_) +
         (max_replicas_ > replicas_.size() ? max_replicas_ - replicas_.size()
                                           : 0);
}

ReplicaLease ReplicaSet::lease(std::size_t n, nn::AttackNet& master,
                               double timeout_seconds) {
  const double wait_start_us = obs::now_us();
  util::MutexLock lock(mutex_);
  if (max_replicas_ > 0) {
    if (n > max_replicas_) {
      throw std::invalid_argument(
          "ReplicaSet::lease: requested " + std::to_string(n) +
          " replicas from a set bounded to " + std::to_string(max_replicas_));
    }
    if (timeout_seconds < 0.0) {
      while (obtainable_locked() < n) available_.wait(lock);
    } else {
      // The deadline bounds only the wait below; wall-clock time never
      // feeds a model, table, or layout.
      const auto deadline =  // sma-lint: allow(entropy) cv deadline only
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(timeout_seconds));
      while (obtainable_locked() < n) {
        if (available_.wait_until(lock, deadline) ==
                std::cv_status::timeout &&
            obtainable_locked() < n) {
          ++stats_.timeouts;
          SMA_COUNT("replica.lease_timeouts");
          throw AcquireTimeoutError(
              "ReplicaSet::lease: timed out after " +
              std::to_string(timeout_seconds) + "s waiting for " +
              std::to_string(n) + " of " + std::to_string(max_replicas_) +
              " bounded replicas");
        }
      }
    }
  }
  // sma-lint: allow(fp-contract) diagnostic stat; never feeds an output
  stats_.wait_seconds += (obs::now_us() - wait_start_us) * 1e-6;
  std::vector<nn::AttackNet*> nets;
  std::vector<std::size_t> indices;
  nets.reserve(n);
  indices.reserve(n);
  for (std::size_t i = 0; i < replicas_.size() && nets.size() < n; ++i) {
    if (!on_loan_[i]) {
      on_loan_[i] = true;
      nets.push_back(&replicas_[i]);
      indices.push_back(i);
    }
  }
  while (nets.size() < n) {
    replicas_.push_back(master.clone_shared());
    on_loan_.push_back(true);
    ++clones_created_;
    SMA_COUNT("replica.clones_created");
    nets.push_back(&replicas_.back());
    indices.push_back(replicas_.size() - 1);
  }
  ++stats_.leases;
  stats_.replicas_leased += static_cast<long>(n);
  stats_.clones_created = clones_created_;
  on_loan_now_ += indices.size();
  stats_.max_on_loan = std::max(stats_.max_on_loan, on_loan_now_);
  // Record the lease in the live table (slot reuse via the free list) so
  // occupancy snapshots see it while it is on loan.
  std::size_t lease_id;
  if (!live_free_.empty()) {
    lease_id = live_free_.back();
    live_free_.pop_back();
  } else {
    lease_id = live_.size();
    live_.emplace_back();
  }
  live_[lease_id] = LiveLease{obs::now_us(), indices.size(), true};
  SMA_COUNT("replica.leases");
  SMA_COUNT_N("replica.replicas_leased", n);
  return ReplicaLease(this, std::move(nets), std::move(indices), lease_id);
}

void ReplicaSet::release(const std::vector<std::size_t>& indices,
                         std::size_t lease_id) {
  const double now_us = obs::now_us();
  double held_seconds = 0.0;
  {
    util::MutexLock lock(mutex_);
    held_seconds = (now_us - live_[lease_id].start_us) * 1e-6;
    live_[lease_id].active = false;
    live_free_.push_back(lease_id);
    for (std::size_t i : indices) on_loan_[i] = false;
    on_loan_now_ -= indices.size();
    stats_.occupancy_seconds +=
        held_seconds * static_cast<double>(indices.size());
  }
  SMA_HISTOGRAM("replica.lease_held_us",
                static_cast<std::uint64_t>(held_seconds * 1e6));
  available_.notify_all();
}

void ReplicaSet::set_max_replicas(std::size_t cap) {
  {
    util::MutexLock lock(mutex_);
    max_replicas_ = cap;
  }
  // A raised (or removed) bound may unblock waiters.
  available_.notify_all();
}

std::size_t ReplicaSet::max_replicas() const {
  util::MutexLock lock(mutex_);
  return max_replicas_;
}

long ReplicaSet::clones_created() const {
  util::MutexLock lock(mutex_);
  return clones_created_;
}

ReplicaSet::LeaseStats ReplicaSet::lease_stats() const {
  const double now_us = obs::now_us();
  util::MutexLock lock(mutex_);
  LeaseStats out = stats_;
  // Add the occupancy still-live leases have accrued so far (their
  // remainder lands in stats_ at release). max_on_loan is already
  // live-updated at lease time.
  for (const LiveLease& lease : live_) {
    if (!lease.active) continue;
    // sma-lint: allow(fp-contract) diagnostic stat; never feeds an output
    out.occupancy_seconds += (now_us - lease.start_us) * 1e-6 *
                             static_cast<double>(lease.replicas);
  }
  return out;
}

nn::ArenaStats ReplicaSet::arena_stats() const {
  util::MutexLock lock(mutex_);
  nn::ArenaStats total;
  for (const nn::AttackNet& replica : replicas_) {
    const nn::ArenaStats s = replica.arena().stats();
    total.bytes_pinned += s.bytes_pinned;
    total.slots += s.slots;
    total.allocs += s.allocs;
    total.requests += s.requests;
  }
  return total;
}

}  // namespace sma::attack
