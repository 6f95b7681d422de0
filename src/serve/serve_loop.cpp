#include "serve/serve_loop.hpp"

#include <stdexcept>

#include "attack/replica_set.hpp"
#include "obs/obs.hpp"

namespace sma::serve {

ServeLoop::ServeLoop(attack::DlAttack& attack, ServeConfig config)
    : attack_(&attack), config_(config) {}

ServeLoop::~ServeLoop() { shutdown(); }

void ServeLoop::shutdown() {
  util::MutexLock lock(mutex_);
  closed_ = true;
  while (in_flight_ > 0) idle_.wait(lock);
}

ServeStats ServeLoop::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

void ServeLoop::finish(long ServeStats::*outcome, bool forwarded) {
  bool idle = false;
  {
    util::MutexLock lock(mutex_);
    ++(stats_.*outcome);
    if (forwarded) ++stats_.batches;
    --in_flight_;
    idle = closed_ && in_flight_ == 0;
  }
  if (idle) idle_.notify_all();
}

attack::Selection ServeLoop::submit(const attack::QueryDataset& dataset,
                                    std::size_t query) {
  {
    util::MutexLock lock(mutex_);
    if (closed_) {
      throw std::runtime_error("ServeLoop::submit after shutdown");
    }
    ++stats_.submitted;
    ++in_flight_;
  }
  // Grow-only assembly buffer per calling thread: a client's steady-state
  // submits assemble their input without heap traffic.
  thread_local nn::QueryInput input;
  bool forwarded = false;
  try {
    if (dataset.query(query).candidates.empty()) {
      // select_one answers these without touching the net: no lease.
      const attack::Selection out =
          attack::select_one(attack_->net(), dataset, query, input);
      finish(&ServeStats::empty, false);
      return out;
    }
    attack::Selection out;
    {
      SMA_TRACE_SPAN("serve", "submit");
      attack::ReplicaLease lease = attack_->replicas().lease(
          1, attack_->net(), config_.lease_timeout_seconds);
      forwarded = true;
      out = attack::select_one(*lease.nets()[0], dataset, query, input);
    }  // the replica goes back before shutdown() can see this submit end
    finish(&ServeStats::answered, true);
    return out;
  } catch (...) {
    finish(&ServeStats::failed, forwarded);
    throw;
  }
}

}  // namespace sma::serve
