// Fused training-step engine.
//
// Training reduces the gradients of one or more lanes into the master
// parameters and then takes one Adam step. `TrainStep` does both in ONE
// `parallel_for` pass: for each parameter it (1) adds the active lanes'
// gradients onto the master gradient in ascending lane order, zeroing
// each lane gradient, and (2) applies the Adam update via
// `Adam::update_param` — so each parameter's state is touched exactly
// once per step while it is hot in cache.
//
// Lanes share the master's weight tensors (AttackNet::clone_shared): the
// Adam update lands directly in the storage every lane reads, so no
// weight copy ever flows back to the lanes, and the per-lane working set
// is gradients and activations only.
//
// Determinism: parameters are independent, and within one parameter the
// pass performs a fixed sequence of float operations (fixed lane order,
// ascending j, the unmodified Adam arithmetic), so the trained model is
// byte-identical at any thread count — the determinism contract that
// tests/test_train_step.cpp anchors with golden digests. Gradients
// arrive here as parameter tensors (always row-major), so the conv
// trunk's channel-major activations never reach this engine.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/layers.hpp"
#include "nn/optimizer.hpp"
#include "runtime/thread_pool.hpp"

namespace sma::nn {

class TrainStep {
 public:
  /// `master` holds the authoritative weights and the reduction target
  /// gradients; `config` the Adam schedule.
  TrainStep(std::vector<Param> master, const AdamConfig& config);

  /// Attach per-lane parameter views of shared-weight replicas; `lanes[l]`
  /// must be index-aligned with the master params. Only the lanes'
  /// gradients are read (and zeroed) by `step`.
  void attach_lanes(std::vector<std::vector<Param>> lanes);

  /// One fused reduce + Adam pass over all parameters, using the
  /// gradients of the first `active_lanes` lanes (a trailing partial
  /// batch activates fewer lanes than are attached). With zero active
  /// lanes this is exactly `Adam::step` on the master gradients. A
  /// negative `active_lanes`, or more than are attached, is a caller bug
  /// and throws std::invalid_argument.
  void step(int active_lanes, runtime::ThreadPool* pool);

  void decay_lr() { adam_.decay_lr(); }
  double learning_rate() const { return adam_.learning_rate(); }

  /// The underlying optimizer (checkpoints serialize its state).
  Adam& optimizer() { return adam_; }

 private:
  std::vector<Param> master_;
  Adam adam_;
  std::vector<std::vector<Param>> lanes_;
};

}  // namespace sma::nn
