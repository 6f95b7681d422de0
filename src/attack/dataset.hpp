// Query dataset: per-sink-fragment candidate lists materialized as neural
// network inputs, with cached virtual-pin images.
//
// One dataset wraps one split design. Construction computes every
// candidate's vector features and renders the image of every virtual pin
// some query references, once per pin (the same pin appears in many
// queries) — in parallel when the config carries a pool. After
// construction the dataset is immutable, so any number of attack,
// training and serving threads may assemble inputs from it concurrently.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "features/image_features.hpp"
#include "features/vector_features.hpp"
#include "nn/attack_net.hpp"
#include "runtime/thread_pool.hpp"
#include "split/candidates.hpp"

namespace sma::attack {

struct DatasetConfig {
  split::CandidateConfig candidates;
  features::ImageConfig images;
  /// Skip all image work (vector-only attacks / ablation).
  bool build_images = true;
  /// Non-owning pool for feature extraction and image rendering during
  /// construction only; null = serial. The dataset keeps no reference to
  /// it once constructed.
  runtime::ThreadPool* pool = nullptr;
};

class QueryDataset {
 public:
  QueryDataset(const split::SplitDesign* split, const DatasetConfig& config);

  const split::SplitDesign& split() const { return *split_; }

  std::size_t num_queries() const { return queries_.size(); }
  const split::SinkQuery& query(std::size_t i) const { return queries_.at(i); }

  /// Index of the positive candidate (-1 if not in the list).
  int target(std::size_t i) const { return queries_.at(i).positive_index; }
  int num_sinks(std::size_t i) const { return queries_.at(i).num_sinks; }

  /// Assemble the network input for query `i`.
  nn::QueryInput input(std::size_t i) const;

  /// Like `input`, but reuses `out`'s tensors in place
  /// (`Tensor::resize_reuse`: grow-only capacity, every element fully
  /// overwritten) — a training loop or inference worker that holds one
  /// QueryInput across queries assembles inputs without any per-query
  /// heap allocation once its buffers have seen the largest query.
  void input_into(std::size_t i, nn::QueryInput& out) const;

  /// Weighted fraction of queries whose candidate list holds the truth.
  double candidate_hit_rate() const {
    return split::candidate_hit_rate(queries_);
  }

  /// Image cache entries: the distinct virtual pins some query references
  /// (for tests/diagnostics).
  std::size_t cached_images() const { return image_cache_.size(); }

 private:
  const std::vector<float>& image_of(int virtual_pin) const {
    return image_cache_.at(virtual_pin);
  }
  /// All virtual pins whose image some query needs, deduplicated, in a
  /// deterministic order.
  std::vector<int> referenced_pins() const;

  const split::SplitDesign* split_;
  std::vector<split::SinkQuery> queries_;
  std::vector<std::vector<features::VectorFeatures>> vector_features_;
  std::unique_ptr<features::ImageRenderer> renderer_;
  std::unordered_map<int, std::vector<float>> image_cache_;
};

}  // namespace sma::attack
