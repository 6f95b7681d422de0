// Query dataset: per-sink-fragment candidate lists materialized as neural
// network inputs, with one rendered image per virtual pin.
//
// One dataset wraps one split design. Construction computes every
// candidate's vector features and renders the image of every virtual pin
// some query references, once per pin (the same pin appears in many
// queries) — in parallel when the config carries a pool. The images live
// in one dense [pins, channels, size, size] buffer in pin-row order, and
// each query keeps the pin rows of its n sources and its sink, so
// assembling a query's input and looking up its rows of a per-pin
// embedding table (DlAttack::attack) share one pin index. After
// construction the dataset is immutable, so any number of attack,
// training and serving threads may read it concurrently.
#pragma once

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

  /// Just the vector features of query `i` ([n, vector_dim]), reusing
  /// `out` in place like `input_into`.
  void vectors_into(std::size_t i, nn::Tensor& out) const;

  /// Weighted fraction of queries whose candidate list holds the truth.
  double candidate_hit_rate() const {
    return split::candidate_hit_rate(queries_);
  }

  /// Distinct virtual pins some query references: the pin rows.
  std::size_t num_pins() const { return num_pins_; }

  /// Image channels per pin; 0 when the dataset was built without images.
  int image_channels() const { return image_channels_; }

  /// Pin rows of query `i`: its n candidates' source pins, then its sink
  /// pin — the order of QueryInput::images. Empty for a query without
  /// candidates.
  const int* pin_rows(std::size_t i) const {
    return pin_rows_.data() + row_offsets_.at(i);
  }

  /// Copy the images of pin rows [first, first + count) into `out` as
  /// [count, channels, size, size], reusing its storage in place. Image
  /// datasets only.
  void pin_images_into(std::size_t first, std::size_t count,
                       nn::Tensor& out) const;

 private:
  std::size_t pixels_per_pin() const {
    return static_cast<std::size_t>(image_channels_) * image_size_ *
           image_size_;
  }

  const split::SplitDesign* split_;
  std::vector<split::SinkQuery> queries_;
  std::vector<std::vector<features::VectorFeatures>> vector_features_;
  std::size_t num_pins_ = 0;
  /// Every query's pin rows back to back; query i's start at
  /// row_offsets_[i].
  std::vector<int> pin_rows_;
  std::vector<std::size_t> row_offsets_;
  int image_channels_ = 0;
  int image_size_ = 0;
  /// [num_pins_, image_channels_, image_size_, image_size_], row order.
  std::vector<float> pin_images_;
};

}  // namespace sma::attack
