#include "attack/dataset.hpp"

#include <algorithm>
#include <cstring>

#include "obs/obs.hpp"
#include "runtime/parallel.hpp"

namespace sma::attack {

QueryDataset::QueryDataset(const split::SplitDesign* split,
                           const DatasetConfig& config)
    : split_(split) {
  SMA_TRACE_SPAN("dataset", "build");
  SMA_COUNT("dataset.builds");
  queries_ = split::build_queries(*split_, config.candidates);
  vector_features_.resize(queries_.size());
  runtime::parallel_for(
      config.pool, 0, queries_.size(), /*grain=*/8, [this](std::size_t i) {
        vector_features_[i].reserve(queries_[i].candidates.size());
        for (const split::Vpp& vpp : queries_[i].candidates) {
          vector_features_[i].push_back(
              features::compute_vector_features(*split_, vpp));
        }
      });
  // Every query's image slots back to back: its candidates' source pins,
  // then the pin representing its sink fragment (the fragment's first).
  row_offsets_.reserve(queries_.size());
  for (const split::SinkQuery& query : queries_) {
    row_offsets_.push_back(pin_rows_.size());
    if (query.candidates.empty()) continue;
    for (const split::Vpp& vpp : query.candidates) {
      pin_rows_.push_back(vpp.source_vp);
    }
    pin_rows_.push_back(
        split_->fragment(query.sink_fragment).virtual_pins.front());
  }
  // The distinct pins in sorted order are the pin rows, so row order
  // depends on the split alone; each slot then holds its pin's row.
  std::vector<int> pins = pin_rows_;
  std::sort(pins.begin(), pins.end());
  pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
  num_pins_ = pins.size();
  for (int& slot : pin_rows_) {
    slot = static_cast<int>(
        std::lower_bound(pins.begin(), pins.end(), slot) - pins.begin());
  }

  if (config.build_images) {
    // One image per pin row. Rendering is pure per pin, and each task
    // writes only its own row of the dense buffer.
    const features::ImageRenderer renderer(split_, config.images);
    image_channels_ = config.images.channels();
    image_size_ = config.images.size;
    const std::size_t per_image = pixels_per_pin();
    pin_images_.resize(pins.size() * per_image);
    SMA_TRACE_SPAN_V("dataset", "render_images", pins.size());
    SMA_COUNT_N("dataset.images_rendered", pins.size());
    runtime::parallel_for(
        config.pool, 0, pins.size(), /*grain=*/1,
        [this, &renderer, &pins, per_image](std::size_t r) {
          const std::vector<float> image = renderer.render(pins[r]);
          std::memcpy(pin_images_.data() + r * per_image, image.data(),
                      sizeof(float) * per_image);
        });
  }
}

nn::QueryInput QueryDataset::input(std::size_t i) const {
  nn::QueryInput input;
  input_into(i, input);
  return input;
}

void QueryDataset::vectors_into(std::size_t i, nn::Tensor& out) const {
  const int n = static_cast<int>(queries_.at(i).candidates.size());
  // Fully overwritten below (one memcpy per row covers every element), so
  // plain resize_reuse needs no zeroing and a reused tensor assembles
  // without touching the heap once warm.
  out.resize_reuse({n, features::kNumVectorFeatures});
  for (int j = 0; j < n; ++j) {
    std::memcpy(out.data() + static_cast<std::size_t>(j) *
                                 features::kNumVectorFeatures,
                vector_features_[i][j].data(),
                sizeof(float) * features::kNumVectorFeatures);
  }
}

void QueryDataset::input_into(std::size_t i, nn::QueryInput& out) const {
  vectors_into(i, out.vec);
  const std::size_t n = queries_.at(i).candidates.size();
  if (image_channels_ == 0 || n == 0) {
    out.images = nn::Tensor();
    return;
  }
  // n source images, then the sink image; every plane fully overwritten.
  out.images.resize_reuse({static_cast<int>(n) + 1, image_channels_,
                           image_size_, image_size_});
  const std::size_t per_image = pixels_per_pin();
  const int* rows = pin_rows(i);
  for (std::size_t j = 0; j <= n; ++j) {
    std::memcpy(out.images.data() + j * per_image,
                pin_images_.data() + static_cast<std::size_t>(rows[j]) *
                                         per_image,
                sizeof(float) * per_image);
  }
}

void QueryDataset::pin_images_into(std::size_t first, std::size_t count,
                                   nn::Tensor& out) const {
  out.resize_reuse({static_cast<int>(count), image_channels_, image_size_,
                    image_size_});
  const std::size_t per_image = pixels_per_pin();
  std::memcpy(out.data(), pin_images_.data() + first * per_image,
              sizeof(float) * count * per_image);
}

}  // namespace sma::attack
