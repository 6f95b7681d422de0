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
  if (config.build_images) {
    renderer_ =
        std::make_unique<features::ImageRenderer>(split_, config.images);
    // One image per distinct referenced pin. Rendering is pure per pin;
    // the cache fill stays on this thread.
    const std::vector<int> pins = referenced_pins();
    SMA_TRACE_SPAN_V("dataset", "render_images", pins.size());
    SMA_COUNT_N("dataset.images_rendered", pins.size());
    std::vector<std::vector<float>> images = runtime::parallel_map(
        config.pool, pins.size(), /*grain=*/1,
        [this, &pins](std::size_t i) { return renderer_->render(pins[i]); });
    for (std::size_t i = 0; i < pins.size(); ++i) {
      image_cache_.emplace(pins[i], std::move(images[i]));
    }
  }
}

std::vector<int> QueryDataset::referenced_pins() const {
  std::vector<int> pins;
  for (const split::SinkQuery& query : queries_) {
    for (const split::Vpp& vpp : query.candidates) {
      pins.push_back(vpp.source_vp);
    }
    if (!query.candidates.empty()) {
      const split::Fragment& sink = split_->fragment(query.sink_fragment);
      pins.push_back(sink.virtual_pins.front());
    }
  }
  std::sort(pins.begin(), pins.end());
  pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
  return pins;
}

nn::QueryInput QueryDataset::input(std::size_t i) const {
  nn::QueryInput input;
  input_into(i, input);
  return input;
}

void QueryDataset::input_into(std::size_t i, nn::QueryInput& out) const {
  const split::SinkQuery& query = queries_.at(i);
  const int n = static_cast<int>(query.candidates.size());

  // Both tensors are fully overwritten below (one memcpy per row/plane
  // covers every element), so plain resize_reuse needs no zeroing and a
  // reused QueryInput assembles without touching the heap once warm.
  out.vec.resize_reuse({n, features::kNumVectorFeatures});
  for (int j = 0; j < n; ++j) {
    std::memcpy(out.vec.data() + static_cast<std::size_t>(j) *
                                     features::kNumVectorFeatures,
                vector_features_[i][j].data(),
                sizeof(float) * features::kNumVectorFeatures);
  }

  if (renderer_ == nullptr || n == 0) {
    out.images = nn::Tensor();
    return;
  }
  const features::ImageConfig& img = renderer_->config();
  out.images.resize_reuse({n + 1, img.channels(), img.size, img.size});
  const std::size_t per_image = img.pixels_per_image();
  for (int j = 0; j < n; ++j) {
    const auto& source_image = image_of(query.candidates[j].source_vp);
    std::memcpy(out.images.data() + static_cast<std::size_t>(j) * per_image,
                source_image.data(), sizeof(float) * per_image);
  }
  // Sink image: the sink fragment's first virtual pin represents it.
  const split::Fragment& sink = split_->fragment(query.sink_fragment);
  const auto& sink_image = image_of(sink.virtual_pins.front());
  std::memcpy(out.images.data() + static_cast<std::size_t>(n) * per_image,
              sink_image.data(), sizeof(float) * per_image);
}

}  // namespace sma::attack
