#include "attack/dataset.hpp"

#include <algorithm>
#include <cstring>

#include "obs/obs.hpp"
#include "runtime/parallel.hpp"

namespace sma::attack {

QueryDataset::QueryDataset(const split::SplitDesign* split,
                           const DatasetConfig& config)
    : split_(split), config_(config) {
  SMA_TRACE_SPAN("dataset", "build");
  SMA_COUNT("dataset.builds");
  queries_ = split::build_queries(*split_, config_.candidates);
  vector_features_.resize(queries_.size());
  runtime::parallel_for(
      config_.pool, 0, queries_.size(), /*grain=*/8, [this](std::size_t i) {
        vector_features_[i].reserve(queries_[i].candidates.size());
        for (const split::Vpp& vpp : queries_[i].candidates) {
          vector_features_[i].push_back(
              features::compute_vector_features(*split_, vpp));
        }
      });
  if (config_.build_images) {
    renderer_ =
        std::make_unique<features::ImageRenderer>(split_, config_.images);
    if (config_.pool != nullptr) prebuild_images(config_.pool);
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

void QueryDataset::prebuild_images(runtime::ThreadPool* pool) {
  if (!config_.build_images || renderer_ == nullptr) return;
  if (pool == nullptr) pool = config_.pool;

  std::vector<int> pins = referenced_pins();
  std::erase_if(pins, [this](int pin) { return image_cache_.count(pin) > 0; });
  if (pins.empty()) return;
  SMA_TRACE_SPAN_V("dataset", "render_images", pins.size());
  SMA_COUNT_N("dataset.images_rendered", pins.size());

  // Rendering is pure per pin; the cache fill stays on this thread.
  std::vector<std::vector<float>> images = runtime::parallel_map(
      pool, pins.size(), /*grain=*/1,
      [this, &pins](std::size_t i) { return renderer_->render(pins[i]); });
  for (std::size_t i = 0; i < pins.size(); ++i) {
    image_cache_.emplace(pins[i], std::move(images[i]));
  }
}

const std::vector<float>& QueryDataset::image_of(int virtual_pin) {
  auto it = image_cache_.find(virtual_pin);
  if (it == image_cache_.end()) {
    it = image_cache_.emplace(virtual_pin, renderer_->render(virtual_pin))
             .first;
  }
  return it->second;
}

nn::QueryInput QueryDataset::input(std::size_t i) {
  nn::QueryInput input;
  input_into(i, input);
  return input;
}

void QueryDataset::input_into(std::size_t i, nn::QueryInput& out) {
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

  if (!config_.build_images || renderer_ == nullptr || n == 0) {
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
