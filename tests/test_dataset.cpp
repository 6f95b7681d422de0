#include "attack/dataset.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "obs/metrics.hpp"

#include "test_support.hpp"

namespace sma::attack {
namespace {

DatasetConfig small_config(bool images = true) {
  DatasetConfig config;
  config.candidates.max_candidates = 8;
  config.images.size = 15;
  config.images.pixel_sizes = {100, 200};
  config.build_images = images;
  return config;
}

class DatasetTest : public ::testing::Test {
 protected:
  void SetUp() override { s_ = &test::shared_split(3, 400, 7); }
  const test::SmallSplit* s_ = nullptr;
};

TEST_F(DatasetTest, InputShapes) {
  QueryDataset dataset(s_->split.get(), small_config());
  ASSERT_GT(dataset.num_queries(), 0u);
  for (std::size_t i = 0; i < std::min<std::size_t>(5, dataset.num_queries());
       ++i) {
    const int n = static_cast<int>(dataset.query(i).candidates.size());
    if (n == 0) continue;
    nn::QueryInput input = dataset.input(i);
    EXPECT_EQ(input.vec.shape(),
              (std::vector<int>{n, features::kNumVectorFeatures}));
    EXPECT_EQ(input.images.shape(), (std::vector<int>{n + 1, 2, 15, 15}));
  }
}

TEST_F(DatasetTest, VectorOnlyLeavesImagesEmpty) {
  QueryDataset dataset(s_->split.get(), small_config(false));
  nn::QueryInput input = dataset.input(0);
  EXPECT_TRUE(input.images.empty());
  EXPECT_FALSE(input.vec.empty());
}

TEST_F(DatasetTest, ImageCachingSharesVirtualPins) {
  QueryDataset dataset(s_->split.get(), small_config());
  // Construction renders one image per distinct referenced virtual pin.
  std::set<int> pins;
  std::size_t total_images = 0;
  for (std::size_t i = 0; i < dataset.num_queries(); ++i) {
    const split::SinkQuery& query = dataset.query(i);
    if (query.candidates.empty()) continue;
    total_images += query.candidates.size() + 1;
    for (const split::Vpp& vpp : query.candidates) pins.insert(vpp.source_vp);
    pins.insert(s_->split->fragment(query.sink_fragment).virtual_pins.front());
  }
  EXPECT_EQ(dataset.num_pins(), pins.size());
  // Fewer pin rows than image slots (pins are shared).
  EXPECT_LT(dataset.num_pins(), total_images);
  EXPECT_GT(dataset.num_pins(), 0u);

  // Assembling every input afterwards renders nothing.
  obs::Counter& rendered =
      obs::Registry::global().counter("dataset.images_rendered");
  const std::uint64_t rendered_before = rendered.value();
  for (std::size_t i = 0; i < dataset.num_queries(); ++i) dataset.input(i);
  EXPECT_EQ(rendered.value(), rendered_before);
  EXPECT_EQ(dataset.num_pins(), pins.size());
}

// The dense pin-image buffer and the per-query pin rows reproduce the
// renderer's image of each slot's own pin: sources in candidate order,
// then the sink fragment's first virtual pin.
TEST_F(DatasetTest, PinRowsAddressEachSlotsOwnImage) {
  const DatasetConfig config = small_config();
  QueryDataset dataset(s_->split.get(), config);
  const features::ImageRenderer renderer(s_->split.get(), config.images);
  const std::size_t per_image = config.images.pixels_per_image();
  nn::Tensor batch;
  for (std::size_t i = 0; i < dataset.num_queries(); ++i) {
    const split::SinkQuery& query = dataset.query(i);
    if (query.candidates.empty()) continue;
    const nn::QueryInput input = dataset.input(i);
    const int* rows = dataset.pin_rows(i);
    const std::size_t n = query.candidates.size();
    for (std::size_t j = 0; j <= n; ++j) {
      const int pin =
          j < n ? query.candidates[j].source_vp
                : s_->split->fragment(query.sink_fragment).virtual_pins.front();
      const std::vector<float> want = renderer.render(pin);
      ASSERT_EQ(std::memcmp(input.images.data() + j * per_image, want.data(),
                            per_image * sizeof(float)),
                0)
          << "query " << i << " slot " << j;
      dataset.pin_images_into(static_cast<std::size_t>(rows[j]), 1, batch);
      ASSERT_EQ(std::memcmp(batch.data(), want.data(),
                            per_image * sizeof(float)),
                0)
          << "query " << i << " row " << rows[j];
    }
  }
}

TEST_F(DatasetTest, TargetsMatchQueries) {
  QueryDataset dataset(s_->split.get(), small_config());
  for (std::size_t i = 0; i < dataset.num_queries(); ++i) {
    const split::SinkQuery& q = dataset.query(i);
    EXPECT_EQ(dataset.target(i), q.positive_index);
    EXPECT_EQ(dataset.num_sinks(i), q.num_sinks);
    if (q.positive_index >= 0) {
      EXPECT_LT(q.positive_index, static_cast<int>(q.candidates.size()));
    }
  }
}

TEST_F(DatasetTest, HitRateMatchesSplitHelper) {
  QueryDataset dataset(s_->split.get(), small_config());
  EXPECT_GT(dataset.candidate_hit_rate(), 0.0);
  EXPECT_LE(dataset.candidate_hit_rate(), 1.0);
}

}  // namespace
}  // namespace sma::attack
