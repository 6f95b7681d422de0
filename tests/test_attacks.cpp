#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <thread>

#include "attack/dl_attack.hpp"
#include "attack/flow_attack.hpp"
#include "attack/proximity_attack.hpp"
#include "runtime/thread_pool.hpp"
#include "test_support.hpp"

namespace sma::attack {
namespace {

TEST(ComputeCcr, WeightsBySinkCount) {
  std::vector<Selection> selections(3);
  selections[0] = {0, 1, true, 3};
  selections[1] = {1, 2, false, 1};
  selections[2] = {2, 3, true, 1};
  EXPECT_DOUBLE_EQ(compute_ccr(selections), 4.0 / 5.0);
  EXPECT_DOUBLE_EQ(compute_ccr({}), 0.0);
}

class AttackTest : public ::testing::Test {
 protected:
  void SetUp() override { s_ = &test::shared_split(3, 400, 13); }
  const test::SmallSplit* s_ = nullptr;
};

TEST_F(AttackTest, ProximityAttackProducesSelections) {
  AttackResult result = run_proximity_attack(*s_->split);
  EXPECT_EQ(result.selections.size(), s_->split->sink_fragments().size());
  EXPECT_GE(result.ccr, 0.0);
  EXPECT_LE(result.ccr, 1.0);
  EXPECT_FALSE(result.timed_out);
  // Proximity must beat random guessing among the ~48 candidates (~2%)
  // by a wide margin.
  EXPECT_GT(result.ccr, 0.06);
}

TEST_F(AttackTest, FlowAttackRespectsCapacities) {
  AttackResult result = run_flow_attack(*s_->split);
  EXPECT_FALSE(result.timed_out);
  EXPECT_EQ(result.selections.size(), s_->split->sink_fragments().size());
  EXPECT_GT(result.ccr, 0.1);

  // No source fragment may be assigned more sinks than its capacity bound.
  FlowAttackConfig config;
  std::map<int, int> assignments;
  for (const Selection& sel : result.selections) {
    if (sel.chosen_source >= 0) ++assignments[sel.chosen_source];
  }
  for (const auto& [source, count] : assignments) {
    EXPECT_LE(count, config.max_slots);
  }
}

TEST_F(AttackTest, FlowAttackTimeoutPath) {
  FlowAttackConfig config;
  config.timeout_seconds = 1e-9;  // force immediate timeout
  AttackResult result = run_flow_attack(*s_->split, config);
  EXPECT_TRUE(result.timed_out);
  EXPECT_TRUE(std::isnan(result.ccr));
}

TEST_F(AttackTest, DlAttackVectorOnlyTrainsAndAttacks) {
  DatasetConfig dataset_config;
  dataset_config.candidates.max_candidates = 8;
  dataset_config.build_images = false;

  std::vector<QueryDataset> training;
  training.emplace_back(s_->split.get(), dataset_config);
  const test::SmallSplit& extra = test::shared_split(3, 400, 16);
  training.emplace_back(extra.split.get(), dataset_config);
  std::vector<QueryDataset> validation;

  nn::NetConfig net_config;
  net_config.hidden = 24;
  net_config.vector_res_blocks = 1;
  net_config.merged_res_blocks = 1;
  net_config.use_images = false;

  TrainConfig train_config;
  train_config.epochs = 6;
  train_config.max_queries_per_design = 200;

  DlAttack dl(net_config);
  TrainStats stats = dl.train(training, validation, train_config);
  EXPECT_EQ(stats.epoch_loss.size(), 6u);
  EXPECT_GT(stats.queries_seen, 0);
  // Loss should drop from the first epoch to the last.
  EXPECT_LT(stats.epoch_loss.back(), stats.epoch_loss.front());

  // Attack a fresh layout of the same character (self-attack sanity).
  const test::SmallSplit& victim = test::shared_split(3, 400, 14);
  QueryDataset victim_data(victim.split.get(), dataset_config);
  AttackResult result = dl.attack(victim_data);
  EXPECT_EQ(result.selections.size(), victim.split->sink_fragments().size());
  // Trained DL should comfortably beat random choice (1/8).
  EXPECT_GT(result.ccr, 0.16);
}

TEST_F(AttackTest, DlAttackBeatsUntrainedNet) {
  DatasetConfig dataset_config;
  dataset_config.candidates.max_candidates = 8;
  dataset_config.build_images = false;

  nn::NetConfig net_config;
  net_config.hidden = 24;
  net_config.vector_res_blocks = 1;
  net_config.merged_res_blocks = 1;
  net_config.use_images = false;

  const test::SmallSplit& victim = test::shared_split(3, 400, 14);

  // Untrained baseline.
  DlAttack untrained(net_config);
  QueryDataset victim_data1(victim.split.get(), dataset_config);
  double untrained_ccr = untrained.attack(victim_data1).ccr;

  // Trained.
  std::vector<QueryDataset> training;
  training.emplace_back(s_->split.get(), dataset_config);
  std::vector<QueryDataset> validation;
  TrainConfig train_config;
  train_config.epochs = 6;
  DlAttack trained(net_config);
  trained.train(training, validation, train_config);
  QueryDataset victim_data2(victim.split.get(), dataset_config);
  double trained_ccr = trained.attack(victim_data2).ccr;

  EXPECT_GT(trained_ccr, untrained_ccr);
}

TEST_F(AttackTest, TrainingWithValidationTracksCcr) {
  DatasetConfig dataset_config;
  dataset_config.candidates.max_candidates = 6;
  dataset_config.build_images = false;

  std::vector<QueryDataset> training;
  training.emplace_back(s_->split.get(), dataset_config);
  const test::SmallSplit& val = test::shared_split(3, 300, 15);
  std::vector<QueryDataset> validation;
  validation.emplace_back(val.split.get(), dataset_config);

  nn::NetConfig net_config;
  net_config.hidden = 16;
  net_config.vector_res_blocks = 1;
  net_config.merged_res_blocks = 1;
  net_config.use_images = false;

  TrainConfig train_config;
  train_config.epochs = 4;
  train_config.validate_every = 2;
  train_config.max_queries_per_design = 100;

  DlAttack dl(net_config);
  TrainStats stats = dl.train(training, validation, train_config);
  EXPECT_EQ(stats.validation_ccr.size(), 2u);
}

void expect_same_selections(const AttackResult& got,
                            const AttackResult& want) {
  ASSERT_EQ(got.selections.size(), want.selections.size());
  for (std::size_t i = 0; i < want.selections.size(); ++i) {
    EXPECT_EQ(got.selections[i].sink_fragment,
              want.selections[i].sink_fragment);
    EXPECT_EQ(got.selections[i].chosen_source,
              want.selections[i].chosen_source);
    EXPECT_EQ(got.selections[i].correct, want.selections[i].correct);
  }
  EXPECT_EQ(got.ccr, want.ccr);
}

// Two threads attack one image dataset built without a pool, at the same
// time, with and without a pool. The dataset is read-only once built and
// every attack() runs leased replicas, so the calls share nothing mutable
// (the TSan leg runs this) and both answers equal a serial attack().
TEST(DlAttack, ConcurrentAttacksShareOneDataset) {
  DatasetConfig dataset_config;
  dataset_config.candidates.max_candidates = 8;
  dataset_config.images.size = 9;
  dataset_config.images.pixel_sizes = {200, 400};
  const test::SmallSplit& split = test::shared_split(3, 400, 13);
  QueryDataset dataset(split.split.get(), dataset_config);

  nn::NetConfig net_config;
  net_config.hidden = 16;
  net_config.vector_res_blocks = 1;
  net_config.merged_res_blocks = 1;
  net_config.image_channels = 2;
  net_config.conv_channels = {4, 6, 8, 10};
  net_config.image_fc = 16;
  net_config.fc6_width = 8;
  DlAttack dl(net_config);

  runtime::ThreadPool pool(2);
  for (runtime::ThreadPool* p : {&pool, static_cast<runtime::ThreadPool*>(
                                            nullptr)}) {
    AttackResult results[2];
    std::thread a([&] { results[0] = dl.attack(dataset, p); });
    std::thread b([&] { results[1] = dl.attack(dataset, p); });
    a.join();
    b.join();
    const AttackResult serial = dl.attack(dataset);
    ASSERT_GT(serial.selections.size(), 0u);
    expect_same_selections(results[0], serial);
    expect_same_selections(results[1], serial);
  }
}

}  // namespace
}  // namespace sma::attack
