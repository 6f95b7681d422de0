#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <thread>

#include "attack/dl_attack.hpp"
#include "attack/flow_attack.hpp"
#include "attack/proximity_attack.hpp"
#include "runtime/thread_pool.hpp"
#include "test_support.hpp"
#include "util/hash.hpp"

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

/// A tiny image profile: 9x9 two-channel pin images, 8 candidates.
DatasetConfig tiny_image_dataset_config() {
  DatasetConfig config;
  config.candidates.max_candidates = 8;
  config.images.size = 9;
  config.images.pixel_sizes = {200, 400};
  return config;
}

/// The full topology at toy widths; its image channels match
/// tiny_image_dataset_config().
nn::NetConfig tiny_image_net_config() {
  nn::NetConfig config;
  config.hidden = 16;
  config.vector_res_blocks = 1;
  config.merged_res_blocks = 1;
  config.image_channels = 2;
  config.conv_channels = {4, 6, 8, 10};
  config.image_fc = 16;
  config.fc6_width = 8;
  return config;
}

/// Digest of every Selection field and the CCR of one attack() result.
std::uint64_t attack_digest(const AttackResult& result) {
  util::ContentHash hash;
  hash.add(static_cast<std::uint64_t>(result.selections.size()));
  for (const Selection& s : result.selections) {
    hash.add(s.sink_fragment).add(s.chosen_source).add(s.correct).add(
        s.num_sinks);
  }
  return hash.add(result.ccr).digest();
}

// Absolute anchor for inference: the digest of a trained tiny image net's
// attack() on a held-out victim, recorded once, serial and on 4 threads.
// Any change to how attack() scores candidates that moves a single
// selection (or the CCR by one bit) fails here. Changing the golden
// requires a CHANGES.md justification.
TEST(DlAttack, GoldenAttackSelections) {
  const test::SmallSplit& train_split = test::shared_split(3, 400, 13);
  const test::SmallSplit& victim_split = test::shared_split(3, 400, 14);
  std::vector<QueryDataset> training;
  training.emplace_back(train_split.split.get(), tiny_image_dataset_config());
  std::vector<QueryDataset> validation;
  TrainConfig train_config;
  train_config.epochs = 2;
  train_config.max_queries_per_design = 60;
  DlAttack dl(tiny_image_net_config());
  dl.train(training, validation, train_config);

  const QueryDataset victim(victim_split.split.get(),
                            tiny_image_dataset_config());
  runtime::ThreadPool pool(4);
  for (runtime::ThreadPool* p : {static_cast<runtime::ThreadPool*>(nullptr),
                                 &pool}) {
    const AttackResult result = dl.attack(victim, p);
    ASSERT_GT(result.selections.size(), 0u);
    const std::uint64_t digest = attack_digest(result);
    EXPECT_EQ(digest, 0x85b97e0f85fd7687ull)
        << (p == nullptr ? "serial" : "4 threads") << ": got 0x" << std::hex
        << digest;
  }
}

bool same_bytes(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// The per-pin table path and the per-query forward are two call shapes
// of one trunk and one head. For every query of an image dataset, head
// scores over the table memcmp-equal AttackNet::forward's, with the
// table built by one net serially or by four nets on a 4-thread pool,
// for the softmax and the two-class head; and attack() picks what
// forward-path select_one picks, serial and pooled.
TEST(DlAttack, TablePathScoresMatchForwardBitwise) {
  const test::SmallSplit& split = test::shared_split(3, 400, 14);
  const QueryDataset dataset(split.split.get(), tiny_image_dataset_config());
  runtime::ThreadPool pool(4);
  for (const bool two_class : {false, true}) {
    SCOPED_TRACE(two_class ? "two-class head" : "softmax head");
    nn::NetConfig config = tiny_image_net_config();
    config.two_class = two_class;
    DlAttack dl(config);
    std::vector<Selection> want(dataset.num_queries());
    {
      ReplicaLease lease = dl.replicas().lease(4, dl.net());
      const std::vector<nn::AttackNet*>& nets = lease.nets();
      const nn::Tensor serial = embed_pins({nets[0]}, dataset);
      const nn::Tensor pooled = embed_pins(nets, dataset, &pool);
      ASSERT_EQ(serial.shape(),
                (std::vector<int>{static_cast<int>(dataset.num_pins()),
                                  config.hidden}));
      ASSERT_TRUE(same_bytes(serial, pooled));

      nn::AttackNet& net = *nets[1];
      nn::QueryInput input;
      std::size_t live = 0;
      for (std::size_t i = 0; i < dataset.num_queries(); ++i) {
        want[i] = select_one(net, dataset, i, input);
        if (dataset.query(i).candidates.empty()) continue;
        ++live;
        dataset.input_into(i, input);
        const nn::Tensor from_forward = net.forward(input);
        for (const nn::Tensor* table : {&serial, &pooled}) {
          ASSERT_TRUE(same_bytes(
              net.head(input.vec, table, dataset.pin_rows(i)), from_forward))
              << "query " << i;
        }
      }
      ASSERT_GT(live, 0u);
    }
    for (runtime::ThreadPool* p : {static_cast<runtime::ThreadPool*>(nullptr),
                                   &pool}) {
      const AttackResult got = dl.attack(dataset, p);
      ASSERT_EQ(got.selections.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.selections[i].chosen_source, want[i].chosen_source)
            << "query " << i;
        EXPECT_EQ(got.selections[i].correct, want[i].correct);
      }
    }
  }
}

// An image net cannot score a dataset without matching pin images:
// attack() says so with std::invalid_argument before it leases a replica
// or embeds a pin — the error ServeLoop::submit raises for the same pair.
TEST(DlAttack, ImageNetRejectsDatasetWithoutMatchingImages) {
  const test::SmallSplit& split = test::shared_split(3, 400, 14);
  DatasetConfig no_images = tiny_image_dataset_config();
  no_images.build_images = false;
  DatasetConfig three_channels = tiny_image_dataset_config();
  three_channels.images.pixel_sizes = {100, 200, 400};
  DlAttack dl(tiny_image_net_config());
  runtime::ThreadPool pool(2);
  for (const DatasetConfig& config : {no_images, three_channels}) {
    const QueryDataset dataset(split.split.get(), config);
    for (runtime::ThreadPool* p :
         {static_cast<runtime::ThreadPool*>(nullptr), &pool}) {
      EXPECT_THROW(dl.attack(dataset, p), std::invalid_argument);
    }
  }
  EXPECT_EQ(dl.replica_lease_stats().leases, 0);
  EXPECT_EQ(dl.inference_clones(), 0);
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
  const test::SmallSplit& split = test::shared_split(3, 400, 13);
  QueryDataset dataset(split.split.get(), tiny_image_dataset_config());
  DlAttack dl(tiny_image_net_config());

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
