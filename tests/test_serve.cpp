// Serving-loop contracts (src/serve/).
//
// The central claim under test: a ServeLoop answer is byte-identical to
// the batch-1 `attack()` answer at every client count, with bounded and
// unbounded replica sets — both run `select_one` over replicas that share
// the master's weights. Plus the lifecycle: shutdown drains in-flight
// submits and is safe to call concurrently, a rejected submit renders no
// images, lease timeouts and forward errors reach the submitter with
// their own types, warm serving adds no replicas and no arena
// allocations, and live leases show up in occupancy snapshots.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "attack/dl_attack.hpp"
#include "attack/replica_set.hpp"
#include "obs/metrics.hpp"
#include "serve/serve_loop.hpp"
#include "test_support.hpp"

namespace sma::attack {
namespace {

DatasetConfig serve_dataset_config() {
  DatasetConfig config;
  config.candidates.max_candidates = 8;
  config.images.size = 9;
  config.images.pixel_sizes = {200, 400};
  return config;
}

nn::NetConfig serve_net_config() {
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

/// Shared trained model + victim dataset + the batch-1 serial baseline.
/// Built once: training even the tiny image net dominates suite time
/// otherwise.
struct ServeFixtureState {
  std::unique_ptr<DlAttack> dl;
  std::unique_ptr<QueryDataset> victim;
  AttackResult baseline;
};

ServeFixtureState& fixture() {
  static ServeFixtureState* state = [] {
    auto* s = new ServeFixtureState();
    const test::SmallSplit& train_split = test::shared_split(3, 400, 13);
    const test::SmallSplit& victim_split = test::shared_split(3, 400, 14);

    std::vector<QueryDataset> training;
    training.emplace_back(train_split.split.get(), serve_dataset_config());
    std::vector<QueryDataset> validation;

    TrainConfig train_config;
    train_config.epochs = 2;
    train_config.max_queries_per_design = 60;

    s->dl = std::make_unique<DlAttack>(serve_net_config());
    s->dl->train(training, validation, train_config);

    s->victim = std::make_unique<QueryDataset>(victim_split.split.get(),
                                               serve_dataset_config());
    s->baseline = s->dl->attack(*s->victim);
    return s;
  }();
  return *state;
}

/// First query of `dataset` with a non-empty candidate list.
std::size_t first_live_query(const QueryDataset& dataset) {
  for (std::size_t i = 0; i < dataset.num_queries(); ++i) {
    if (!dataset.query(i).candidates.empty()) return i;
  }
  ADD_FAILURE() << "dataset has no query with candidates";
  return 0;
}

/// Submit every query of `dataset` to `loop` from `clients` threads
/// (client c takes queries c, c + clients, ...); answers in query order.
std::vector<Selection> serve_all(serve::ServeLoop& loop, QueryDataset& dataset,
                                 int clients) {
  const std::size_t n = dataset.num_queries();
  std::vector<Selection> got(n);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([c, clients, n, &got, &loop, &dataset] {
      for (std::size_t i = c; i < n; i += clients) {
        got[i] = loop.submit(dataset, i);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return got;
}

void expect_matches_baseline(const std::vector<Selection>& got,
                             const AttackResult& want) {
  ASSERT_EQ(got.size(), want.selections.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].sink_fragment, want.selections[i].sink_fragment);
    EXPECT_EQ(got[i].chosen_source, want.selections[i].chosen_source);
    EXPECT_EQ(got[i].correct, want.selections[i].correct);
    EXPECT_EQ(got[i].num_sinks, want.selections[i].num_sinks);
  }
}

/// A private attack over a byte copy of the fixture's trained net, so a
/// test can bound its replica set without leaking into other tests.
std::unique_ptr<DlAttack> copy_of_fixture_attack() {
  std::stringstream bytes;
  fixture().dl->net().save(bytes);
  return std::make_unique<DlAttack>(nn::AttackNet::load(bytes));
}

TEST(ServeLoop, MatchesBatchOneAcrossConcurrentClients) {
  ServeFixtureState& f = fixture();
  const long n = static_cast<long>(f.victim->num_queries());

  // Unbounded: every client gets its own replica.
  for (int clients : {1, 2, 4}) {
    SCOPED_TRACE("unbounded, clients " + std::to_string(clients));
    serve::ServeLoop loop(*f.dl, serve::ServeConfig{});
    expect_matches_baseline(serve_all(loop, *f.victim, clients), f.baseline);
    loop.shutdown();
    const serve::ServeStats stats = loop.stats();
    EXPECT_EQ(stats.submitted, n);
    EXPECT_EQ(stats.answered + stats.empty, n);
    EXPECT_EQ(stats.batches, stats.answered);
    EXPECT_EQ(stats.failed, 0);
  }

  // Bounded to 2 replicas: 4 clients contend for leases.
  std::unique_ptr<DlAttack> bounded = copy_of_fixture_attack();
  bounded->replicas().set_max_replicas(2);
  for (int clients : {1, 2, 4}) {
    SCOPED_TRACE("bounded to 2, clients " + std::to_string(clients));
    serve::ServeLoop loop(*bounded, serve::ServeConfig{});
    expect_matches_baseline(serve_all(loop, *f.victim, clients), f.baseline);
    loop.shutdown();
    EXPECT_EQ(loop.stats().answered + loop.stats().empty, n);
    EXPECT_EQ(loop.stats().failed, 0);
  }
  EXPECT_LE(bounded->inference_clones(), 2);
  EXPECT_LE(bounded->replica_lease_stats().max_on_loan, 2u);
}

TEST(ServeLoop, ShutdownDrainsInFlightRequests) {
  ServeFixtureState& f = fixture();
  auto loop =
      std::make_unique<serve::ServeLoop>(*f.dl, serve::ServeConfig{});

  const std::size_t n = f.victim->num_queries();
  std::atomic<long> answered{0};
  std::atomic<long> rejected{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([c, n, &answered, &rejected, &loop, &f] {
      for (std::size_t i = c; i < n; i += 3) {
        try {
          const Selection got = loop->submit(*f.victim, i);
          // An answered request must carry the batch-1 answer even when
          // the loop is tearing down around it.
          EXPECT_EQ(got.chosen_source,
                    f.baseline.selections[i].chosen_source);
          answered.fetch_add(1);
        } catch (const std::runtime_error&) {
          rejected.fetch_add(1);  // submitted after shutdown
        }
      }
    });
  }
  // Let some requests through, then close the loop under load from three
  // threads at once: concurrent shutdown() calls must all return.
  while (answered.load() < 3) std::this_thread::yield();
  std::vector<std::thread> closers;
  for (int k = 0; k < 2; ++k) {
    closers.emplace_back([&loop] { loop->shutdown(); });
  }
  loop->shutdown();
  // shutdown() returned, so every accepted submit has finished.
  const serve::ServeStats at_close = loop->stats();
  EXPECT_EQ(at_close.answered + at_close.empty + at_close.failed,
            at_close.submitted);
  for (std::thread& t : closers) t.join();
  for (std::thread& t : clients) t.join();

  // Every request was either answered correctly or rejected cleanly...
  EXPECT_EQ(answered.load() + rejected.load(), static_cast<long>(n));
  // ...and nothing was left hanging: accepted == completed.
  const serve::ServeStats stats = loop->stats();
  EXPECT_EQ(stats.submitted, answered.load());
  EXPECT_EQ(stats.answered + stats.empty, answered.load());
  EXPECT_EQ(stats.failed, 0);
  EXPECT_THROW(loop->submit(*f.victim, 0), std::runtime_error);
  // The destructor's shutdown() after an explicit one is a no-op.
  loop.reset();
}

TEST(ServeLoop, RejectedSubmitRendersNoImages) {
  ServeFixtureState& f = fixture();
  serve::ServeLoop loop(*f.dl, serve::ServeConfig{});
  loop.shutdown();
  // A dataset the loop has never seen.
  const test::SmallSplit& split = test::shared_split(3, 400, 14);
  QueryDataset fresh(split.split.get(), serve_dataset_config());
  obs::Counter& rendered =
      obs::Registry::global().counter("dataset.images_rendered");
  const std::uint64_t rendered_before = rendered.value();
  EXPECT_THROW(loop.submit(fresh, first_live_query(fresh)),
               std::runtime_error);
  EXPECT_EQ(rendered.value(), rendered_before);
  EXPECT_EQ(loop.stats().submitted, 0);
}

TEST(ServeLoop, LeaseTimeoutPropagatesToWaitingRequests) {
  // A private attack: bounding the shared fixture's replica set would
  // leak into other tests.
  ServeFixtureState& f = fixture();
  DlAttack dl(serve_net_config());
  dl.replicas().set_max_replicas(1);

  serve::ServeConfig config;
  config.lease_timeout_seconds = 0.02;
  serve::ServeLoop loop(dl, config);
  const std::size_t live_query = first_live_query(*f.victim);

  {
    // Hold the only replica: the submit must time out and fail with the
    // typed saturation error.
    ReplicaLease hog = dl.replicas().lease(1, dl.net());
    EXPECT_THROW(loop.submit(*f.victim, live_query), AcquireTimeoutError);
    EXPECT_EQ(loop.stats().failed, 1);
    EXPECT_EQ(loop.stats().batches, 0);  // no forward ran
  }
  // Replica released: the same request now succeeds.
  const Selection got = loop.submit(*f.victim, live_query);
  EXPECT_EQ(got.sink_fragment,
            f.victim->query(live_query).sink_fragment);
  EXPECT_GE(got.chosen_source, 0);
  loop.shutdown();
}

TEST(ServeLoop, RejectsMismatchedImageGeometry) {
  ServeFixtureState& f = fixture();
  serve::ServeLoop loop(*f.dl, serve::ServeConfig{});
  loop.submit(*f.victim, first_live_query(*f.victim));
  // A vector-only dataset cannot feed an image net: AttackNet::forward's
  // shape check throws, and the submitter sees that exception unwrapped.
  DatasetConfig mismatched = serve_dataset_config();
  mismatched.build_images = false;
  const test::SmallSplit& split = test::shared_split(3, 400, 14);
  QueryDataset other(split.split.get(), mismatched);
  EXPECT_THROW(loop.submit(other, first_live_query(other)),
               std::invalid_argument);
  EXPECT_EQ(loop.stats().failed, 1);
}

TEST(ServeLoop, SteadyStateIsAllocFree) {
  ServeFixtureState& f = fixture();
  const int clients = 4;
  // Warm-up pass: every replica the serving pass can lease (at most one
  // per client, lowest free index first) serves every query once, so each
  // arena has seen every query shape.
  {
    ReplicaLease lease =
        f.dl->replicas().lease(static_cast<std::size_t>(clients), f.dl->net());
    nn::QueryInput input;
    for (nn::AttackNet* net : lease.nets()) {
      for (std::size_t i = 0; i < f.victim->num_queries(); ++i) {
        select_one(*net, *f.victim, i, input);
      }
    }
  }
  const long clones_before = f.dl->inference_clones();
  const long allocs_before = f.dl->inference_arena_stats().allocs;
  serve::ServeLoop loop(*f.dl, serve::ServeConfig{});
  expect_matches_baseline(serve_all(loop, *f.victim, clients), f.baseline);
  loop.shutdown();
  EXPECT_EQ(f.dl->inference_clones() - clones_before, 0);
  EXPECT_EQ(f.dl->inference_arena_stats().allocs - allocs_before, 0);
}

TEST(ReplicaSet, LiveLeasesCountTowardOccupancy) {
  DlAttack dl(serve_net_config());
  {
    ReplicaLease lease = dl.replicas().lease(2, dl.net());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const ReplicaSet::LeaseStats mid = dl.replica_lease_stats();
    // The lease is still live, yet its occupancy so far is visible (2
    // replicas x >= 10ms) — the header used to document this gap.
    EXPECT_GT(mid.occupancy_seconds, 0.0);
    EXPECT_EQ(mid.max_on_loan, 2u);
    EXPECT_EQ(mid.leases, 1);
  }
  const ReplicaSet::LeaseStats after = dl.replica_lease_stats();
  EXPECT_GT(after.occupancy_seconds, 0.0);

  // Occupancy is monotone across repeated snapshots of a live lease.
  ReplicaLease lease = dl.replicas().lease(1, dl.net());
  const double first = dl.replica_lease_stats().occupancy_seconds;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GE(dl.replica_lease_stats().occupancy_seconds, first);
}

}  // namespace
}  // namespace sma::attack
