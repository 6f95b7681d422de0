// Benchmark for the attack-serving loop: train the fast-profile network
// once, then serve every victim query through ServeLoop from C concurrent
// client threads for C in {1, 2, 4}, next to one serial `attack()` row
// (the per-pin embedding table plus head-only scoring) for reference. Each client count reports
// queries/sec and client-observed p50/p99 submit latency. Two gates ride
// on every row:
//
//   * byte-identity — every served selection (and the attack() row's
//     selections and CCR) must equal the serial attack() baseline bit for
//     bit;
//   * alloc-free steady state — once every replica the sweep can lease has
//     served every query, the timed passes must add ZERO replica clones
//     and ZERO activation-arena heap allocations.
//
// Human-readable progress goes to stderr; stdout carries exactly one
// JSON object (scripts/bench.sh redirects it to BENCH_serve.json).
//
// Flags:
//   --smoke         tiny synthetic design, no timing claims; exercises
//                   every client count end-to-end and enforces both gates
//   --design=c432   design served
//   --layer=1       split layer
//   --epochs=2      training epochs before the sweep
//   --reps=3        timed passes over all queries per row
//   --clients=1,2,4 concurrent submitter threads, one row each
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "attack/dataset.hpp"
#include "attack/dl_attack.hpp"
#include "bench_util.hpp"
#include "eval/experiment.hpp"
#include "runtime/thread_pool.hpp"
#include "serve/serve_loop.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace {

bool selections_equal(const sma::attack::AttackResult& a,
                      const sma::attack::AttackResult& b) {
  if (a.selections.size() != b.selections.size()) return false;
  for (std::size_t i = 0; i < a.selections.size(); ++i) {
    if (a.selections[i].sink_fragment != b.selections[i].sink_fragment ||
        a.selections[i].chosen_source != b.selections[i].chosen_source ||
        a.selections[i].correct != b.selections[i].correct ||
        a.selections[i].num_sinks != b.selections[i].num_sinks) {
      return false;
    }
  }
  return a.ccr == b.ccr;  // bit-equal, not approximately
}

double percentile(std::vector<double> sorted_us, double p) {
  if (sorted_us.empty()) return 0.0;
  std::sort(sorted_us.begin(), sorted_us.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(sorted_us.size() - 1) + 0.5);
  return sorted_us[std::min(idx, sorted_us.size() - 1)];
}

struct ClientsResult {
  int clients = 0;
  double seconds = 0.0;  ///< per timed pass over all queries
  double queries_per_sec = 0.0;
  long steady_arena_allocs = 0;
  long steady_clones = 0;
  bool identical = false;
  double serve_p50_us = 0.0;
  double serve_p99_us = 0.0;
  long serve_batches = 0;
};

}  // namespace

int main(int argc, char** argv) {
  sma::util::set_log_level(sma::util::LogLevel::kWarn);
  sma::benchutil::init_observability();

  bool smoke = false;
  std::string design = "c432";
  int layer = 1;
  int epochs = 2;
  int reps = 3;
  std::vector<int> client_counts = {1, 2, 4};
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--design=", 0) == 0) {
      design = arg.substr(9);
    } else if (arg.rfind("--layer=", 0) == 0) {
      layer = sma::benchutil::parse_int(arg.substr(8), "--layer", 1);
    } else if (arg.rfind("--epochs=", 0) == 0) {
      epochs = sma::benchutil::parse_int(arg.substr(9), "--epochs", 1);
    } else if (arg.rfind("--reps=", 0) == 0) {
      reps = sma::benchutil::parse_int(arg.substr(7), "--reps", 1);
    } else if (arg.rfind("--clients=", 0) == 0) {
      client_counts.clear();
      for (const std::string& c : sma::benchutil::split_list(arg.substr(10))) {
        client_counts.push_back(sma::benchutil::parse_int(c, "--clients", 1));
      }
      if (client_counts.empty()) {
        std::cerr << "--clients needs at least one count\n";
        return 2;
      }
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }

  sma::eval::ExperimentProfile profile = sma::eval::ExperimentProfile::fast();
  sma::eval::PreparedSplit prepared;
  if (smoke) {
    // Tiny synthetic design, images ON: the conv trunk and the
    // source/sink fusion seam only exist on the image branch, so the
    // smoke gate must drive it.
    sma::netlist::DesignProfile tiny;
    tiny.name = "smoke_serve";
    tiny.num_inputs = 8;
    tiny.num_outputs = 4;
    tiny.num_gates = 420;
    prepared = sma::eval::prepare_split(tiny, 3, /*seed=*/2019);
    layer = 3;
    epochs = std::min(epochs, 2);
    reps = std::min(reps, 2);
    profile.net.hidden = 16;
    profile.net.vector_res_blocks = 1;
    profile.net.merged_res_blocks = 1;
    profile.net.conv_channels = {4, 6, 8, 10};
    profile.net.image_fc = 16;
    profile.net.fc6_width = 8;
    profile.dataset.candidates.max_candidates = 6;
    profile.dataset.images.size = 9;
    profile.dataset.images.pixel_sizes = {200, 400};
  } else {
    std::cerr << "bench_serve: preparing " << design << " (M" << layer
              << ")...\n";
    try {
      prepared = sma::eval::prepare_split(sma::netlist::find_profile(design),
                                          layer, /*seed=*/2019);
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }

  sma::attack::DatasetConfig dataset_config = profile.dataset;
  dataset_config.build_images = profile.net.use_images;
  sma::nn::NetConfig net_config = profile.net;
  if (net_config.use_images) {
    net_config.image_channels =
        static_cast<int>(dataset_config.images.pixel_sizes.size());
  }
  sma::attack::TrainConfig train_config = profile.train;
  train_config.epochs = epochs;

  std::vector<sma::attack::QueryDataset> training;
  training.emplace_back(prepared.split.get(), dataset_config);
  std::vector<sma::attack::QueryDataset> validation;
  sma::attack::DlAttack dl(net_config);
  std::cerr << "bench_serve: training " << epochs << " epochs...\n";
  dl.train(training, validation, train_config);

  // The victim dataset; construction renders every image, so the sweep
  // times inference, not feature extraction.
  sma::attack::QueryDataset victim(prepared.split.get(), dataset_config);
  const long num_queries = static_cast<long>(victim.num_queries());

  // Serial attack() baseline: the identity oracle for every row.
  const sma::attack::AttackResult baseline = dl.attack(victim);
  std::cerr << "bench_serve: " << num_queries << " queries, baseline CCR "
            << baseline.ccr << "\n";

  // The attack() row: timed serial passes on one pinned replica.
  double attack_seconds = 0.0;
  bool identity_ok = true;
  {
    sma::util::Timer timer;
    for (int rep = 0; rep < reps; ++rep) {
      identity_ok =
          identity_ok && selections_equal(dl.attack(victim), baseline);
    }
    attack_seconds = timer.seconds() / reps;
  }
  const double attack_qps =
      attack_seconds > 0.0 ? static_cast<double>(num_queries) / attack_seconds
                           : 0.0;
  std::cerr << "  attack(): " << attack_qps << " queries/sec ("
            << attack_seconds << " s/pass)\n";

  // Warm the fleet: every replica the widest row can lease serves every
  // query once, so each replica arena has seen every query shape and the
  // set holds as many replicas as any row can have on loan at once.
  {
    const int widest =
        *std::max_element(client_counts.begin(), client_counts.end());
    sma::attack::ReplicaLease lease =
        dl.replicas().lease(static_cast<std::size_t>(widest), dl.net());
    sma::nn::QueryInput input;
    for (sma::nn::AttackNet* net : lease.nets()) {
      for (long i = 0; i < num_queries; ++i) {
        sma::attack::select_one(*net, victim, static_cast<std::size_t>(i),
                                input);
      }
    }
  }

  sma::obs::RunReport report("serve", 1);
  std::vector<ClientsResult> results;
  bool alloc_free = true;
  for (int clients : client_counts) {
    ClientsResult r;
    r.clients = clients;
    r.identical = true;
    const long allocs_before = dl.inference_arena_stats().allocs;
    const long clones_before = dl.inference_clones();
    sma::serve::ServeLoop loop(dl, sma::serve::ServeConfig{});
    // Each client thread runs every timed pass, so its per-thread buffers
    // warm up once per row rather than once per pass.
    const std::size_t n = static_cast<std::size_t>(num_queries);
    std::vector<std::vector<double>> lat_us(static_cast<std::size_t>(clients));
    std::vector<sma::attack::Selection> got(n * static_cast<std::size_t>(reps));
    sma::util::Timer timer;
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([c, clients, reps, n, &lat_us, &got, &loop,
                            &victim] {
        for (int rep = 0; rep < reps; ++rep) {
          for (std::size_t i = c; i < n; i += clients) {
            sma::util::Timer t;
            got[static_cast<std::size_t>(rep) * n + i] = loop.submit(victim, i);
            lat_us[static_cast<std::size_t>(c)].push_back(t.seconds() * 1e6);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    r.seconds = timer.seconds() / reps;
    std::vector<double> all_us;
    for (const std::vector<double>& per_client : lat_us) {
      all_us.insert(all_us.end(), per_client.begin(), per_client.end());
    }
    for (std::size_t k = 0; k < got.size(); ++k) {
      const sma::attack::Selection& g = got[k];
      const sma::attack::Selection& w = baseline.selections[k % n];
      r.identical = r.identical && g.sink_fragment == w.sink_fragment &&
                    g.chosen_source == w.chosen_source &&
                    g.correct == w.correct && g.num_sinks == w.num_sinks;
    }
    loop.shutdown();
    const sma::serve::ServeStats stats = loop.stats();
    r.serve_batches = stats.batches;
    r.serve_p50_us = percentile(all_us, 0.5);
    r.serve_p99_us = percentile(all_us, 0.99);
    r.queries_per_sec =
        r.seconds > 0.0 ? static_cast<double>(num_queries) / r.seconds : 0.0;
    r.steady_arena_allocs = dl.inference_arena_stats().allocs - allocs_before;
    r.steady_clones = dl.inference_clones() - clones_before;
    identity_ok = identity_ok && r.identical && stats.failed == 0;
    alloc_free = alloc_free && r.steady_arena_allocs == 0 &&
                 r.steady_clones == 0;
    // The last row's serve stats land in the embedded report.
    report.add_serve(stats);

    std::cerr << "  clients=" << r.clients << ": " << r.queries_per_sec
              << " queries/sec, p50 " << r.serve_p50_us << "us p99 "
              << r.serve_p99_us << "us, " << r.serve_batches
              << " forwards, " << r.steady_clones << " new clones, "
              << r.steady_arena_allocs << " steady arena allocs, "
              << (r.identical ? "identical" : "DIFFERS") << "\n";
    results.push_back(r);
  }
  report.add_replicas(dl);

  std::ostringstream json;
  json << "{\"bench\": \"serve\", \"smoke\": " << (smoke ? "true" : "false")
       << ", \"design\": \"" << (smoke ? "smoke_serve" : design)
       << "\", \"layer\": " << layer << ", \"epochs\": " << epochs
       << ", \"reps\": " << reps << ", \"num_queries\": " << num_queries
       << ", \"host_concurrency\": " << sma::runtime::Config{}.resolved()
       << ", \"attack\": {\"seconds\": " << attack_seconds
       << ", \"queries_per_sec\": " << attack_qps << "}, \"clients\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ClientsResult& r = results[i];
    if (i > 0) json << ", ";
    json << "{\"clients\": " << r.clients << ", \"seconds\": " << r.seconds
         << ", \"queries_per_sec\": " << r.queries_per_sec
         << ", \"serve_p50_us\": " << r.serve_p50_us
         << ", \"serve_p99_us\": " << r.serve_p99_us
         << ", \"serve_batches\": " << r.serve_batches
         << ", \"steady_clones\": " << r.steady_clones
         << ", \"steady_arena_allocs\": " << r.steady_arena_allocs
         << ", \"identical\": " << (r.identical ? "true" : "false") << "}";
  }
  json << "], \"identity_ok\": " << (identity_ok ? "true" : "false")
       << ", \"alloc_free\": " << (alloc_free ? "true" : "false")
       << sma::benchutil::report_fragment(report) << "}";
  std::cout << json.str() << "\n";
  sma::benchutil::flush_trace();

  std::cerr << (identity_ok
                    ? "bit-identity check: every row matches attack()\n"
                    : "bit-identity check FAILED\n");
  if (!alloc_free) {
    std::cerr << "steady-state check FAILED: replicas cloned or arenas "
                 "allocated after the fleet warm-up\n";
  }
  if (!identity_ok || !alloc_free) return 1;
  return 0;
}
