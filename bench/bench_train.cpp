// Training-loop benchmark: train the fast-profile network on one real
// design with the fused training-step engine (shared-weight pinned
// lanes, one reduce+Adam pass per step) and report s/epoch. Model
// bytes are anchored by the golden digests in test_train_step and
// test_arena; earlier before/after comparisons live in the committed
// BENCH_train.json.
//
// The bench also reports steady-state allocation behavior: the first
// epoch warms each net's arena up to the largest query shape, and every
// later epoch must add ZERO arena heap allocations. The JSON carries the
// last-epoch alloc count (total and per query) and the pinned arena
// bytes; in --smoke mode a nonzero steady-state alloc count fails the
// run (the CI gate).
//
// Human-readable progress goes to stderr; stdout carries exactly one
// JSON object (scripts/bench.sh redirects it to BENCH_train.json).
//
// Flags:
//   --smoke        tiny synthetic design, 2 epochs (warm-up + steady
//                  state), no timing claims; verifies zero steady-state
//                  arena allocations (CI)
//   --design=c432  design to train on
//   --layer=1      split layer
//   --epochs=3     training epochs
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "attack/dataset.hpp"
#include "attack/dl_attack.hpp"
#include "bench_util.hpp"
#include "eval/experiment.hpp"
#include "util/logging.hpp"

namespace {

struct PathResult {
  double s_per_epoch = 0.0;
  long queries_seen = 0;
  long warmup_allocs = 0;  ///< arena heap growths in epoch 1
  long steady_allocs = 0;  ///< arena heap growths in the last epoch
  std::size_t arena_bytes = 0;
};

PathResult run_path(const sma::eval::PreparedSplit& prepared,
                    const sma::eval::ExperimentProfile& profile, int epochs,
                    bool use_all_queries, sma::obs::RunReport& report) {
  sma::attack::DatasetConfig dataset_config = profile.dataset;
  dataset_config.build_images = profile.net.use_images;

  sma::nn::NetConfig net_config = profile.net;
  if (net_config.use_images) {
    net_config.image_channels =
        static_cast<int>(profile.dataset.images.pixel_sizes.size());
  }

  sma::attack::TrainConfig train_config = profile.train;
  train_config.epochs = epochs;
  // The steady-state gate needs every query shape seen during warm-up;
  // per-epoch subsampling could defer a large query past epoch 1.
  if (use_all_queries) train_config.max_queries_per_design = 0;

  std::vector<sma::attack::QueryDataset> training;
  // Construction renders every image, so s/epoch measures the training
  // loop, not feature extraction.
  training.emplace_back(prepared.split.get(), dataset_config);
  std::vector<sma::attack::QueryDataset> validation;

  sma::attack::DlAttack dl(net_config);
  sma::attack::TrainStats stats =
      dl.train(training, validation, train_config, /*pool=*/nullptr);
  report.add_train(stats);

  PathResult result;
  result.s_per_epoch = stats.seconds / epochs;
  result.queries_seen = stats.queries_seen;
  if (!stats.arena_allocs_per_epoch.empty()) {
    result.warmup_allocs = stats.arena_allocs_per_epoch.front();
    result.steady_allocs = stats.arena_allocs_per_epoch.back();
  }
  result.arena_bytes = stats.arena_bytes_pinned;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  sma::util::set_log_level(sma::util::LogLevel::kWarn);
  sma::benchutil::init_observability();

  bool smoke = false;
  std::string design = "c432";
  int layer = 1;
  int epochs = 3;
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
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }

  sma::eval::ExperimentProfile profile = sma::eval::ExperimentProfile::fast();
  sma::eval::PreparedSplit prepared;
  if (smoke) {
    // Tiny synthetic design and a tiny vector-only net: exercises the
    // training loop end-to-end in well under a second. Two epochs so the
    // second exercises (and gates) the alloc-free steady state.
    epochs = 2;
    sma::netlist::DesignProfile tiny;
    tiny.name = "smoke_train";
    tiny.num_inputs = 8;
    tiny.num_outputs = 4;
    tiny.num_gates = 280;
    prepared = sma::eval::prepare_split(tiny, 3, /*seed=*/2019);
    profile.net.use_images = false;
    profile.net.hidden = 16;
    profile.net.vector_res_blocks = 1;
    profile.net.merged_res_blocks = 1;
    profile.dataset.candidates.max_candidates = 6;
  } else {
    std::cerr << "bench_train: preparing " << design << " (M" << layer
              << ")...\n";
    try {
      prepared = sma::eval::prepare_split(sma::netlist::find_profile(design),
                                          layer, /*seed=*/2019);
    } catch (const std::invalid_argument& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }

  std::cerr << "bench_train: " << epochs << " epochs, batch "
            << profile.train.batch_size << " lanes\n";
  // The smoke gate requires a deterministic query set per epoch (no
  // subsampling), so steady-state epochs only revisit warmed-up shapes.
  sma::obs::RunReport report("train", 1);
  const PathResult fused = run_path(prepared, profile, epochs, smoke, report);
  std::cerr << "  fused engine: " << fused.s_per_epoch << " s/epoch ("
            << fused.queries_seen << " queries, " << fused.steady_allocs
            << " steady-state arena allocs, " << fused.arena_bytes
            << " arena bytes)\n";
  // Post-warm-up epochs must add zero arena heap allocations. Gated in
  // smoke mode (full runs subsample per epoch, so a late-arriving larger
  // query can legitimately grow an arena; the counts are still reported).
  const bool alloc_free =
      fused.steady_allocs == 0 && epochs > 1 && fused.queries_seen > 0;
  if (smoke) {
    std::cerr << (alloc_free
                      ? "steady-state check: zero arena allocs after warm-up\n"
                      : "steady-state check FAILED: arena still allocating "
                        "after warm-up\n");
  }

  const long queries_per_epoch = fused.queries_seen / epochs;
  const double fused_allocs_per_query =
      queries_per_epoch > 0
          ? static_cast<double>(fused.steady_allocs) / queries_per_epoch
          : 0.0;
  std::ostringstream json;
  json << "{\"bench\": \"train\", \"smoke\": " << (smoke ? "true" : "false")
       << ", \"design\": \"" << (smoke ? "smoke_train" : design)
       << "\", \"layer\": " << (smoke ? 3 : layer)
       << ", \"epochs\": " << epochs
       << ", \"lanes\": " << profile.train.batch_size
       << ", \"queries_per_epoch\": " << queries_per_epoch
       << ", \"fused_s_per_epoch\": " << fused.s_per_epoch
       << ", \"fused_warmup_allocs\": " << fused.warmup_allocs
       << ", \"fused_steady_allocs\": " << fused.steady_allocs
       << ", \"fused_steady_allocs_per_query\": " << fused_allocs_per_query
       << ", \"fused_arena_bytes\": " << fused.arena_bytes
       << sma::benchutil::report_fragment(report) << "}";
  std::cout << json.str() << "\n";
  sma::benchutil::flush_trace();
  return smoke && !alloc_free ? 1 : 0;
}
