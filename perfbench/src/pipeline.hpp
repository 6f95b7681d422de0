// The Table-3 pipeline, composed from the library's public calls.
//
// Every workload of the benchmark drives the program through these
// functions, and the fidelity self-test (tests/test_fidelity.cpp) proves
// that the composition equals eval::run_table3 bit for bit. Each call into
// the library is wrapped in a benchmark span (category "perfbench") and a
// wall-clock timer, so the per-layer numbers of a run come from the calls
// themselves, not from a lookalike.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attack/attack_result.hpp"
#include "attack/dataset.hpp"
#include "attack/dl_attack.hpp"
#include "eval/experiment.hpp"
#include "layout/design.hpp"
#include "netlist/profiles.hpp"
#include "runtime/thread_pool.hpp"
#include "split/split_design.hpp"

namespace perfbench {

/// Every workload splits at M1, as the paper's hardest setting.
inline constexpr int kSplitLayer = 1;

/// Seeds the program derives per design from the workload seed; the same
/// formulas eval::run_table3 uses, so rows are comparable with it.
std::uint64_t corpus_seed(std::uint64_t seed,
                          const sma::netlist::DesignProfile& profile);
std::uint64_t victim_seed(std::uint64_t seed,
                          const sma::netlist::DesignProfile& profile);

/// Wall seconds and result counts of the library calls one design made.
/// Summed over designs with `+=`.
struct CallTimes {
  double netlist_build_s = 0.0;  ///< netlist::build_profile
  double place_s = 0.0;          ///< Design::timings: global+legal+detailed
  double route_s = 0.0;          ///< Design::timings.route_seconds
  double route_negotiation_s = 0.0;  ///< RoutingResult::negotiation_seconds
  long route_fallback_routes = 0;    ///< RoutingResult::fallback_routes
  double split_extract_s = 0.0;  ///< split::SplitDesign
  double dataset_build_s = 0.0;  ///< attack::QueryDataset
  double attack_dl_s = 0.0;      ///< DlAttack::attack
  long attack_dl_queries = 0;    ///< queries DlAttack::attack answered
  double attack_flow_s = 0.0;    ///< attack::run_flow_attack

  CallTimes& operator+=(const CallTimes& other);
};

/// One design taken from profile to query dataset. Heap-held parts keep
/// the dataset's pointer into the split (and the split's into the
/// layout) valid when the struct moves.
struct BuiltDesign {
  std::string name;
  std::unique_ptr<sma::layout::Design> design;
  std::unique_ptr<sma::split::SplitDesign> split;
  std::unique_ptr<sma::attack::QueryDataset> dataset;
  CallTimes times;
};

/// build_profile -> run_flow -> SplitDesign -> QueryDataset, each call
/// timed and wrapped in a benchmark span. `pool` is passed to every call
/// that takes one, as eval::run_table3 does.
BuiltDesign build_design(const sma::netlist::DesignProfile& profile,
                         std::uint64_t design_seed,
                         const sma::eval::ExperimentProfile& experiment,
                         sma::runtime::ThreadPool* pool);

/// Build `profiles[i]` with `seeds[i]` as one pool task each (the corpus
/// step of run_table3's training), in profile order.
std::vector<BuiltDesign> build_designs(
    const std::vector<sma::netlist::DesignProfile>& profiles,
    const std::vector<std::uint64_t>& seeds,
    const sma::eval::ExperimentProfile& experiment,
    sma::runtime::ThreadPool* pool);

/// build_designs with the corpus seeds of workload seed `seed`.
std::vector<BuiltDesign> build_corpus(
    const std::vector<sma::netlist::DesignProfile>& profiles,
    std::uint64_t seed, const sma::eval::ExperimentProfile& experiment,
    sma::runtime::ThreadPool* pool);

/// Train a fresh model on `corpus` with `train`, seeded from the workload
/// seed the way run_table3 seeds its model. Fills `stats` when non-null.
sma::attack::DlAttack train_model(std::vector<BuiltDesign>& corpus,
                                  const sma::eval::ExperimentProfile& experiment,
                                  const sma::attack::TrainConfig& train,
                                  std::uint64_t seed,
                                  sma::runtime::ThreadPool* pool,
                                  sma::attack::TrainStats* stats);

/// One Table-3 row, with the digest of everything the row's attacks chose.
struct VictimRow {
  std::string design;
  long num_queries = 0;
  double dl_ccr = 0.0;
  double hit_rate = 0.0;
  double flow_ccr = 0.0;
  bool flow_timed_out = false;
  std::uint64_t digest = 0;  ///< DL + flow selections, CCRs, hit rate
  double wall_s = 0.0;       ///< netlist to row, this design's task
  CallTimes times;
};

/// Take one victim design cold from netlist to its Table-3 row:
/// build_design, DlAttack::attack, then run_flow_attack with
/// `experiment.flow_attack` (run_table3's per-design task).
VictimRow attack_victim(const sma::netlist::DesignProfile& profile,
                        std::uint64_t seed,
                        const sma::eval::ExperimentProfile& experiment,
                        sma::attack::DlAttack& dl,
                        sma::runtime::ThreadPool* pool);

/// Every victim as one pool task, rows in `profiles` order.
std::vector<VictimRow> attack_victims(
    const std::vector<sma::netlist::DesignProfile>& profiles,
    std::uint64_t seed, const sma::eval::ExperimentProfile& experiment,
    sma::attack::DlAttack& dl, sma::runtime::ThreadPool* pool);

/// FNV-1a digest of the model's serialized bytes (config + weights).
std::uint64_t model_digest(sma::attack::DlAttack& dl);

/// Digest of an attack's selections and CCR, bit for bit.
std::uint64_t selections_digest(const sma::attack::AttackResult& result);

}  // namespace perfbench
