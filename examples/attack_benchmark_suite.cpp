// Attack a chosen benchmark design at a chosen split layer with all three
// attacks (DL, network-flow, proximity) and print a side-by-side report.
//
// Usage: attack_benchmark_suite [design] [split_layer]
//   e.g. attack_benchmark_suite c880 3
#include <iostream>
#include <memory>
#include <string>

#include "attack/dl_attack.hpp"
#include "attack/flow_attack.hpp"
#include "attack/proximity_attack.hpp"
#include "eval/experiment.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  sma::util::set_log_level(sma::util::LogLevel::kInfo);
  sma::util::set_log_level_from_env();  // SMA_LOG_LEVEL overrides the default
  const std::string design_name = argc > 1 ? argv[1] : "c880";
  const int split_layer = argc > 2 ? std::stoi(argv[2]) : 3;

  const sma::netlist::DesignProfile& victim_profile =
      sma::netlist::find_profile(design_name);
  sma::eval::ExperimentProfile profile =
      sma::eval::ExperimentProfile::fast();

  // All stages share one pool sized to the host (results are identical
  // at any thread count; see src/runtime/).
  std::unique_ptr<sma::runtime::ThreadPool> pool_owner =
      profile.runtime.make_pool();
  sma::runtime::ThreadPool* pool = pool_owner.get();
  profile.dataset.pool = pool;

  // Train on the standard training corpus (smaller subset for an example).
  std::vector<sma::eval::PreparedSplit> prepared_store;
  std::vector<sma::attack::QueryDataset> training;
  int used = 0;
  for (const auto& p : sma::netlist::training_profiles()) {
    if (++used > 4) break;  // example-sized corpus
    prepared_store.push_back(
        sma::eval::prepare_split(p, split_layer, 11 + used));
    training.emplace_back(prepared_store.back().split.get(),
                          profile.dataset);
  }
  std::vector<sma::attack::QueryDataset> validation;

  sma::nn::NetConfig net_config = profile.net;
  net_config.image_channels =
      static_cast<int>(profile.dataset.images.pixel_sizes.size());
  sma::attack::DlAttack dl(net_config);
  profile.train.epochs = 10;
  dl.train(training, validation, profile.train, pool);

  // Victim.
  sma::eval::PreparedSplit victim =
      sma::eval::prepare_split(victim_profile, split_layer, 2019);
  sma::split::SplitStats stats = victim.split->stats();
  std::cout << "\n"
            << design_name << " split after M" << split_layer << ": "
            << stats.num_sink_fragments << " sink fragments, "
            << stats.num_source_fragments << " source fragments\n\n";

  sma::attack::QueryDataset dataset(victim.split.get(), profile.dataset);
  sma::attack::AttackResult dl_result = dl.attack(dataset, pool);
  sma::attack::AttackResult flow_result =
      sma::attack::run_flow_attack(*victim.split, profile.flow_attack);
  sma::attack::AttackResult prox_result =
      sma::attack::run_proximity_attack(*victim.split);

  sma::util::Table table({"Attack", "CCR (%)", "Runtime (s)"});
  auto add = [&table](const sma::attack::AttackResult& r) {
    table.add_row({r.attack_name,
                   r.timed_out ? "N/A" : sma::util::format_double(r.ccr * 100, 2),
                   sma::util::format_double(r.seconds, 2)});
  };
  add(dl_result);
  add(flow_result);
  add(prox_result);
  std::cout << table.to_string();
  std::cout << "\ncandidate ceiling (hit rate): "
            << sma::util::format_double(dataset.candidate_hit_rate() * 100, 1)
            << "%\n";
  return 0;
}
