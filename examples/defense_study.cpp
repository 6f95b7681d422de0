// Defense study: placement perturbation vs the proximity/DL attacks.
//
// The paper's conclusion points at placement-based defenses as the natural
// countermeasure. This example implements one: after legalization,
// randomly swap same-width cell pairs ("defense strength" = swap budget),
// destroying the proximity signal the attacks rely on, then measures
//   - wirelength overhead (the defender's cost), and
//   - CCR of the proximity attack and a trained DL attack (the gain).
// Built entirely from the public module APIs — a template for evaluating
// custom defenses.
#include <iostream>
#include <vector>

#include "attack/dl_attack.hpp"
#include "attack/proximity_attack.hpp"
#include "eval/experiment.hpp"
#include "netlist/generator.hpp"
#include "place/global_placer.hpp"
#include "place/legalizer.hpp"
#include "route/router.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace sma;  // NOLINT: example-local brevity

/// Randomly swap `swaps` same-width cell pairs (keeps legality).
void perturb_placement(place::Placement& placement, int swaps,
                       util::Pcg32& rng) {
  const netlist::Netlist& nl = placement.netlist();
  if (nl.num_cells() < 2) return;
  for (int done = 0; done < swaps;) {
    netlist::CellId a = static_cast<netlist::CellId>(
        rng.next_below(static_cast<std::uint32_t>(nl.num_cells())));
    netlist::CellId b = static_cast<netlist::CellId>(
        rng.next_below(static_cast<std::uint32_t>(nl.num_cells())));
    if (a == b || nl.lib_cell_of(a).width != nl.lib_cell_of(b).width) {
      continue;
    }
    util::Point pa = placement.cell_origin(a);
    placement.set_cell_origin(a, placement.cell_origin(b));
    placement.set_cell_origin(b, pa);
    ++done;
  }
}

/// Place (with optional perturbation) and route one netlist.
layout::Design defended_flow(netlist::Netlist nl, int swaps,
                             std::uint64_t seed) {
  layout::Design design;
  design.netlist = std::make_unique<netlist::Netlist>(std::move(nl));
  design.stack =
      std::make_unique<tech::LayerStack>(tech::LayerStack::nangate45_like());
  place::Floorplan fp = place::make_floorplan(*design.netlist, 0.55);
  design.placement =
      std::make_unique<place::Placement>(design.netlist.get(), fp);
  run_global_placement(*design.placement);
  run_legalization(*design.placement);
  util::Pcg32 rng(seed, 0xdef);
  perturb_placement(*design.placement, swaps, rng);
  design.grid = std::make_unique<route::RoutingGrid>(design.stack.get(),
                                                     fp.die);
  design.routing = route::route_design(*design.placement, *design.grid);
  return design;
}

}  // namespace

int main() {
  util::set_log_level(util::LogLevel::kWarn);
  util::set_log_level_from_env();  // SMA_LOG_LEVEL overrides the default
  const tech::CellLibrary library = tech::CellLibrary::nangate45_like();
  const int kSplitLayer = 3;

  // Train a DL model on undefended layouts (the attacker's database).
  eval::ExperimentProfile profile = eval::ExperimentProfile::fast();
  profile.train.epochs = 8;
  std::vector<eval::PreparedSplit> store;
  std::vector<attack::QueryDataset> training;
  int used = 0;
  for (const auto& p : netlist::training_profiles()) {
    if (++used > 3) break;
    store.push_back(eval::prepare_split(p, kSplitLayer, 40 + used));
    training.emplace_back(store.back().split.get(), profile.dataset);
  }
  std::vector<attack::QueryDataset> validation;
  nn::NetConfig net_config = profile.net;
  net_config.image_channels =
      static_cast<int>(profile.dataset.images.pixel_sizes.size());
  attack::DlAttack dl(net_config);
  dl.train(training, validation, profile.train);

  // Sweep the defense strength on one victim.
  netlist::GeneratorConfig gen;
  gen.num_inputs = 20;
  gen.num_outputs = 10;
  gen.num_gates = 400;
  gen.seed = 4;

  util::Table table({"Swaps", "WL overhead (%)", "Proximity CCR (%)",
                     "DL CCR (%)", "Hit rate (%)"});
  std::int64_t baseline_wl = 0;
  for (int swaps : {0, 50, 200, 800}) {
    netlist::Netlist nl = netlist::generate_netlist(gen, "victim", &library);
    layout::Design design = defended_flow(std::move(nl), swaps, 77);
    if (swaps == 0) baseline_wl = design.routing.total_wirelength;
    double overhead =
        100.0 * (static_cast<double>(design.routing.total_wirelength) /
                     baseline_wl -
                 1.0);

    split::SplitDesign split(&design, kSplitLayer);
    attack::AttackResult prox = attack::run_proximity_attack(split);
    attack::QueryDataset dataset(&split, profile.dataset);
    attack::AttackResult dl_result = dl.attack(dataset);

    table.add_row({std::to_string(swaps), util::format_double(overhead, 1),
                   util::format_double(prox.ccr * 100, 2),
                   util::format_double(dl_result.ccr * 100, 2),
                   util::format_double(dataset.candidate_hit_rate() * 100, 1)});
  }
  std::cout << "Placement-perturbation defense at an M" << kSplitLayer
            << " split (victim: 400 gates)\n\n"
            << table.to_string()
            << "\nExpected: CCR falls with defense strength while "
               "wirelength overhead rises — the defender's tradeoff.\n";
  return 0;
}
