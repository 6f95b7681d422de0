// Split-layer sweep (extension beyond the paper's M1/M3): how attack
// difficulty changes with the split layer. One layout per design, split
// at M1..M5; reports fragment counts, the candidate ceiling, and the
// proximity / network-flow baselines. Expected monotonics: higher split
// layers leave fewer broken nets (less for an attacker to recover) and
// sparser virtual pins (each recovery easier) — the defender's tradeoff
// the paper's introduction describes.
#include <iostream>
#include <string>

#include "bench_util.hpp"

#include "attack/flow_attack.hpp"
#include "attack/proximity_attack.hpp"
#include "eval/experiment.hpp"
#include "split/candidates.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  sma::util::set_log_level(sma::util::LogLevel::kWarn);
  sma::benchutil::init_observability();
  std::vector<std::string> designs = {"c880", "c3540"};
  if (argc > 1) {
    designs.clear();
    for (int i = 1; i < argc; ++i) designs.push_back(argv[i]);
  }

  std::cout << "Split-layer sweep (extension; paper evaluates M1 and M3)\n\n";
  for (const std::string& name : designs) {
    // Build the layout once; splitting is cheap.
    sma::eval::PreparedSplit base = sma::eval::prepare_split(
        sma::netlist::find_profile(name), 1, 2019);

    sma::util::Table table({"Layer", "#Sk", "#Sc", "#VP", "hit%(n=31)",
                            "prox CCR%", "flow CCR%"});
    for (int layer = 1; layer <= 5; ++layer) {
      sma::split::SplitDesign split(base.design.get(), layer);
      sma::split::SplitStats stats = split.stats();
      double hit = sma::split::candidate_hit_rate(
          sma::split::build_queries(split));
      sma::attack::AttackResult prox =
          sma::attack::run_proximity_attack(split);
      sma::attack::FlowAttackConfig flow_config;
      flow_config.timeout_seconds = 30.0;
      sma::attack::AttackResult flow =
          sma::attack::run_flow_attack(split, flow_config);
      table.add_row(
          {"M" + std::to_string(layer),
           std::to_string(stats.num_sink_fragments),
           std::to_string(stats.num_source_fragments),
           std::to_string(stats.num_virtual_pins),
           sma::util::format_double(hit * 100, 1),
           sma::util::format_double(prox.ccr * 100, 2),
           flow.timed_out ? "N/A"
                          : sma::util::format_double(flow.ccr * 100, 2)});
    }
    std::cout << "=== " << name << " ===\n" << table.to_string() << "\n";
  }
  std::cout << "Expected shape: #Sk falls as the split moves up while the "
               "baselines' CCR rises — fewer, easier connections.\n";
  sma::benchutil::flush_report(sma::obs::RunReport("layers", 1));
  sma::benchutil::flush_trace();
  return 0;
}
