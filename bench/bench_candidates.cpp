// Sample-selection quality (Sec. 4.1 / Sec. 5 setup): for each design and
// split layer, reports fragment counts and the candidate-list hit rate
// (how often the true connection survives the three selection criteria
// with n = 31) — the upper bound on any attack's CCR — plus the criteria's
// individual contributions.
#include <iostream>
#include <string>

#include "bench_util.hpp"
#include "eval/experiment.hpp"
#include "split/candidates.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  sma::util::set_log_level(sma::util::LogLevel::kWarn);
  sma::benchutil::init_observability();
  int max_gates = 1300;  // default: small/mid designs
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--all") max_gates = 1 << 30;
  }

  std::cout << "Candidate selection quality (n = 31, Sec. 4.1 criteria)\n\n";
  for (int layer : {1, 3}) {
    sma::util::Table table({"Design", "#frag", "#Sk", "#Sc", "#VP",
                            "hit%(n=31)", "hit%(no-dir)", "hit%(n=8)"});
    for (const auto& profile : sma::netlist::attack_profiles()) {
      if (profile.num_gates > max_gates) continue;
      sma::eval::PreparedSplit prepared =
          sma::eval::prepare_split(profile, layer, 2019);
      const sma::split::SplitDesign& split = *prepared.split;
      sma::split::SplitStats stats = split.stats();

      sma::split::CandidateConfig base;
      base.max_candidates = 31;
      sma::split::CandidateConfig no_direction = base;
      no_direction.use_direction_criterion = false;
      sma::split::CandidateConfig tight = base;
      tight.max_candidates = 8;

      double hit = sma::split::candidate_hit_rate(
          sma::split::build_queries(split, base));
      double hit_nodir = sma::split::candidate_hit_rate(
          sma::split::build_queries(split, no_direction));
      double hit8 = sma::split::candidate_hit_rate(
          sma::split::build_queries(split, tight));

      table.add_row({profile.name, std::to_string(stats.num_fragments),
                     std::to_string(stats.num_sink_fragments),
                     std::to_string(stats.num_source_fragments),
                     std::to_string(stats.num_virtual_pins),
                     sma::util::format_double(hit * 100, 1),
                     sma::util::format_double(hit_nodir * 100, 1),
                     sma::util::format_double(hit8 * 100, 1)});
    }
    std::cout << "=== Split after Metal " << layer << " ===\n"
              << table.to_string() << "\n";
  }
  std::cout << "hit% bounds any attack's CCR; the direction criterion "
               "should cost little coverage (its column stays close to "
               "no-dir), and n=8 shows the distance criterion's pressure.\n";
  sma::benchutil::flush_report(sma::obs::RunReport("candidates", 1));
  sma::benchutil::flush_trace();
  return 0;
}
