// Reproduces Figure 5: ablation of the proposed techniques at an M3 split.
//   (a) average CCR of: two-class loss (vector features only),
//       softmax-regression loss (vector only), softmax + image features;
//   (b) average inference time of the three settings.
//
// Expected shape: CCR(two-class) < CCR(vec) <= CCR(vec+img) (the paper
// reports 1.00 : 1.07 : 1.09), with comparable inference times.
//
// Flags: --fast (default) / --paper, --designs=..., --threads=N
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "eval/experiment.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  sma::util::set_log_level(sma::util::LogLevel::kInfo);
  sma::benchutil::init_observability();

  sma::eval::ExperimentProfile profile = sma::eval::ExperimentProfile::fast();
  std::vector<std::string> design_filter;
  std::optional<int> threads;  // applied last: flag order must not matter
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--paper") {
      profile = sma::eval::ExperimentProfile::paper();
    } else if (arg == "--fast") {
      profile = sma::eval::ExperimentProfile::fast();
    } else if (arg.rfind("--designs=", 0) == 0) {
      design_filter = sma::benchutil::split_list(arg.substr(10));
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = sma::benchutil::parse_int(arg.substr(10), "--threads", 0);
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 2;
    }
  }
  if (threads) profile.runtime.threads = *threads;

  // Figure 5 averages over the to-be-attacked designs; by default use the
  // small and mid-size ones so all three settings run in minutes.
  std::vector<sma::netlist::DesignProfile> designs;
  for (const auto& p : sma::netlist::attack_profiles()) {
    bool selected = design_filter.empty()
                        ? p.num_gates <= 1700  // keep the sweep tractable
                        : false;
    for (const std::string& name : design_filter) {
      if (p.name == name) selected = true;
    }
    if (selected) designs.push_back(p);
  }

  std::cout << "Figure 5: ablation of loss function and image features "
               "(split after Metal 3)\n\n";
  std::vector<sma::eval::AblationRow> rows =
      sma::eval::run_figure5(profile, designs, /*seed=*/2019);

  sma::util::Table table(
      {"Setting", "Avg CCR (%)", "CCR vs two-class", "Avg inference (s)"});
  double baseline = rows.empty() ? 1.0 : rows.front().avg_ccr;
  for (const sma::eval::AblationRow& row : rows) {
    table.add_row({row.setting,
                   sma::util::format_double(row.avg_ccr * 100, 2),
                   sma::util::format_double(
                       baseline > 0 ? row.avg_ccr / baseline : 0.0, 3),
                   sma::util::format_double(row.avg_inference_seconds, 2)});
  }
  std::cout << table.to_string();
  std::cout << "\npaper reference: softmax loss = 1.07x two-class baseline; "
               "adding images = 1.09x (Fig. 5a); inference times comparable "
               "(Fig. 5b)\n";
  sma::benchutil::flush_report(
      sma::obs::RunReport("figure5", profile.runtime.resolved()));
  sma::benchutil::flush_trace();
  return 0;
}
