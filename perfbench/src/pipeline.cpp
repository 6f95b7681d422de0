#include "pipeline.hpp"

#include <sstream>
#include <utility>

#include "attack/flow_attack.hpp"
#include "obs/trace.hpp"
#include "runtime/parallel.hpp"
#include "tech/cell_library.hpp"
#include "util/hash.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

const sma::tech::CellLibrary& cell_library() {
  static const sma::tech::CellLibrary kLibrary =
      sma::tech::CellLibrary::nangate45_like();
  return kLibrary;
}

/// Category of the benchmark's spans around library calls. Like the
/// program's own, they record only while tracing is enabled.
constexpr const char* kSpanCategory = "perfbench";

}  // namespace

std::uint64_t corpus_seed(std::uint64_t seed,
                          const sma::netlist::DesignProfile& profile) {
  return seed ^ (static_cast<std::uint64_t>(profile.num_gates) * 31ull);
}

std::uint64_t victim_seed(std::uint64_t seed,
                          const sma::netlist::DesignProfile& profile) {
  return seed ^ 0x5151u ^
         (static_cast<std::uint64_t>(profile.num_gates) * 131ull);
}

CallTimes& CallTimes::operator+=(const CallTimes& other) {
  netlist_build_s += other.netlist_build_s;
  place_s += other.place_s;
  route_s += other.route_s;
  route_negotiation_s += other.route_negotiation_s;
  route_fallback_routes += other.route_fallback_routes;
  split_extract_s += other.split_extract_s;
  dataset_build_s += other.dataset_build_s;
  attack_dl_s += other.attack_dl_s;
  attack_dl_queries += other.attack_dl_queries;
  attack_flow_s += other.attack_flow_s;
  return *this;
}

BuiltDesign build_design(const sma::netlist::DesignProfile& profile,
                         std::uint64_t design_seed,
                         const sma::eval::ExperimentProfile& experiment,
                         sma::runtime::ThreadPool* pool) {
  BuiltDesign built;
  built.name = profile.name;
  CallTimes& t = built.times;

  sma::util::Timer timer;
  sma::netlist::Netlist netlist = [&] {
    sma::obs::SpanGuard span(kSpanCategory, "build_profile");
    return sma::netlist::build_profile(profile, &cell_library(), design_seed);
  }();
  t.netlist_build_s = timer.seconds();

  // prepare_split's effective flow config: the design seed overrides
  // FlowConfig::seed.
  sma::layout::FlowConfig flow;
  flow.seed = design_seed;
  {
    sma::obs::SpanGuard span(kSpanCategory, "run_flow");
    built.design = std::make_unique<sma::layout::Design>(
        sma::layout::run_flow(std::move(netlist), flow, pool));
  }
  const sma::layout::FlowTimings& ft = built.design->timings;
  t.place_s = ft.global_place_seconds + ft.legalize_seconds +
              ft.detailed_place_seconds;
  t.route_s = ft.route_seconds;
  t.route_negotiation_s = built.design->routing.negotiation_seconds;
  t.route_fallback_routes = built.design->routing.fallback_routes;

  timer.reset();
  {
    sma::obs::SpanGuard span(kSpanCategory, "split_design");
    built.split = std::make_unique<sma::split::SplitDesign>(
        built.design.get(), kSplitLayer, pool);
  }
  t.split_extract_s = timer.seconds();

  // run_table3's make_dataset: images when the net uses them, extraction
  // (and image prebuild) on the pool.
  sma::attack::DatasetConfig config = experiment.dataset;
  config.build_images = experiment.net.use_images;
  config.pool = pool;
  timer.reset();
  {
    sma::obs::SpanGuard span(kSpanCategory, "query_dataset");
    built.dataset = std::make_unique<sma::attack::QueryDataset>(
        built.split.get(), config);
  }
  t.dataset_build_s = timer.seconds();
  return built;
}

std::vector<BuiltDesign> build_designs(
    const std::vector<sma::netlist::DesignProfile>& profiles,
    const std::vector<std::uint64_t>& seeds,
    const sma::eval::ExperimentProfile& experiment,
    sma::runtime::ThreadPool* pool) {
  return sma::runtime::parallel_map(
      pool, profiles.size(), /*grain=*/1, [&](std::size_t i) {
        return build_design(profiles[i], seeds.at(i), experiment, pool);
      });
}

std::vector<BuiltDesign> build_corpus(
    const std::vector<sma::netlist::DesignProfile>& profiles,
    std::uint64_t seed, const sma::eval::ExperimentProfile& experiment,
    sma::runtime::ThreadPool* pool) {
  std::vector<std::uint64_t> seeds;
  for (const auto& profile : profiles) {
    seeds.push_back(corpus_seed(seed, profile));
  }
  return build_designs(profiles, seeds, experiment, pool);
}

sma::attack::DlAttack train_model(std::vector<BuiltDesign>& corpus,
                                  const sma::eval::ExperimentProfile& experiment,
                                  const sma::attack::TrainConfig& train,
                                  std::uint64_t seed,
                                  sma::runtime::ThreadPool* pool,
                                  sma::attack::TrainStats* stats) {
  // DlAttack::train takes a vector of datasets: move them in for the call
  // and back out after, so the same corpus can train again.
  std::vector<sma::attack::QueryDataset> training;
  training.reserve(corpus.size());
  for (BuiltDesign& design : corpus) {
    training.push_back(std::move(*design.dataset));
  }
  std::vector<sma::attack::QueryDataset> validation;

  sma::nn::NetConfig net_config = experiment.net;
  net_config.image_channels =
      static_cast<int>(experiment.dataset.images.pixel_sizes.size());
  net_config.seed ^= seed;
  sma::attack::DlAttack dl(net_config);
  sma::attack::TrainStats trained;
  {
    sma::obs::SpanGuard span(kSpanCategory, "train");
    trained = dl.train(training, validation, train, pool);
  }
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    *corpus[i].dataset = std::move(training[i]);
  }
  if (stats != nullptr) *stats = std::move(trained);
  return dl;
}

std::uint64_t selections_digest(const sma::attack::AttackResult& result) {
  sma::util::ContentHash h;
  h.add(static_cast<std::uint64_t>(result.selections.size()));
  for (const sma::attack::Selection& s : result.selections) {
    h.add(s.sink_fragment).add(s.chosen_source).add(s.correct).add(s.num_sinks);
  }
  h.add(result.ccr).add(result.timed_out);
  return h.digest();
}

VictimRow attack_victim(const sma::netlist::DesignProfile& profile,
                        std::uint64_t seed,
                        const sma::eval::ExperimentProfile& experiment,
                        sma::attack::DlAttack& dl,
                        sma::runtime::ThreadPool* pool) {
  sma::util::Timer wall;
  BuiltDesign built =
      build_design(profile, victim_seed(seed, profile), experiment, pool);
  VictimRow row;
  row.design = profile.name;
  row.num_queries = static_cast<long>(built.dataset->num_queries());
  row.times = built.times;

  sma::util::Timer timer;
  sma::attack::AttackResult dl_result;
  {
    sma::obs::SpanGuard span(kSpanCategory, "dl_attack");
    dl_result = dl.attack(*built.dataset, pool);
  }
  row.times.attack_dl_s = timer.seconds();
  row.times.attack_dl_queries = row.num_queries;
  row.dl_ccr = dl_result.ccr;
  row.hit_rate = built.dataset->candidate_hit_rate();

  timer.reset();
  sma::attack::AttackResult flow_result;
  {
    sma::obs::SpanGuard span(kSpanCategory, "flow_attack");
    flow_result = sma::attack::run_flow_attack(*built.split,
                                               experiment.flow_attack);
  }
  row.times.attack_flow_s = timer.seconds();
  row.flow_ccr = flow_result.ccr;
  row.flow_timed_out = flow_result.timed_out;

  sma::util::ContentHash h;
  h.add(row.design)
      .add(selections_digest(dl_result))
      .add(selections_digest(flow_result))
      .add(row.hit_rate);
  row.digest = h.digest();
  row.wall_s = wall.seconds();
  return row;
}

std::vector<VictimRow> attack_victims(
    const std::vector<sma::netlist::DesignProfile>& profiles,
    std::uint64_t seed, const sma::eval::ExperimentProfile& experiment,
    sma::attack::DlAttack& dl, sma::runtime::ThreadPool* pool) {
  return sma::runtime::parallel_map(
      pool, profiles.size(), /*grain=*/1, [&](std::size_t i) {
        return attack_victim(profiles[i], seed, experiment, dl, pool);
      });
}

std::uint64_t model_digest(sma::attack::DlAttack& dl) {
  std::ostringstream bytes;
  dl.net().save(bytes);
  const std::string s = bytes.str();
  return sma::util::ContentHash().add_bytes(s.data(), s.size()).digest();
}

}  // namespace perfbench
