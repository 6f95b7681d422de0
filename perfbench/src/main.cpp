// perfbench: the repository's benchmark harness.
//
//   perfbench --workload train|victims|serve --seed N --seconds S --trace 0|1
//
// Runs one workload through the library's public calls (see pipeline.hpp)
// and prints ONE JSON object on stdout: the end-to-end metrics with their
// sample counts, the per-layer metrics, the output checks and the host and
// build fingerprint. perfbench/run.py builds this program, runs it and
// turns that object into the benchmark's result line.
//
// Every run sets its workload up several times (setup_s is their median),
// then measures repetitions until `--seconds` have passed and at least the
// workload's minimum count ran. With `--trace 1` the last setup and the
// second repetition run traced; per-layer metrics cover exactly those
// traced windows, and the untraced repetitions give the tracing overhead.
// Human-readable progress goes to stderr.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attack/dl_attack.hpp"
#include "nn/gemm.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pipeline.hpp"
#include "rollup.hpp"
#include "serve/serve_loop.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::BuiltDesign;
using perfbench::CallTimes;
using perfbench::VictimRow;

// ---- workload constants ------------------------------------------------

/// Training epochs per DlAttack::train call of the `train` workload: two,
/// so the second epoch shows the arena steady state.
constexpr int kTrainEpochs = 2;
/// Queries per corpus design per epoch: short repetitions, so a run holds
/// several and reports their median.
constexpr int kTrainQueriesPerDesign = 80;
/// Gradient lanes of every training run (ExperimentProfile::fast()'s).
constexpr int kTrainLanes = 8;
/// Setups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Minimum measured repetitions (digest checks compare repetitions).
constexpr int kMinReps = 2;
/// The `victims` and `serve` model: a short schedule on the corpus slice.
constexpr int kSliceEpochs = 2;
constexpr int kSliceQueriesPerDesign = 120;
/// Closed-loop serve clients: min(kServeClients, nproc).
constexpr int kServeClients = 4;
/// Submits per client before a serve pass starts timing.
constexpr int kServeWarmupPerClient = 64;
/// Serve answers per block: the serve workload's repetitions, each with
/// enough samples for its own p99.
constexpr std::size_t kServeBlock = 1000;
/// Ring capacity per thread for traced windows; every window must finish
/// with zero dropped events.
constexpr std::size_t kTraceRingEvents = std::size_t{1} << 20;

const std::vector<std::string> kCorpusSlice = {"t_alu2", "t_b04"};
const std::vector<std::string> kVictims = {"c880", "c1908", "c2670", "b11",
                                           "b13"};

// ---- small helpers -----------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload train|victims|serve --seed N"
               " --seconds S --trace 0|1\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (opt.workload != "train" && opt.workload != "victims" &&
      opt.workload != "serve") {
    usage("unknown workload " + opt.workload);
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

/// Linear interpolation between closest ranks (numpy's default).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::vector<sma::netlist::DesignProfile> profiles_named(
    const std::vector<std::string>& names) {
  std::vector<sma::netlist::DesignProfile> out;
  for (const std::string& name : names) {
    out.push_back(sma::netlist::find_profile(name));
  }
  return out;
}

/// Deterministic Fisher-Yates over splitmix64, identical on every
/// standard library (std::shuffle's distribution is not).
template <class T>
void seeded_shuffle(std::vector<T>& v, std::uint64_t seed) {
  std::uint64_t state = seed;
  auto next = [&state] {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[next() % i]);
  }
}

// ---- one run's state ---------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  long samples = 0;
};

/// The per-layer metrics, in BENCHMARK.json order; every run reports all
/// of them (0 where the workload never enters the layer).
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"route.s", "s"},
    {"route.negotiation_s", "s"},
    {"route.negotiation_rounds", "count"},
    {"route.ripped_up", "count"},
    {"route.waves", "count"},
    {"route.fallback_routes", "count"},
    {"place.s", "s"},
    {"place.relax_passes", "count"},
    {"netlist.build_s", "s"},
    {"split.extract_s", "s"},
    {"dataset.build_s", "s"},
    {"dataset.images_rendered", "count"},
    {"attack.dl_s", "s"},
    {"attack.dl_qps", "1/s"},
    {"attack.flow_s", "s"},
    {"attack.replica_wait_s", "s"},
    {"attack.replica_leases", "count"},
    {"attack.replica_clones", "count"},
    {"nn.conv_fwd_self_s", "s"},
    {"nn.im2col_self_s", "s"},
    {"nn.conv_bwd_self_s", "s"},
    {"nn.linear_fwd_self_s", "s"},
    {"nn.linear_bwd_self_s", "s"},
    {"nn.train_step_self_s", "s"},
    {"nn.gemm_calls", "count"},
    {"nn.pack_bytes", "B"},
    {"nn.arena_allocs_steady", "count"},
    {"serve.batches", "count"},
    {"serve.batch_width_mean", "count"},
    {"serve.queue_wait_p50_us", "us"},
    {"serve.queue_wait_p99_us", "us"},
    {"serve.lease_held_p50_us", "us"},
    {"serve.failed", "count"},
    {"runtime.cpu_util", "ratio"},
    {"victims.critical_design_s", "s"},
    {"tail.p99_ms", "ms"},
    {"trace.coverage", "ratio"},
    {"trace.program_self_share", "ratio"},
    {"trace.overhead", "ratio"},
    {"trace.dropped_events", "count"},
    {"trace.events", "count"},
};

/// Operations attempted and failed, with the first few failure reasons.
/// Thread-safe: serve clients record from their own threads.
class Ledger {
 public:
  void attempt(long n = 1) {
    std::lock_guard<std::mutex> lock(mutex_);
    attempted_ += n;
  }
  void fail(const std::string& why) {
    std::lock_guard<std::mutex> lock(mutex_);
    ++failed_;
    if (reasons_.size() < 20) reasons_.push_back(why);
    std::cerr << "perfbench: FAILED: " << why << "\n";
  }
  /// A check that must hold; a miss counts as one failed operation.
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  long attempted() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return attempted_;
  }
  long failed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
  }
  std::vector<std::string> reasons() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return reasons_;
  }

 private:
  mutable std::mutex mutex_;
  long attempted_ = 0;
  long failed_ = 0;
  std::vector<std::string> reasons_;
};

class Run {
 public:
  explicit Run(const Options& opt)
      : opt_(opt),
        threads_(experiment_.runtime.resolved()),
        pool_(experiment_.runtime.make_pool()) {}

  const Options& opt() const { return opt_; }
  const sma::eval::ExperimentProfile& experiment() const {
    return experiment_;
  }
  sma::runtime::ThreadPool* pool() { return pool_.get(); }
  int threads() const { return threads_; }
  Ledger& ledger() { return ledger_; }

  /// Time one setup (setup_s is the median over setups). With --trace 1
  /// the `traced` setup runs as a traced window.
  void setup(bool traced, const std::function<void()>& work) {
    sma::util::Timer timer;
    window(traced, work);
    setup_s_.push_back(timer.seconds());
  }

  /// Measured repetitions until the run length passed and at least
  /// `min_reps` ran. With --trace 1 the second repetition is traced and
  /// the others are not; untraced repetitions feed the end-to-end metrics
  /// and the tracing overhead's baseline.
  void measure(int min_reps, const std::function<void()>& rep) {
    if (opt_.trace) min_reps = std::max(min_reps, 2);
    sma::util::Timer elapsed;
    for (int r = 0; r < min_reps || elapsed.seconds() < opt_.seconds; ++r) {
      const bool traced = opt_.trace && r == 1;
      const double cpu0 = cpu_seconds();
      sma::util::Timer timer;
      window(traced, rep);
      const double wall = timer.seconds();
      if (traced) {
        traced_rep_s_.push_back(wall);
      } else {
        untraced_rep_s_.push_back(wall);
        untraced_cpu_s_ += cpu_seconds() - cpu0;
      }
    }
  }

  /// Library call times from a traced window (ignored otherwise).
  void add_calls(const CallTimes& t) {
    if (in_traced_window_) traced_calls_ += t;
  }
  /// Add to a per-layer metric the workload measures itself; only
  /// traced windows count.
  void add_layer(const std::string& name, double value) {
    if (in_traced_window_) layer_extra_[name] += value;
  }

  /// End-to-end input: `queries` done in `wall_s`, with the latency of
  /// each unit of work in `latency_ms`. Only untraced repetitions count.
  void add_sample(double queries, double wall_s,
                  std::vector<double> latency_ms) {
    if (!in_traced_window_) {
      samples_.push_back({queries, wall_s, std::move(latency_ms)});
    }
  }

  /// A result value for the detail output (already JSON).
  void note(const std::string& key, const std::string& json_value) {
    notes_.emplace_back(key, json_value);
  }

  /// Print the run's JSON object on stdout.
  void finish();

 private:
  void window(bool traced, const std::function<void()>& work) {
    if (!traced) {
      work();
      return;
    }
    const auto before = sma::obs::Registry::global().snapshot();
    sma::obs::set_tracing_enabled(true);
    const double start = sma::obs::now_us();
    in_traced_window_ = true;
    work();
    in_traced_window_ = false;
    const double end = sma::obs::now_us();
    sma::obs::set_tracing_enabled(false);
    rollup_.add_window(sma::obs::collect_events(), start, end);
    dropped_ += sma::obs::dropped_events();
    delta_.add(before, sma::obs::Registry::global().snapshot());
  }

  double latency_ms(double p) const;
  std::vector<double> sample_qps() const;
  std::vector<Metric> end_to_end() const;
  std::vector<Metric> per_layer() const;

  Options opt_;
  sma::eval::ExperimentProfile experiment_ =
      sma::eval::ExperimentProfile::fast();
  int threads_;
  std::unique_ptr<sma::runtime::ThreadPool> pool_;
  Ledger ledger_;

  perfbench::TraceRollup rollup_;
  perfbench::MetricsDelta delta_;
  std::uint64_t dropped_ = 0;
  bool in_traced_window_ = false;
  CallTimes traced_calls_;
  std::map<std::string, double> layer_extra_;

  std::vector<double> setup_s_;
  std::vector<double> untraced_rep_s_;
  std::vector<double> traced_rep_s_;
  double untraced_cpu_s_ = 0.0;
  struct Sample {
    double queries;
    double wall_s;
    std::vector<double> latency_ms;
  };
  std::vector<Sample> samples_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// Latency percentile `p` of the untraced samples: the median of each
/// sample's own percentile when every sample holds enough latencies for a
/// p99 (serve blocks); otherwise the percentile of all pooled latencies.
double Run::latency_ms(double p) const {
  std::vector<double> pooled;
  std::vector<double> per_sample;
  bool blocks = !samples_.empty();
  for (const Sample& sample : samples_) {
    pooled.insert(pooled.end(), sample.latency_ms.begin(),
                  sample.latency_ms.end());
    per_sample.push_back(percentile(sample.latency_ms, p));
    blocks = blocks && sample.latency_ms.size() >= kServeBlock;
  }
  return blocks ? percentile(per_sample, 0.5) : percentile(pooled, p);
}

std::vector<double> Run::sample_qps() const {
  std::vector<double> qps;
  for (const Sample& sample : samples_) {
    qps.push_back(sample.queries / sample.wall_s);
  }
  return qps;
}

std::vector<Metric> Run::end_to_end() const {
  long latencies = 0;
  for (const Sample& sample : samples_) {
    latencies += static_cast<long>(sample.latency_ms.size());
  }
  return {
      {"setup_s", percentile(setup_s_, 0.5), "s",
       static_cast<long>(setup_s_.size())},
      {"peak_rss_mb", peak_rss_mb(), "MB", 1},
      {"qps", percentile(sample_qps(), 0.5), "1/s",
       static_cast<long>(samples_.size())},
      {"p50_ms", latency_ms(0.50), "ms", latencies},
  };
}

std::vector<Metric> Run::per_layer() const {
  const CallTimes& c = traced_calls_;
  std::map<std::string, double> v = layer_extra_;
  v["route.s"] = c.route_s;
  v["route.negotiation_s"] = c.route_negotiation_s;
  v["route.negotiation_rounds"] = delta_.counter("route.negotiation_rounds");
  v["route.ripped_up"] = delta_.counter("route.ripped_up");
  v["route.waves"] = delta_.counter("route.waves");
  v["route.fallback_routes"] = c.route_fallback_routes;
  v["place.s"] = c.place_s;
  v["place.relax_passes"] = delta_.counter("place.relax_passes");
  v["netlist.build_s"] = c.netlist_build_s;
  v["split.extract_s"] = c.split_extract_s;
  v["dataset.build_s"] = c.dataset_build_s;
  v["dataset.images_rendered"] = delta_.counter("dataset.images_rendered");
  v["attack.dl_s"] = c.attack_dl_s;
  v["attack.dl_qps"] =
      c.attack_dl_s > 0.0 ? c.attack_dl_queries / c.attack_dl_s : 0.0;
  v["attack.flow_s"] = c.attack_flow_s;
  for (const char* span : {"conv_fwd", "im2col", "conv_bwd", "linear_fwd",
                           "linear_bwd", "train_step"}) {
    v[std::string("nn.") + span + "_self_s"] = rollup_.get("nn", span).self_s;
  }
  v["nn.gemm_calls"] = static_cast<double>(
      delta_.counter("gemm.blocked_calls") +
      delta_.counter("gemm.reference_calls"));
  v["nn.pack_bytes"] = delta_.counter("nn.pack_bytes");
  v["serve.batch_width_mean"] = delta_.histogram_mean("serve.batch_width");
  v["serve.queue_wait_p50_us"] =
      delta_.histogram_percentile("serve.queue_wait_us", 0.50);
  v["serve.queue_wait_p99_us"] =
      delta_.histogram_percentile("serve.queue_wait_us", 0.99);
  v["serve.lease_held_p50_us"] =
      delta_.histogram_percentile("replica.lease_held_us", 0.50);
  const double untraced_wall =
      std::accumulate(untraced_rep_s_.begin(), untraced_rep_s_.end(), 0.0);
  v["runtime.cpu_util"] =
      untraced_wall > 0.0 ? untraced_cpu_s_ / (untraced_wall * threads_) : 0.0;
  v["tail.p99_ms"] = latency_ms(0.99);
  v["trace.coverage"] = rollup_.coverage();
  v["trace.program_self_share"] = rollup_.program_self_share();
  v["trace.overhead"] =
      traced_rep_s_.empty() || untraced_rep_s_.empty()
          ? 0.0
          : percentile(traced_rep_s_, 0.5) /
                    percentile(untraced_rep_s_, 0.5) -
                1.0;
  v["trace.dropped_events"] = static_cast<double>(dropped_);
  v["trace.events"] = static_cast<double>(rollup_.events());

  std::vector<Metric> out;
  for (const auto& [name, unit] : kLayerMetrics) {
    out.push_back({name, v.count(name) ? v[name] : 0.0, unit, 1});
  }
  return out;
}

void Run::finish() {
  if (opt_.trace) {
    ledger_.check(dropped_ == 0, "trace ring dropped " +
                                     std::to_string(dropped_) + " events");
  }
  std::ostringstream out;
  out << "{\"workload\": " << json_string(opt_.workload)
      << ", \"seed\": " << opt_.seed << ", \"seconds\": "
      << json_number(opt_.seconds) << ", \"trace\": " << (opt_.trace ? 1 : 0);
  out << ", \"fingerprint\": {\"nproc\": "
      << std::thread::hardware_concurrency() << ", \"pool_threads\": "
      << threads_ << ", \"isa\": " << json_string(sma::nn::active_isa())
      << ", \"compiler\": " << json_string(std::string(
#if defined(__clang__)
                                   "clang "
#elif defined(__GNUC__)
                                   "gcc "
#endif
                                   ) + __VERSION__)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE) << "}";
  const long failed = ledger_.failed();
  out << ", \"correct\": " << (failed == 0 ? "true" : "false")
      << ", \"attempted\": " << std::max(1L, ledger_.attempted())
      << ", \"failed\": " << failed << ", \"failures\": [";
  const std::vector<std::string> reasons = ledger_.reasons();
  for (std::size_t i = 0; i < reasons.size(); ++i) {
    out << (i ? ", " : "") << json_string(reasons[i]);
  }
  out << "]";
  const auto metrics_json = [&](const char* key,
                                const std::vector<Metric>& metrics) {
    out << ", " << json_string(key) << ": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const Metric& m = metrics[i];
      out << (i ? ", " : "") << json_string(m.name) << ": {\"value\": "
          << json_number(m.value) << ", \"unit\": " << json_string(m.unit)
          << ", \"samples\": " << m.samples << "}";
    }
    out << "}";
  };
  metrics_json("end_to_end", end_to_end());
  metrics_json("per_layer", per_layer());
  out << ", \"spans\": [";
  bool first = true;
  for (const auto& [key, totals] : rollup_.spans()) {
    out << (first ? "" : ", ") << "{\"cat\": " << json_string(key.first)
        << ", \"name\": " << json_string(key.second)
        << ", \"count\": " << totals.count
        << ", \"total_s\": " << json_number(totals.total_s)
        << ", \"self_s\": " << json_number(totals.self_s) << "}";
    first = false;
  }
  out << "], \"traced_wall_s\": " << json_number(rollup_.wall_s());
  const auto list = [](const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (i ? ", " : "") + json_number(v[i]);
    }
    return s + "]";
  };
  out << ", \"sample_qps\": " << list(sample_qps())
      << ", \"setups_s\": " << list(setup_s_)
      << ", \"untraced_reps_s\": " << list(untraced_rep_s_)
      << ", \"traced_reps_s\": " << list(traced_rep_s_);
  for (const auto& [key, value] : notes_) {
    out << ", " << json_string(key) << ": " << value;
  }
  out << "}";
  std::cout << out.str() << std::endl;
}

// ---- workloads ---------------------------------------------------------

sma::attack::TrainConfig slice_train_config(
    const sma::eval::ExperimentProfile& experiment) {
  sma::attack::TrainConfig config = experiment.train;
  config.epochs = kSliceEpochs;
  config.max_queries_per_design = kSliceQueriesPerDesign;
  config.batch_size = kTrainLanes;
  return config;
}

long steady_arena_allocs(const sma::attack::TrainStats& stats) {
  long allocs = 0;
  for (std::size_t e = 1; e < stats.arena_allocs_per_epoch.size(); ++e) {
    allocs += stats.arena_allocs_per_epoch[e];
  }
  return allocs;
}

/// Replica-lease activity between two ReplicaSet::LeaseStats snapshots.
void add_lease_layers(Run& run, const sma::attack::ReplicaSet::LeaseStats& before,
                      const sma::attack::ReplicaSet::LeaseStats& after) {
  run.add_layer("attack.replica_wait_s",
                after.wait_seconds - before.wait_seconds);
  run.add_layer("attack.replica_leases",
                static_cast<double>(after.leases - before.leases));
  run.add_layer("attack.replica_clones",
                static_cast<double>(after.clones_created -
                                    before.clones_created));
}

/// Setup shared by `victims` and `serve`: the model trained on the corpus
/// slice. Every setup's model must have the same digest.
std::unique_ptr<sma::attack::DlAttack> train_slice_model(
    Run& run, std::optional<std::uint64_t>& first_digest) {
  const Options& opt = run.opt();
  std::vector<BuiltDesign> slice =
      perfbench::build_corpus(profiles_named(kCorpusSlice), opt.seed,
                              run.experiment(), run.pool());
  run.ledger().attempt(static_cast<long>(slice.size()));
  for (const BuiltDesign& d : slice) run.add_calls(d.times);
  sma::attack::TrainStats stats;
  auto dl = std::make_unique<sma::attack::DlAttack>(perfbench::train_model(
      slice, run.experiment(), slice_train_config(run.experiment()),
      opt.seed, run.pool(), &stats));
  run.ledger().attempt();
  run.add_layer("nn.arena_allocs_steady",
                static_cast<double>(steady_arena_allocs(stats)));
  const std::uint64_t digest = perfbench::model_digest(*dl);
  if (!first_digest) first_digest = digest;
  run.ledger().check(digest == *first_digest,
                     "slice model digest differs between setups");
  return dl;
}

void run_train(Run& run) {
  const Options& opt = run.opt();
  const auto& corpus_profiles = sma::netlist::training_profiles();
  std::vector<BuiltDesign> corpus;
  for (int s = 0; s < kSetups; ++s) {
    corpus.clear();
    run.setup(opt.trace && s == kSetups - 1, [&] {
      corpus = perfbench::build_corpus(corpus_profiles, opt.seed,
                                       run.experiment(), run.pool());
      run.ledger().attempt(static_cast<long>(corpus.size()));
      for (const BuiltDesign& d : corpus) run.add_calls(d.times);
    });
  }
  long corpus_queries = 0;
  for (const BuiltDesign& d : corpus) {
    corpus_queries += static_cast<long>(d.dataset->num_queries());
  }

  sma::attack::TrainConfig config = run.experiment().train;
  config.epochs = kTrainEpochs;
  config.batch_size = kTrainLanes;
  config.max_queries_per_design = kTrainQueriesPerDesign;
  std::optional<std::uint64_t> first_digest;
  std::optional<double> first_loss;
  run.measure(kMinReps, [&] {
    run.ledger().attempt();
    sma::attack::TrainStats stats;
    sma::util::Timer timer;
    sma::attack::DlAttack dl = perfbench::train_model(
        corpus, run.experiment(), config, opt.seed, run.pool(), &stats);
    const double wall = timer.seconds();
    run.add_sample(static_cast<double>(stats.queries_seen), wall,
                   {wall * 1e3});
    run.add_layer("nn.arena_allocs_steady",
                  static_cast<double>(steady_arena_allocs(stats)));
    const std::uint64_t digest = perfbench::model_digest(dl);
    const double loss = stats.epoch_loss.empty() ? NAN : stats.epoch_loss.back();
    if (!first_digest) {
      first_digest = digest;
      first_loss = loss;
      run.note("train_loss", json_number(loss));
      run.note("model_digest", json_string(hex64(digest)));
      run.note("queries_per_epoch", std::to_string(stats.queries_seen /
                                                   std::max(1, kTrainEpochs)));
    }
    run.ledger().check(std::isfinite(loss), "train loss is not finite");
    run.ledger().check(digest == *first_digest &&
                           std::memcmp(&loss, &*first_loss, sizeof loss) == 0,
                       "trained model differs between repetitions");
  });
  run.note("corpus_queries", std::to_string(corpus_queries));
}

void run_victims(Run& run) {
  const Options& opt = run.opt();
  std::unique_ptr<sma::attack::DlAttack> dl;
  std::optional<std::uint64_t> model_digest;
  for (int s = 0; s < kSetups; ++s) {
    dl.reset();
    run.setup(opt.trace && s == kSetups - 1, [&] {
      dl = train_slice_model(run, model_digest);
    });
  }

  // Unlimited flow-attack budget: no row depends on contention.
  sma::eval::ExperimentProfile experiment = run.experiment();
  experiment.flow_attack.timeout_seconds = 0.0;
  const auto victims = profiles_named(kVictims);
  std::vector<std::uint64_t> first_rows;
  run.measure(kMinReps, [&] {
    run.ledger().attempt(static_cast<long>(victims.size()));
    const auto leases_before = dl->replica_lease_stats();
    sma::util::Timer timer;
    const std::vector<VictimRow> rows = perfbench::attack_victims(
        victims, opt.seed, experiment, *dl, run.pool());
    const double wall = timer.seconds();
    const auto leases_after = dl->replica_lease_stats();

    long queries = 0;
    double ccr_sum = 0.0;
    double critical = 0.0;
    std::vector<double> design_ms;
    for (const VictimRow& row : rows) {
      queries += row.num_queries;
      ccr_sum += row.dl_ccr;
      critical = std::max(critical, row.wall_s);
      design_ms.push_back(row.wall_s * 1e3);
      run.add_calls(row.times);
      run.ledger().check(!row.flow_timed_out,
                         row.design + ": flow attack timed out");
    }
    run.add_sample(static_cast<double>(queries), wall, std::move(design_ms));
    run.add_layer("victims.critical_design_s", critical);
    add_lease_layers(run, leases_before, leases_after);
    if (first_rows.empty()) {
      std::string table = "[";
      for (const VictimRow& row : rows) {
        first_rows.push_back(row.digest);
        table += (table.size() > 1 ? ", " : "") + std::string("{\"design\": ") +
                 json_string(row.design) +
                 ", \"queries\": " + std::to_string(row.num_queries) +
                 ", \"dl_ccr\": " + json_number(row.dl_ccr) +
                 ", \"hit_rate\": " + json_number(row.hit_rate) +
                 ", \"flow_ccr\": " + json_number(row.flow_ccr) +
                 ", \"digest\": " + json_string(hex64(row.digest)) + "}";
      }
      run.note("rows", table + "]");
      run.note("dl_ccr", json_number(ccr_sum / static_cast<double>(rows.size())));
      return;
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      run.ledger().check(rows[i].digest == first_rows[i],
                         rows[i].design + ": row differs between repetitions");
    }
  });
  run.note("model_digest", json_string(hex64(model_digest.value_or(0))));
}

void run_serve(Run& run) {
  const Options& opt = run.opt();
  const auto victims = profiles_named(kVictims);
  std::vector<std::uint64_t> seeds;
  for (const auto& profile : victims) {
    seeds.push_back(perfbench::victim_seed(opt.seed, profile));
  }
  std::unique_ptr<sma::attack::DlAttack> dl;
  std::vector<BuiltDesign> datasets;
  std::optional<std::uint64_t> model_digest;
  for (int s = 0; s < kSetups; ++s) {
    dl.reset();
    datasets.clear();
    run.setup(opt.trace && s == kSetups - 1, [&] {
      dl = train_slice_model(run, model_digest);
      datasets = perfbench::build_designs(victims, seeds, run.experiment(),
                                          run.pool());
      run.ledger().attempt(static_cast<long>(datasets.size()));
      for (const BuiltDesign& d : datasets) run.add_calls(d.times);
    });
  }

  // The oracle: a batch-1 DlAttack::attack over every victim dataset.
  std::vector<std::vector<sma::attack::Selection>> reference;
  std::vector<std::pair<std::size_t, std::size_t>> order;
  for (std::size_t d = 0; d < datasets.size(); ++d) {
    run.ledger().attempt();
    reference.push_back(dl->attack(*datasets[d].dataset, run.pool()).selections);
    for (std::size_t q = 0; q < datasets[d].dataset->num_queries(); ++q) {
      order.emplace_back(d, q);
    }
  }
  seeded_shuffle(order, opt.seed ^ 0x5e57e5ull);
  run.note("queries", std::to_string(order.size()));

  const int clients = std::max(
      1, std::min<int>(kServeClients,
                       static_cast<int>(std::thread::hardware_concurrency())));
  run.note("clients", std::to_string(clients));
  run.measure(1, [&] {
    sma::serve::ServeLoop loop(*dl, sma::serve::ServeConfig{});
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> timed_answers{0};

    // Closed loop: each client submits its next query only after the
    // previous one was answered. A timed phase runs until `deadline` and
    // at least one block was answered; it returns each answer's
    // completion time (s since `start`) and latency (ms).
    struct Answer {
      double done_s;
      double latency_ms;
    };
    const auto run_clients = [&](bool timed, double seconds) {
      std::vector<std::vector<Answer>> answers(clients);
      std::vector<std::thread> threads;
      sma::util::Timer start;
      for (int c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
          for (int n = 0;; ++n) {
            if (timed ? start.seconds() >= seconds &&
                            timed_answers.load() >= kServeBlock
                      : n >= kServeWarmupPerClient) {
              break;
            }
            const auto [d, q] = order[next.fetch_add(1) % order.size()];
            run.ledger().attempt();
            try {
              const double t0 = start.seconds();
              const sma::attack::Selection got =
                  loop.submit(*datasets[d].dataset, q);
              const double t1 = start.seconds();
              const sma::attack::Selection& want = reference[d][q];
              if (got.sink_fragment != want.sink_fragment ||
                  got.chosen_source != want.chosen_source ||
                  got.correct != want.correct ||
                  got.num_sinks != want.num_sinks) {
                run.ledger().fail(datasets[d].name + " query " +
                                  std::to_string(q) +
                                  ": serve answer differs from batch-1 attack");
              }
              if (timed) {
                answers[c].push_back({t1, (t1 - t0) * 1e3});
                timed_answers.fetch_add(1);
              }
            } catch (const std::exception& e) {
              run.ledger().fail(std::string("serve submit: ") + e.what());
            }
          }
        });
      }
      for (std::thread& t : threads) t.join();
      std::vector<Answer> all;
      for (const auto& per_client : answers) {
        all.insert(all.end(), per_client.begin(), per_client.end());
      }
      std::sort(all.begin(), all.end(), [](const Answer& a, const Answer& b) {
        return a.done_s < b.done_s;
      });
      return all;
    };

    run_clients(false, 0.0);
    const auto leases_before = dl->replica_lease_stats();
    const sma::serve::ServeStats stats_before = loop.stats();
    const std::vector<Answer> answers = run_clients(true, opt.seconds);
    const sma::serve::ServeStats stats = loop.stats();
    const auto leases_after = dl->replica_lease_stats();
    loop.shutdown();

    // Consecutive blocks of kServeBlock answers, in completion order; a
    // trailing partial block is dropped.
    double block_start = 0.0;
    for (std::size_t b = 0; b + kServeBlock <= answers.size();
         b += kServeBlock) {
      std::vector<double> latency_ms;
      for (std::size_t i = b; i < b + kServeBlock; ++i) {
        latency_ms.push_back(answers[i].latency_ms);
      }
      const double block_end = answers[b + kServeBlock - 1].done_s;
      run.add_sample(static_cast<double>(kServeBlock), block_end - block_start,
                     std::move(latency_ms));
      block_start = block_end;
    }
    run.add_layer("serve.batches",
                  static_cast<double>(stats.batches - stats_before.batches));
    run.add_layer("serve.failed",
                  static_cast<double>(stats.failed - stats_before.failed));
    add_lease_layers(run, leases_before, leases_after);
  });
  run.note("model_digest", json_string(hex64(model_digest.value_or(0))));
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  sma::util::set_log_level(sma::util::LogLevel::kWarn);
  // Before any thread records: rings are sized when a thread first traces.
  sma::obs::set_ring_capacity(kTraceRingEvents);

  Run run(opt);
  std::cerr << "perfbench: workload " << opt.workload << ", seed " << opt.seed
            << ", " << run.threads() << " threads, trace " << opt.trace
            << "\n";
  try {
    if (opt.workload == "train") {
      run_train(run);
    } else if (opt.workload == "victims") {
      run_victims(run);
    } else {
      run_serve(run);
    }
  } catch (const std::exception& e) {
    run.ledger().fail(std::string("exception: ") + e.what());
  }
  run.finish();
  return 0;
}
