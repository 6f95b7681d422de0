// Self-tests of the benchmark itself.
//
// Fidelity: the benchmark composes the Table-3 pipeline from public calls
// (pipeline.hpp). On a tiny configuration that composition must produce
// eval::run_table3's row bit for bit, so the benchmark measures the
// program the paper reproduces rather than a lookalike. run_table3 always
// trains on the full training corpus, so the tiny configuration keeps the
// corpus and shrinks the schedule instead: one epoch, a few queries per
// design, one victim.
//
// Roll-up: self time and coverage of a hand-built trace.
#include <gtest/gtest.h>

#include <cstring>

#include "eval/experiment.hpp"
#include "pipeline.hpp"
#include "rollup.hpp"

namespace {

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Fidelity, ComposedVictimPipelineMatchesRunTable3) {
  sma::eval::ExperimentProfile experiment =
      sma::eval::ExperimentProfile::fast();
  experiment.train.epochs = 1;
  experiment.train.max_queries_per_design = 8;
  const std::uint64_t seed = 2019;
  const sma::netlist::DesignProfile& victim =
      sma::netlist::find_profile("c432");

  std::unique_ptr<sma::runtime::ThreadPool> pool =
      experiment.runtime.make_pool();
  std::vector<perfbench::BuiltDesign> corpus = perfbench::build_corpus(
      sma::netlist::training_profiles(), seed, experiment, pool.get());
  sma::attack::DlAttack dl = perfbench::train_model(
      corpus, experiment, experiment.train, seed, pool.get(), nullptr);
  const perfbench::VictimRow row =
      perfbench::attack_victim(victim, seed, experiment, dl, pool.get());
  ASSERT_GT(row.num_queries, 0);

  const sma::eval::Table3Result table = sma::eval::run_table3(
      perfbench::kSplitLayer, experiment, sma::layout::FlowConfig{}, {victim},
      seed);
  ASSERT_EQ(table.rows.size(), 1u);
  const sma::eval::Table3Row& expected = table.rows[0];
  EXPECT_EQ(row.design, expected.design);
  // A layout-dependent value, so equality below is not vacuous.
  EXPECT_GT(expected.hit_rate, 0.0);
  EXPECT_TRUE(bit_equal(row.dl_ccr, expected.dl_ccr))
      << row.dl_ccr << " vs " << expected.dl_ccr;
  EXPECT_TRUE(bit_equal(row.hit_rate, expected.hit_rate))
      << row.hit_rate << " vs " << expected.hit_rate;
  if (!expected.flow_timed_out && !row.flow_timed_out) {
    EXPECT_TRUE(bit_equal(row.flow_ccr, expected.flow_ccr))
        << row.flow_ccr << " vs " << expected.flow_ccr;
  }
}

sma::obs::TraceEvent event(const char* cat, const char* name, double ts,
                           double dur, int tid) {
  sma::obs::TraceEvent e;
  e.cat = cat;
  e.name = name;
  e.ts_us = ts;
  e.dur_us = dur;
  e.tid = tid;
  return e;
}

TEST(Rollup, SelfTimeSubtractsDirectChildrenPerThread) {
  perfbench::TraceRollup rollup;
  // Thread 1: outer [0, 100) holds a [10, 50) which holds b [20, 30);
  // thread 2: b [60, 80), concurrent with outer but not nested in it.
  rollup.add_window({event("perfbench", "outer", 0, 100, 1),
                     event("nn", "a", 10, 40, 1),
                     event("nn", "b", 20, 10, 1),
                     event("nn", "b", 60, 20, 2)},
                    0, 200);
  EXPECT_DOUBLE_EQ(rollup.get("perfbench", "outer").self_s, 60e-6);
  EXPECT_DOUBLE_EQ(rollup.get("nn", "a").self_s, 30e-6);
  EXPECT_EQ(rollup.get("nn", "b").count, 2);
  EXPECT_DOUBLE_EQ(rollup.get("nn", "b").self_s, 30e-6);
  EXPECT_DOUBLE_EQ(rollup.get("nn", "b").total_s, 30e-6);
  EXPECT_DOUBLE_EQ(rollup.coverage(), 0.5);
  // Self time 60 of the benchmark's span against 60 of the program's.
  EXPECT_DOUBLE_EQ(rollup.program_self_share(), 0.5);
  EXPECT_EQ(rollup.get("nn", "missing").count, 0);
}

TEST(Rollup, HistogramDeltaPercentileInterpolatesInsideBucket) {
  sma::obs::Registry::Snapshot before;
  sma::obs::Registry::Snapshot after;
  sma::obs::Registry::HistogramSnapshot h;
  h.name = "wait_us";
  h.count = 4;
  h.sum = 4 * 12;
  h.buckets = {0, 0, 0, 0, 4};  // all in [8, 16)
  after.histograms.push_back(h);
  perfbench::MetricsDelta delta;
  delta.add(before, after);
  EXPECT_DOUBLE_EQ(delta.histogram_percentile("wait_us", 0.5), 12.0);
  EXPECT_DOUBLE_EQ(delta.histogram_mean("wait_us"), 12.0);
  EXPECT_DOUBLE_EQ(delta.histogram_percentile("absent", 0.5), 0.0);
}

}  // namespace
