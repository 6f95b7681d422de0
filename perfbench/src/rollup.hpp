// Lossless roll-up of traced windows into per-(cat, name) aggregates.
//
// A traced window is one tracing interval (obs::set_tracing_enabled on, the
// work, off). Its events are folded into count, total and self time per
// (category, name) — the benchmark's own "perfbench" spans around library
// calls and the program's existing spans alike — together with coverage:
// the share of the window's wall time during which some span was open.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace perfbench {

struct SpanTotals {
  long count = 0;
  double total_s = 0.0;
  double self_s = 0.0;  ///< total minus time covered by child spans
};

class TraceRollup {
 public:
  /// Fold one window's events, recorded within [start_us, end_us).
  void add_window(const std::vector<sma::obs::TraceEvent>& events,
                  double start_us, double end_us);

  const std::map<std::pair<std::string, std::string>, SpanTotals>& spans()
      const {
    return spans_;
  }
  /// Totals of one (cat, name), zero when it never ran.
  SpanTotals get(const std::string& cat, const std::string& name) const;

  double wall_s() const { return wall_us_ * 1e-6; }
  long events() const { return events_; }
  /// Share of traced wall time inside at least one span, on any thread.
  double coverage() const;
  /// Share of all spans' self time that the program's own spans hold; the
  /// rest is self time of the benchmark's spans around library calls,
  /// i.e. library work the program's instrumentation does not explain.
  double program_self_share() const;

 private:
  std::map<std::pair<std::string, std::string>, SpanTotals> spans_;
  double wall_us_ = 0.0;
  double covered_us_ = 0.0;
  long events_ = 0;
};

/// Counter and histogram changes of the metrics registry between two
/// snapshots, summed over windows.
class MetricsDelta {
 public:
  void add(const sma::obs::Registry::Snapshot& before,
           const sma::obs::Registry::Snapshot& after);

  std::uint64_t counter(const std::string& name) const;
  /// Percentile `p` in [0, 1] of a histogram delta, interpolated linearly
  /// inside its power-of-two bucket; 0 when the histogram is empty.
  double histogram_percentile(const std::string& name, double p) const;
  double histogram_mean(const std::string& name) const;

 private:
  const sma::obs::Registry::HistogramSnapshot* histogram(
      const std::string& name) const;

  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, sma::obs::Registry::HistogramSnapshot> histograms_;
};

}  // namespace perfbench
