#include "rollup.hpp"

#include <algorithm>

namespace perfbench {

namespace {

constexpr const char* kBenchCategory = "perfbench";

/// Length of the union of [start, end) intervals, clipped to the window.
double union_length(std::vector<std::pair<double, double>> intervals,
                    double start_us, double end_us) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0.0;
  double open_start = 0.0;
  double open_end = -1.0;
  for (auto [s, e] : intervals) {
    s = std::max(s, start_us);
    e = std::min(e, end_us);
    if (e <= s) continue;
    if (s > open_end) {
      if (open_end > open_start) covered += open_end - open_start;
      open_start = s;
      open_end = e;
    } else {
      open_end = std::max(open_end, e);
    }
  }
  if (open_end > open_start) covered += open_end - open_start;
  return covered;
}

}  // namespace

void TraceRollup::add_window(const std::vector<sma::obs::TraceEvent>& events,
                             double start_us, double end_us) {
  wall_us_ += end_us - start_us;
  events_ += static_cast<long>(events.size());

  // Self time: per thread, spans nest (RAII guards close children first),
  // so a stack over start-ordered events finds each span's direct parent.
  std::map<int, std::vector<const sma::obs::TraceEvent*>> by_thread;
  std::vector<std::pair<double, double>> intervals;
  for (const sma::obs::TraceEvent& e : events) {
    by_thread[e.tid].push_back(&e);
    intervals.emplace_back(e.ts_us, e.ts_us + e.dur_us);
  }
  for (auto& [tid, list] : by_thread) {
    std::sort(list.begin(), list.end(),
              [](const sma::obs::TraceEvent* a, const sma::obs::TraceEvent* b) {
                if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
                return a->dur_us > b->dur_us;  // parent before its child
              });
    struct Open {
      double end_us;
      SpanTotals* totals;
    };
    std::vector<Open> stack;
    for (const sma::obs::TraceEvent* e : list) {
      while (!stack.empty() && stack.back().end_us <= e->ts_us) {
        stack.pop_back();
      }
      SpanTotals& totals = spans_[{e->cat, e->name}];
      totals.count += 1;
      totals.total_s += e->dur_us * 1e-6;
      totals.self_s += e->dur_us * 1e-6;
      if (!stack.empty()) stack.back().totals->self_s -= e->dur_us * 1e-6;
      stack.push_back({e->ts_us + e->dur_us, &totals});
    }
  }
  covered_us_ += union_length(std::move(intervals), start_us, end_us);
}

SpanTotals TraceRollup::get(const std::string& cat,
                            const std::string& name) const {
  auto it = spans_.find({cat, name});
  return it == spans_.end() ? SpanTotals{} : it->second;
}

double TraceRollup::coverage() const {
  return wall_us_ > 0.0 ? covered_us_ / wall_us_ : 0.0;
}

double TraceRollup::program_self_share() const {
  double all = 0.0;
  double program = 0.0;
  for (const auto& [key, totals] : spans_) {
    all += totals.self_s;
    if (key.first != kBenchCategory) program += totals.self_s;
  }
  return all > 0.0 ? program / all : 0.0;
}

void MetricsDelta::add(const sma::obs::Registry::Snapshot& before,
                       const sma::obs::Registry::Snapshot& after) {
  std::map<std::string, std::uint64_t> base;
  for (const auto& [name, value] : before.counters) base[name] = value;
  for (const auto& [name, value] : after.counters) {
    counters_[name] += value - base[name];
  }

  std::map<std::string, const sma::obs::Registry::HistogramSnapshot*> hist_base;
  for (const auto& h : before.histograms) hist_base[h.name] = &h;
  for (const auto& h : after.histograms) {
    sma::obs::Registry::HistogramSnapshot& acc = histograms_[h.name];
    acc.name = h.name;
    const auto* b = hist_base.count(h.name) ? hist_base[h.name] : nullptr;
    acc.count += h.count - (b ? b->count : 0);
    acc.sum += h.sum - (b ? b->sum : 0);
    if (acc.buckets.size() < h.buckets.size()) acc.buckets.resize(h.buckets.size());
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      const std::uint64_t prior =
          (b && i < b->buckets.size()) ? b->buckets[i] : 0;
      acc.buckets[i] += h.buckets[i] - prior;
    }
  }
}

std::uint64_t MetricsDelta::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

const sma::obs::Registry::HistogramSnapshot* MetricsDelta::histogram(
    const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

double MetricsDelta::histogram_percentile(const std::string& name,
                                          double p) const {
  const auto* h = histogram(name);
  if (h == nullptr || h->count == 0) return 0.0;
  const double rank = p * static_cast<double>(h->count);
  double seen = 0.0;
  for (std::size_t b = 0; b < h->buckets.size(); ++b) {
    const double in_bucket = static_cast<double>(h->buckets[b]);
    if (in_bucket > 0.0 && seen + in_bucket >= rank) {
      const double lo = static_cast<double>(
          sma::obs::Histogram::bucket_floor(static_cast<int>(b)));
      const double hi = b == 0 ? 1.0 : lo * 2.0;
      return lo + (hi - lo) * std::clamp((rank - seen) / in_bucket, 0.0, 1.0);
    }
    seen += in_bucket;
  }
  return static_cast<double>(
      sma::obs::Histogram::bucket_floor(static_cast<int>(h->buckets.size()) - 1));
}

double MetricsDelta::histogram_mean(const std::string& name) const {
  const auto* h = histogram(name);
  if (h == nullptr || h->count == 0) return 0.0;
  return static_cast<double>(h->sum) / static_cast<double>(h->count);
}

}  // namespace perfbench
