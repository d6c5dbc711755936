#include "dtnsim/report/analysis.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "dtnsim/obs/metrics.hpp"

namespace dtnsim::report {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

SeriesStats rate_stats(const obs::SeriesTable& series, const std::string& column,
                       units::SimTime from, units::SimTime to) {
  SeriesStats out;
  const auto t = series.column("time_s");
  const auto v = series.column(column);
  std::vector<double> window;
  double sum = 0.0;
  for (std::size_t i = 0; i < t.size() && i < v.size(); ++i) {
    if (t[i] < from.seconds() || t[i] > to.seconds()) continue;
    window.push_back(v[i]);
    sum += v[i];
  }
  out.samples = window.size();
  if (window.empty()) return out;
  out.mean = units::Rate::from_bps(sum / static_cast<double>(window.size()));
  out.p50 = units::Rate::from_bps(percentile(window, 0.5));
  out.p99 = units::Rate::from_bps(percentile(window, 0.99));
  return out;
}

RecoveryStats analyze_recovery(const obs::SeriesTable& series,
                               const std::string& column, units::SimTime start,
                               units::SimTime stop) {
  RecoveryStats out;
  const auto t = series.column("time_s");
  const auto bps = series.column(column);
  const double start_sec = start.seconds();
  const double stop_sec = stop.seconds();
  double base_sum = 0.0;
  int base_n = 0;
  double dip = 0.0;
  bool have_dip = false;
  for (std::size_t i = 0; i < t.size() && i < bps.size(); ++i) {
    if (t[i] >= start_sec - 10.0 && t[i] < start_sec) {
      base_sum += bps[i];
      ++base_n;
      ++out.samples;
    } else if (t[i] >= start_sec && t[i] <= stop_sec) {
      if (!have_dip || bps[i] < dip) dip = bps[i];
      have_dip = true;
      ++out.samples;
    }
  }
  const double baseline_bps = base_n > 0 ? base_sum / base_n : 0.0;
  out.baseline = units::Rate::from_bps(baseline_bps);
  out.dip = units::Rate::from_bps(have_dip ? std::max(dip, 0.0) : 0.0);
  for (std::size_t i = 0; i < t.size() && i < bps.size(); ++i) {
    if (t[i] > stop_sec && bps[i] >= 0.9 * baseline_bps) {
      out.recovered = true;
      out.recovery = units::SimTime::from_seconds(t[i] - stop_sec);
      break;
    }
  }
  return out;
}

units::Rate per_flow_skew(const obs::SeriesTable& series, units::SimTime from,
                          units::SimTime to) {
  const auto t = series.column("time_s");
  const auto lo = series.column("flow.per_flow_min_bps");
  const auto hi = series.column("flow.per_flow_max_bps");
  if (lo.empty() || hi.empty()) return units::Rate();
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < t.size() && i < lo.size() && i < hi.size(); ++i) {
    if (t[i] < from.seconds() || t[i] > to.seconds()) continue;
    sum += std::max(hi[i] - lo[i], 0.0);
    ++n;
  }
  if (n == 0) return units::Rate();
  return units::Rate::from_bps(sum / static_cast<double>(n));
}

std::optional<std::pair<units::SimTime, units::SimTime>> episode_window(
    const scenario::EventLog& log) {
  bool any = false;
  double first = 0.0;
  double last = 0.0;
  for (const auto& e : log.events) {
    if (!e.applied) continue;
    const double end = e.end_sec > 0.0 ? e.end_sec : e.fire_sec;
    if (!any || e.fire_sec < first) first = e.fire_sec;
    if (!any || end > last) last = end;
    any = true;
  }
  if (!any) return std::nullopt;
  return std::make_pair(units::SimTime::from_seconds(first),
                        units::SimTime::from_seconds(last));
}

std::string goodput_column(const obs::SeriesTable& series) {
  for (const obs::EngineMetrics* m : {&obs::kFluidMetrics, &obs::kPacketMetrics}) {
    const char* name = m->goodput_bps;
    if (series.column_index(name) != static_cast<std::size_t>(-1)) return name;
  }
  return "";
}

}  // namespace dtnsim::report
