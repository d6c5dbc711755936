// Metrics registry: counters, gauges and time-weighted histograms.
//
// The paper's methodology is instrumentation-first — iperf3 interval
// reports, mpstat alongside, ss/ethtool counters to explain anomalies.
// This registry is the simulator's equivalent: every layer (kern, net,
// tcp, flow) publishes its counters here and the per-flow probe samples
// them on the engine clock. Design constraints:
//
//   - cheap enough to be always-on: updating a metric is a pointer-deref
//     plus an add/store; no locks, no allocation on the hot path.
//   - stable handles: registration returns a pointer that stays valid for
//     the registry's lifetime (metrics are stored in a deque).
//   - deterministic export order: metrics snapshot in registration order,
//     so CSV columns and golden tests are stable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace dtnsim::obs {

enum class MetricKind { Counter, Gauge, Histogram };

// Monotonically increasing total (bytes sent, drops, retransmit segments).
class Counter {
 public:
  void add(double delta) { value_ += delta; }
  void increment() { value_ += 1.0; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Last-write-wins instantaneous value (cwnd, optmem occupancy, utilization).
class Gauge {
 public:
  void set(double value) { value_ = value; }
  // Relative adjustment for backlog-style gauges (enqueue +, depart -).
  void add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Time-weighted distribution: add(value, dt) weighs each observation by how
// long it was in effect, so a 100 ms spike and a 10 s plateau contribute
// proportionally. Log2 buckets give a cheap shape summary for export.
class TimeWeightedHistogram {
 public:
  static constexpr int kBuckets = 64;  // bucket i covers [2^(i-1), 2^i)

  void add(double value, double weight_sec);

  double mean() const { return wtotal_ > 0 ? wsum_ / wtotal_ : 0.0; }
  double min() const { return wtotal_ > 0 ? min_ : 0.0; }
  double max() const { return wtotal_ > 0 ? max_ : 0.0; }
  double total_weight() const { return wtotal_; }
  // Smallest value v such that at least `p` (in [0,1]) of the observed
  // time was spent at values <= v. Bucket-resolution (factor-of-2) answer.
  double quantile(double p) const;

 private:
  double wsum_ = 0.0;
  double wtotal_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
  double weights_[kBuckets] = {};
};

struct MetricDesc {
  std::string name;  // dotted path, e.g. "zc.optmem_used"
  MetricKind kind = MetricKind::Gauge;
  std::string unit;  // "bytes", "bps", "frac", "segments", ...
  std::string help;
  // Labeled-family metadata; empty family means a plain (unlabeled) metric.
  // A labeled instance's full name is "family{key=value}" (see labeled_name).
  std::string family;
  std::string label_key;
  int label_value = -1;
};

// Canonical spelling of a labeled instance: "tcp.cwnd_bytes{flow=3}".
std::string labeled_name(const std::string& family, const std::string& key,
                         int value);

// One exported observation of a metric (see Registry::snapshot).
struct MetricSample {
  const MetricDesc* desc = nullptr;
  double value = 0.0;  // counter total / gauge value / histogram mean
  double min = 0.0;    // histograms only
  double max = 0.0;    // histograms only
  double p50 = 0.0;    // histograms only (bucket-resolution quantiles)
  double p99 = 0.0;    // histograms only
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // Get-or-create by name. Re-registering an existing name returns the same
  // instance (kind must match; mismatches throw std::logic_error).
  Counter* counter(const std::string& name, const std::string& unit,
                   const std::string& help = {});
  Gauge* gauge(const std::string& name, const std::string& unit,
               const std::string& help = {});
  TimeWeightedHistogram* histogram(const std::string& name, const std::string& unit,
                                   const std::string& help = {});

  // Labeled-family instances ("tcp.cwnd_bytes{flow=3}"): stable per-label
  // handles, registered (and therefore exported) in the order each label
  // value first appears — register flows in index order for deterministic
  // column expansion.
  Counter* counter(const std::string& family, const std::string& label_key,
                   int label_value, const std::string& unit,
                   const std::string& help = {});
  Gauge* gauge(const std::string& family, const std::string& label_key,
               int label_value, const std::string& unit,
               const std::string& help = {});
  TimeWeightedHistogram* histogram(const std::string& family,
                                   const std::string& label_key, int label_value,
                                   const std::string& unit,
                                   const std::string& help = {});

  std::size_t size() const { return entries_.size(); }
  const MetricDesc* find(const std::string& name) const;
  // Scalar value by full name (counter total / gauge value / histogram mean);
  // `fallback` when the metric does not exist.
  double value_of(const std::string& name, double fallback = 0.0) const;

  // Current value of every metric, in registration order.
  std::vector<MetricSample> snapshot() const;
  // Column headers matching row() order (histograms expand to _mean, _p50,
  // _p99 at bucket resolution).
  std::vector<std::string> column_names() const;
  // Scalars matching column_names() order.
  std::vector<double> row() const;

 private:
  struct Entry {
    MetricDesc desc;
    Counter counter;
    Gauge gauge;
    TimeWeightedHistogram histogram;
  };

  Entry* get_or_create(const std::string& name, MetricKind kind,
                       const std::string& unit, const std::string& help,
                       const std::string& family = {},
                       const std::string& label_key = {}, int label_value = -1);

  std::deque<Entry> entries_;  // deque: stable pointers across growth
};

// The families both simulation engines publish, spelled once: the fluid
// engine (flow/transfer.cpp) under flow., the packet engine
// (flow/packet_sim.cpp) under pkt. The divergence report, the ss
// delivered-bytes cross-check and the RunRecord goodput column read them.
// Names only: each engine keeps its own registration sites, order and
// kinds (fluid gro_aggregate_bytes is a gauge, packet a histogram), since
// registration order is probe-column order.
struct EngineMetrics {
  const char* delivered_bytes;      // counter: payload delivered to the app
  const char* goodput_bps;          // gauge: delivery rate
  const char* gro_aggregate_bytes;  // value_of is the mean aggregate size
};

inline constexpr EngineMetrics kFluidMetrics{
    "flow.delivered_bytes", "flow.goodput_bps", "flow.gro_aggregate_bytes"};
inline constexpr EngineMetrics kPacketMetrics{
    "pkt.delivered_bytes", "pkt.goodput_bps", "pkt.gro_aggregate_bytes"};

// Registered by either engine when a scenario is attached. One name for
// both, so a shared Telemetry folds fluid and packet events into one
// counter.
inline constexpr const char* kScenarioEventsApplied = "scenario.events_applied";

}  // namespace dtnsim::obs
