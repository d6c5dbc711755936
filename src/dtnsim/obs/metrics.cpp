#include "dtnsim/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dtnsim::obs {
namespace {

int bucket_of(double value) {
  if (value <= 1.0) return 0;
  const int b = static_cast<int>(std::ceil(std::log2(value)));
  return std::clamp(b, 0, TimeWeightedHistogram::kBuckets - 1);
}

}  // namespace

void TimeWeightedHistogram::add(double value, double weight_sec) {
  if (weight_sec <= 0) return;
  if (wtotal_ == 0.0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  wsum_ += value * weight_sec;
  wtotal_ += weight_sec;
  weights_[bucket_of(value)] += weight_sec;
}

double TimeWeightedHistogram::quantile(double p) const {
  if (wtotal_ <= 0) return 0.0;
  const double target = std::clamp(p, 0.0, 1.0) * wtotal_;
  double acc = 0.0;
  for (int i = 0; i < kBuckets; ++i) {
    acc += weights_[i];
    if (acc >= target) return std::min(std::exp2(static_cast<double>(i)), max_);
  }
  return max_;
}

std::string labeled_name(const std::string& family, const std::string& key,
                         int value) {
  return family + "{" + key + "=" + std::to_string(value) + "}";
}

Registry::Entry* Registry::get_or_create(const std::string& name, MetricKind kind,
                                         const std::string& unit,
                                         const std::string& help,
                                         const std::string& family,
                                         const std::string& label_key,
                                         int label_value) {
  for (auto& e : entries_) {
    if (e.desc.name == name) {
      if (e.desc.kind != kind) {
        throw std::logic_error("metric '" + name + "' re-registered with different kind");
      }
      return &e;
    }
  }
  Entry& e = entries_.emplace_back();
  e.desc.name = name;
  e.desc.kind = kind;
  e.desc.unit = unit;
  e.desc.help = help;
  e.desc.family = family;
  e.desc.label_key = label_key;
  e.desc.label_value = label_value;
  return &e;
}

Counter* Registry::counter(const std::string& name, const std::string& unit,
                           const std::string& help) {
  return &get_or_create(name, MetricKind::Counter, unit, help)->counter;
}

Gauge* Registry::gauge(const std::string& name, const std::string& unit,
                       const std::string& help) {
  return &get_or_create(name, MetricKind::Gauge, unit, help)->gauge;
}

TimeWeightedHistogram* Registry::histogram(const std::string& name,
                                           const std::string& unit,
                                           const std::string& help) {
  return &get_or_create(name, MetricKind::Histogram, unit, help)->histogram;
}

Counter* Registry::counter(const std::string& family, const std::string& label_key,
                           int label_value, const std::string& unit,
                           const std::string& help) {
  return &get_or_create(labeled_name(family, label_key, label_value),
                        MetricKind::Counter, unit, help, family, label_key,
                        label_value)
              ->counter;
}

Gauge* Registry::gauge(const std::string& family, const std::string& label_key,
                       int label_value, const std::string& unit,
                       const std::string& help) {
  return &get_or_create(labeled_name(family, label_key, label_value),
                        MetricKind::Gauge, unit, help, family, label_key,
                        label_value)
              ->gauge;
}

TimeWeightedHistogram* Registry::histogram(const std::string& family,
                                           const std::string& label_key,
                                           int label_value,
                                           const std::string& unit,
                                           const std::string& help) {
  return &get_or_create(labeled_name(family, label_key, label_value),
                        MetricKind::Histogram, unit, help, family, label_key,
                        label_value)
              ->histogram;
}

const MetricDesc* Registry::find(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.desc.name == name) return &e.desc;
  }
  return nullptr;
}

double Registry::value_of(const std::string& name, double fallback) const {
  for (const auto& e : entries_) {
    if (e.desc.name != name) continue;
    switch (e.desc.kind) {
      case MetricKind::Counter:
        return e.counter.value();
      case MetricKind::Gauge:
        return e.gauge.value();
      case MetricKind::Histogram:
        return e.histogram.mean();
    }
  }
  return fallback;
}

std::vector<MetricSample> Registry::snapshot() const {
  std::vector<MetricSample> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    MetricSample s;
    s.desc = &e.desc;
    switch (e.desc.kind) {
      case MetricKind::Counter:
        s.value = e.counter.value();
        break;
      case MetricKind::Gauge:
        s.value = e.gauge.value();
        break;
      case MetricKind::Histogram:
        s.value = e.histogram.mean();
        s.min = e.histogram.min();
        s.max = e.histogram.max();
        s.p50 = e.histogram.quantile(0.50);
        s.p99 = e.histogram.quantile(0.99);
        break;
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<std::string> Registry::column_names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) {
    if (e.desc.kind == MetricKind::Histogram) {
      out.push_back(e.desc.name + "_mean");
      out.push_back(e.desc.name + "_p50");
      out.push_back(e.desc.name + "_p99");
    } else {
      out.push_back(e.desc.name);
    }
  }
  return out;
}

std::vector<double> Registry::row() const {
  std::vector<double> out;
  out.reserve(entries_.size());
  for (const auto& s : snapshot()) {
    out.push_back(s.value);
    if (s.desc->kind == MetricKind::Histogram) {
      out.push_back(s.p50);
      out.push_back(s.p99);
    }
  }
  return out;
}

}  // namespace dtnsim::obs
