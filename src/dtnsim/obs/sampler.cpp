#include "dtnsim/obs/sampler.hpp"

#include <stdexcept>
#include <utility>

#include "dtnsim/obs/telemetry.hpp"

namespace dtnsim::obs {

Sampler::Sampler(const TelemetryConfig& cfg, Registry& registry, TraceSink& trace)
    : registry_(registry),
      trace_(trace),
      ss_on_(cfg.ss_enabled),
      perf_on_(cfg.perf_enabled),
      interval_{cfg.ss_interval, cfg.perf_interval, cfg.probe_interval} {}

Sampler::Session::Session(Sampler& sampler, sim::Engine& engine, Nanos horizon,
                          Source source)
    : sampler_(sampler) {
  if (sampler.engine_) {
    throw std::logic_error("Sampler: a session is already open (one run at a time)");
  }
  if (sampler.ss_on_ && !source.ss) {
    throw std::logic_error("Sampler: ss is enabled but the engine gave no ss view");
  }
  if (sampler.perf_on_ && !source.perf) {
    throw std::logic_error("Sampler: perf is enabled but the engine gave no perf view");
  }
  sampler.engine_ = &engine;
  sampler.horizon_ = horizon;
  sampler.delivered_base_ =
      source.metrics ? sampler.registry_.value_of(source.metrics->delivered_bytes) : 0.0;
  sampler.source_ = std::move(source);
  for (const Channel c : {Channel::Ss, Channel::Perf, Channel::Series}) sampler.arm(c);
}

Sampler::Session::~Session() {
  sampler_.engine_ = nullptr;
  sampler_.source_ = {};
}

void Sampler::Session::finish(Nanos now, bool closing_row) {
  Sampler& s = sampler_;
  // An in-run sample at `now` ran before the round at `now`; only a fresh
  // one holds the end state, so it takes that sample's place.
  const auto drop_at_now = [now](auto& log) {
    if (!log.empty() && log.back().ts == now) log.pop_back();
  };
  if (s.ss_on_) {
    drop_at_now(s.ss_log_);
    s.sample_ss(now);
  }
  if (s.perf_on_) {
    drop_at_now(s.perf_log_);
    s.sample_perf(now);
  }
  if (closing_row) s.sample_series(now);
}

void Sampler::arm(Channel c) {
  const Nanos step = interval_[static_cast<int>(c)];
  if (step <= 0 || engine_->now() + step > horizon_) return;
  engine_->schedule(step, [this, c] {
    if (!engine_) return;  // the session ended; its engine ran on
    sample(c, engine_->now());
    arm(c);
  });
}

void Sampler::sample(Channel c, Nanos now) {
  switch (c) {
    case Channel::Ss:
      sample_ss(now);
      return;
    case Channel::Perf:
      sample_perf(now);
      return;
    case Channel::Series:
      sample_series(now);
      return;
  }
}

void Sampler::sample_series(Nanos now) {
  if (source_.refresh) source_.refresh(now);
  SeriesTable& t = series_;
  if (t.columns.empty()) {
    t.columns.push_back("time_s");
    const auto names = registry_.column_names();
    t.columns.insert(t.columns.end(), names.begin(), names.end());
  } else if (registry_.column_names().size() + 1 > t.columns.size()) {
    // The registry grew since the first row (e.g. a second engine
    // registered its metrics into a shared Telemetry). Registration order is
    // append-only, so the existing columns are a prefix: extend the header
    // and zero-pad earlier rows to keep the table rectangular.
    const auto names = registry_.column_names();
    t.columns.assign(names.begin(), names.end());
    t.columns.insert(t.columns.begin(), "time_s");
    for (auto& r : t.rows) r.resize(t.columns.size(), 0.0);
  }
  std::vector<double> row;
  row.reserve(t.columns.size());
  row.push_back(units::to_seconds(now));
  const auto values = registry_.row();
  row.insert(row.end(), values.begin(), values.end());
  t.rows.push_back(std::move(row));

  for (const auto& s : registry_.snapshot()) trace_.counter(s.desc->name, now, s.value);
}

void Sampler::sample_ss(Nanos now) {
  SsReport& r = ss_log_.emplace_back(source_.ss(now));
  r.ts = now;
  if (source_.metrics) {
    cross_check_delivered(r, registry_, source_.metrics->delivered_bytes, delivered_base_);
  }
}

void Sampler::sample_perf(Nanos now) {
  PerfReport& r = perf_log_.emplace_back(source_.perf(now));
  r.ts = now;
  cross_check_stage_sum(r);
}

}  // namespace dtnsim::obs
