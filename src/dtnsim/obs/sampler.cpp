#include "dtnsim/obs/sampler.hpp"

#include <stdexcept>
#include <utility>

#include "dtnsim/obs/telemetry.hpp"
#include "dtnsim/util/strfmt.hpp"

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

  if (!ss_gauges_) {
    ss_gauges_ = SsGauges{
        registry_.gauge("ss.sockets", "sockets", "sockets in the latest ss snapshot"),
        registry_.gauge("ss.delivery_rate_bps", "bps",
                        "summed tcpi_delivery_rate, latest snapshot"),
        registry_.gauge("ss.optmem_used_bytes", "bytes", "summed in-flight zerocopy charges"),
        registry_.gauge("ss.zc_copied_bytes", "bytes", "summed zerocopy copy-fallback bytes"),
        registry_.gauge("ss.nic_ring_hiwater_frac", "frac",
                        "receiver ring high-water fraction"),
        registry_.gauge("ss.qdisc_throttled", "events", "qdisc pacing throttle count")};
  }
  double optmem = 0.0, copied = 0.0;
  for (const auto& s : r.sockets) {
    optmem += s.optmem_used_bytes;
    copied += s.zc_copied_bytes;
  }
  ss_gauges_->sockets->set(static_cast<double>(r.sockets.size()));
  ss_gauges_->delivery->set(r.total_delivery_rate_bps());
  ss_gauges_->optmem_used->set(optmem);
  ss_gauges_->zc_copied->set(copied);
  ss_gauges_->ring_hiwater->set(r.nic.rx_ring_hiwater_frac);
  ss_gauges_->qdisc_throttled->set(r.qdisc.throttled);
  trace_.instant("ss_snapshot", "ss", r.ts, 0,
                 {{"sockets", static_cast<double>(r.sockets.size())},
                  {"delivery_rate_bps", r.total_delivery_rate_bps()},
                  {"bytes_acked", r.total_bytes_acked()}});
}

void Sampler::sample_perf(Nanos now) {
  PerfReport& r = perf_log_.emplace_back(source_.perf(now));
  r.ts = now;
  cross_check_stage_sum(r);

  if (!perf_gauges_) {
    PerfGauges g{};
    g.tx_cyc_pb = registry_.gauge("perf.tx_cyc_per_byte", "cyc/B",
                                  "snd-side cycles per sent byte");
    g.rx_cyc_pb = registry_.gauge("perf.rx_cyc_per_byte", "cyc/B",
                                  "rcv-side cycles per delivered byte");
    g.total_cycles = registry_.gauge("perf.total_cycles", "cycles",
                                     "summed stage cycles, all cores");
    for (int c = 0; c < kPerfCoreCount; ++c) {
      const char* core = perf_core_name(static_cast<PerfCore>(c));
      g.util[c] = registry_.gauge(strfmt("perf.%s_util", core), "frac",
                                  strfmt("%s consumed/capacity cycles", core));
    }
    perf_gauges_ = g;
  }
  perf_gauges_->tx_cyc_pb->set(r.tx_cyc_per_byte());
  perf_gauges_->rx_cyc_pb->set(r.rx_cyc_per_byte());
  perf_gauges_->total_cycles->set(r.total_cycles());
  for (int c = 0; c < kPerfCoreCount; ++c) {
    perf_gauges_->util[c]->set(r.core_utilization(static_cast<PerfCore>(c)));
  }
  trace_.instant("perf_sample", "perf", r.ts, 0,
                 {{"total_cycles", r.total_cycles()},
                  {"tx_cyc_per_byte", r.tx_cyc_per_byte()},
                  {"rx_cyc_per_byte", r.rx_cyc_per_byte()}});
}

}  // namespace dtnsim::obs
