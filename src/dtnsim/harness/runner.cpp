#include "dtnsim/harness/runner.hpp"

#include <algorithm>

#include "dtnsim/flow/transfer.hpp"
#include "dtnsim/sweep/pool.hpp"
#include "dtnsim/util/stats.hpp"

namespace dtnsim::harness {

TestSpec TestSpec::on(const Testbed& tb, const std::string& path_name,
                      app::IperfOptions opts, std::string label) {
  TestSpec s;
  s.sender = tb.sender;
  s.receiver = tb.receiver;
  s.path = tb.path_named(path_name);
  s.iperf = opts;
  s.link_flow_control = tb.link_flow_control;
  s.name = label.empty() ? tb.name + " " + s.path.name : std::move(label);
  return s;
}

obs::TelemetryConfig run_telemetry(const TestSpec& spec) {
  obs::TelemetryConfig cfg = spec.telemetry;
  // A RunRecord bundles every artifact layer (probe series + ss snapshots +
  // perf attribution).
  if (spec.record) cfg.ss_enabled = cfg.perf_enabled = true;
  cfg.enabled = cfg.enabled || cfg.ss_enabled || cfg.perf_enabled;
  return cfg;
}

TestResult run_test(const TestSpec& spec) {
  TestResult out;
  out.name = spec.name;
  out.repeats = std::max(spec.repeats, 1);

  const obs::TelemetryConfig tel_cfg = run_telemetry(spec);

  flow::TransferConfig base;
  base.sender = spec.sender;
  base.receiver = spec.receiver;
  base.path = spec.path;
  base.streams = std::max(spec.iperf.parallel, 1);
  base.flow.zerocopy = spec.iperf.zerocopy;
  base.flow.skip_rx_copy = spec.iperf.skip_rx_copy;
  base.flow.fq_rate_bps = spec.iperf.fq_rate_bps;
  base.flow.congestion = spec.iperf.congestion;
  base.link_flow_control = spec.link_flow_control;
  base.duration = units::SimTime::from_seconds(spec.iperf.duration_sec);
  base.scenario = spec.scenario;

  // The repeats run concurrently, each on its own config copy, seed
  // substream and Telemetry, into its own slot; the fold below reads the
  // slots in repeat order, so the result is bit-identical to a serial loop.
  struct Repeat {
    flow::TransferResult res;
    obs::SeriesTable series;
    std::shared_ptr<obs::Telemetry> tel;  // repeat 0 only: trace, ss and perf logs
  };
  std::vector<Repeat> slots(static_cast<std::size_t>(out.repeats));
  const Rng seeder(spec.base_seed);
  sweep::parallel_for(slots.size(), 0, [&](std::size_t r) {
    flow::TransferConfig cfg = base;
    cfg.seed = seeder.substream(static_cast<unsigned>(r)).next();
    std::shared_ptr<obs::Telemetry> tel;
    if (tel_cfg.enabled) {
      obs::TelemetryConfig tcfg = tel_cfg;
      // Stream only the first repeat: every repeat would otherwise open
      // (and truncate) the same file.
      if (r != 0) tcfg.trace_stream_path.clear();
      tel = std::make_shared<obs::Telemetry>(tcfg);
      cfg.telemetry = tel.get();
    }
    slots[r].res = flow::run_transfer(cfg);
    if (tel) {
      tel->trace().finalize();  // close a streamed document; no-op on the ring
      slots[r].series = tel->series();
      if (r == 0) slots[r].tel = std::move(tel);
    }
  });

  RunningStats tput, retr, snd_cpu, rcv_cpu, flow_min, flow_max, fallback;
  for (std::size_t r = 0; r < slots.size(); ++r) {
    const flow::TransferResult& res = slots[r].res;
    if (r == 0 && !spec.scenario.empty()) {
      out.scenario_log = res.scenario_log;
      out.scenario_log.label = spec.name;
    }
    if (tel_cfg.enabled) out.repeat_series.push_back(std::move(slots[r].series));
    if (const auto& tel = slots[r].tel) {
      // Aliasing shared_ptr: the result's trace keeps the Telemetry alive.
      out.trace = std::shared_ptr<const obs::TraceSink>(tel, &tel->trace());
      out.ss_log = tel->ss_log();
      for (auto& rep : out.ss_log) rep.label = spec.name;
      out.perf_log = tel->perf_log();
      for (auto& rep : out.perf_log) rep.label = spec.name;
    }

    const double gbps = units::to_gbps(res.throughput_bps);
    tput.add(gbps);
    out.samples_gbps.push_back(gbps);
    retr.add(res.retransmit_segments);
    snd_cpu.add(res.sender_cpu.cores_pct);
    rcv_cpu.add(res.receiver_cpu.cores_pct);
    if (!res.per_flow_bps.empty()) {
      flow_min.add(units::to_gbps(min_of(res.per_flow_bps)));
      flow_max.add(units::to_gbps(max_of(res.per_flow_bps)));
    }
    const double zc_total = res.zc_bytes + res.zc_fallback_bytes;
    fallback.add(zc_total > 0 ? res.zc_fallback_bytes / zc_total : 0.0);
  }

  out.avg_gbps = tput.mean();
  out.min_gbps = tput.min();
  out.max_gbps = tput.max();
  out.stdev_gbps = tput.stddev();
  out.avg_retransmits = retr.mean();
  out.flow_min_gbps = flow_min.mean();
  out.flow_max_gbps = flow_max.mean();
  out.snd_cpu_pct = snd_cpu.mean();
  out.rcv_cpu_pct = rcv_cpu.mean();
  out.zc_fallback_ratio = fallback.mean();

  if (spec.record) {
    auto rec = std::make_shared<report::RunRecord>();
    rec->meta.name = spec.name;
    rec->meta.engine =
        out.perf_log.empty() ? "fluid" : out.perf_log.back().engine;
    rec->meta.streams = base.streams;
    rec->meta.repeats = out.repeats;
    rec->meta.duration_sec = spec.iperf.duration_sec;
    rec->meta.base_seed = spec.base_seed;
    rec->meta.scenario = spec.scenario.empty() ? "" : spec.scenario.name;
    rec->summary = out;
    if (!out.repeat_series.empty()) rec->series = out.repeat_series.front();
    rec->ss_log = out.ss_log;
    rec->perf_log = out.perf_log;
    rec->scenario_log = out.scenario_log;
    rec->analysis = report::analyze_record(*rec);
    out.record = std::move(rec);
  }
  return out;
}

std::vector<TestResult> run_tests(const std::vector<TestSpec>& specs, int jobs) {
  // Pre-sized storage, written by spec index: results[i] <-> specs[i] holds
  // for any job count (see the header's ordering guarantee).
  std::vector<TestResult> out(specs.size());
  sweep::parallel_for(specs.size(), jobs,
                      [&](std::size_t i) { out[i] = run_test(specs[i]); });
  return out;
}

}  // namespace dtnsim::harness
