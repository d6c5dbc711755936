// Telemetry bundle: one Registry + TraceSink + Sampler per simulation run.
//
// Both engines take an optional non-owning Telemetry*; when present they
// register their metrics, emit trace events, and open a sampler session on
// the run's engine. When absent (the default) the instrumentation costs one
// branch per tick — cheap enough to leave compiled in everywhere.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "dtnsim/obs/metrics.hpp"
#include "dtnsim/obs/sampler.hpp"
#include "dtnsim/obs/trace.hpp"

namespace dtnsim::obs {

struct TelemetryConfig {
  bool enabled = false;
  Nanos probe_interval = units::seconds(1);  // iperf3's -i 1 analogue
  // Non-empty: stream every trace event to this file as it is recorded
  // (StreamingTraceSink) instead of relying on the trace ring (the most
  // recent 65536 events) alone — no capacity ceiling for long runs. The
  // ring still serves in-memory queries.
  std::string trace_stream_path;
  // Kernel-eye ss/tcp_info snapshots (dtnsim-ss). Off by default: engines
  // build snapshot state only when enabled, so a plain telemetry run pays
  // nothing for the ss surface and its outputs stay bit-identical.
  bool ss_enabled = false;
  // Watch cadence; 0 = final snapshot only (dtnsim-ss without --watch).
  Nanos ss_interval = 0;
  // Exact per-stage cycle attribution (dtnsim-perf). Off by default: the
  // engines allocate their perf accumulators only when enabled, so an
  // unprofiled run pays nothing and its outputs stay bit-identical.
  bool perf_enabled = false;
  // Sampler cadence; 0 = final report only (dtnsim-perf without --record).
  Nanos perf_interval = 0;
};

// Throws std::invalid_argument on a degenerate config (probe_interval <= 0,
// ss_interval or perf_interval < 0 or set without the matching enable
// bit). Called by Telemetry's constructor; exposed for early CLI-level
// validation.
void validate(const TelemetryConfig& cfg);

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig cfg = {});

  const TelemetryConfig& config() const { return cfg_; }
  Registry& registry() { return registry_; }
  const Registry& registry() const { return registry_; }
  TraceSink& trace() { return *trace_; }
  const TraceSink& trace() const { return *trace_; }
  Sampler& sampler() { return sampler_; }
  const SeriesTable& series() const { return sampler_.series(); }
  const std::vector<SsReport>& ss_log() const { return sampler_.ss_log(); }
  const std::vector<PerfReport>& perf_log() const { return sampler_.perf_log(); }
  // Whether the owning engine should build ss snapshot state at all.
  bool wants_ss() const { return cfg_.ss_enabled; }
  // Whether the owning engine should meter per-stage cycles at all.
  bool wants_perf() const { return cfg_.perf_enabled; }

 private:
  TelemetryConfig cfg_;
  Registry registry_;
  std::unique_ptr<TraceSink> trace_;
  Sampler sampler_;
};

// The sender-side constraint that bounded a round's achievable bytes —
// the paper's recurring "what is the bottleneck *right now*" question.
enum class RoundLimit {
  None = 0,
  Window,    // cwnd / rwnd / wmem
  Pacing,    // fq-rate or BBR pacing
  AppCpu,    // per-flow application-core cycles
  IrqCpu,    // shared IRQ-pool cycles
  LineRate,  // NIC line rate
  Dma,       // PCIe/IOMMU DMA ceiling
  MemBw,     // stack memory bandwidth
};

const char* round_limit_name(RoundLimit limit);

}  // namespace dtnsim::obs
