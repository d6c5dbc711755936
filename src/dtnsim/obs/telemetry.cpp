#include "dtnsim/obs/telemetry.hpp"

#include <stdexcept>

#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::obs {

void validate(const TelemetryConfig& cfg) {
  if (cfg.probe_interval <= 0) {
    throw std::invalid_argument(strfmt(
        "TelemetryConfig.probe_interval must be positive, got %lld ns "
        "(a non-positive interval would arm a degenerate probe)",
        static_cast<long long>(cfg.probe_interval)));
  }
  if (cfg.ss_interval < 0) {
    throw std::invalid_argument(strfmt(
        "TelemetryConfig.ss_interval must be >= 0 (0 = final snapshot only), "
        "got %lld ns",
        static_cast<long long>(cfg.ss_interval)));
  }
  if (cfg.ss_interval > 0 && !cfg.ss_enabled) {
    throw std::invalid_argument(
        "TelemetryConfig.ss_interval set without ss_enabled: an ss watch "
        "cadence on a disabled snapshot surface would silently sample "
        "nothing");
  }
  if (cfg.perf_interval < 0) {
    throw std::invalid_argument(strfmt(
        "TelemetryConfig.perf_interval must be >= 0 (0 = final report only), "
        "got %lld ns",
        static_cast<long long>(cfg.perf_interval)));
  }
  if (cfg.perf_interval > 0 && !cfg.perf_enabled) {
    throw std::invalid_argument(
        "TelemetryConfig.perf_interval set without perf_enabled: a perf "
        "sampling cadence on a disabled attribution surface would silently "
        "sample nothing");
  }
}

namespace {

// The trace ring keeps the most recent kTraceCapacity events, streamed or
// not; a streamed trace buffers kStreamBufferEvents between file writes.
constexpr std::size_t kTraceCapacity = 1 << 16;
constexpr std::size_t kStreamBufferEvents = 256;

std::unique_ptr<TraceSink> make_trace_sink(const TelemetryConfig& cfg) {
  if (!cfg.trace_stream_path.empty()) {
    return std::make_unique<StreamingTraceSink>(
        cfg.trace_stream_path, /*process_name=*/"", kStreamBufferEvents,
        kTraceCapacity);
  }
  return std::make_unique<TraceSink>(kTraceCapacity);
}

}  // namespace

Telemetry::Telemetry(TelemetryConfig cfg)
    : cfg_(std::move(cfg)),
      trace_((validate(cfg_), make_trace_sink(cfg_))),
      sampler_(cfg_, registry_, *trace_) {}

const char* round_limit_name(RoundLimit limit) {
  switch (limit) {
    case RoundLimit::None:
      return "none";
    case RoundLimit::Window:
      return "window";
    case RoundLimit::Pacing:
      return "pacing";
    case RoundLimit::AppCpu:
      return "app_cpu";
    case RoundLimit::IrqCpu:
      return "irq_cpu";
    case RoundLimit::LineRate:
      return "line_rate";
    case RoundLimit::Dma:
      return "dma";
    case RoundLimit::MemBw:
      return "mem_bw";
  }
  return "?";
}

}  // namespace dtnsim::obs
