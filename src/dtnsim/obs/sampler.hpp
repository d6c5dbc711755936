// One sampler for every observation channel of a run: the simulator's
// `iperf3 -i 1` (the probe series), its `ss -i` (the ss log) and its `perf`
// (the perf log).
//
// Telemetry owns one Sampler. For each run the engine opens a Session,
// handing over one Source: a gauge-refresh hook and its ss and perf views,
// which copy the engine's SsReport / PerfReport accumulators (ss.hpp,
// perf.hpp). The session arms every enabled channel on the run's
// engine, in the order ss, perf, series; each channel is a self-rescheduling
// event at interval, 2*interval, ... <= horizon. finish() takes the
// end-of-run samples, and the session's destructor detaches the source on
// every exit path, so no engine code is reachable from the Telemetry once
// its run is over.
//
// Timing: events at one timestamp run in the order they were queued. A
// sample at t was queued one interval earlier and an engine round at t one
// round earlier, so a sample at t sees the round at t only when the round
// length is at least the interval. A 1 s sample of a LAN run (200 us
// rounds) holds every round before t but not the round at t.
//
// Every ss sample must agree with what the engine's delivered-bytes counter
// gained since its session opened (cross_check_delivered), and every perf
// sample's stage cycles with its consumed cycles (cross_check_stage_sum); a
// sample that does not throws.
//
// An ss or perf sample lives in its log only: each figure it holds is a
// field of the log entry taken at that instant, which a RunRecord and the
// --json views of dtnsim-ss and dtnsim-perf carry. The registry and the
// trace hold what the engines publish.
#pragma once

#include <functional>
#include <vector>

#include "dtnsim/obs/metrics.hpp"
#include "dtnsim/obs/perf.hpp"
#include "dtnsim/obs/probe.hpp"
#include "dtnsim/obs/ss.hpp"
#include "dtnsim/obs/trace.hpp"
#include "dtnsim/sim/engine.hpp"

namespace dtnsim::obs {

struct TelemetryConfig;

class Sampler {
 public:
  // What an engine hands the sampler for one run. Each member only reads
  // engine state (sampling is observation).
  struct Source {
    // The engine's row of the shared-family table (metrics.hpp); ss samples
    // are cross-checked against its delivered_bytes. Null: no cross-check.
    const EngineMetrics* metrics = nullptr;
    std::function<void(Nanos)> refresh = {};     // before each series row; may be empty
    std::function<SsReport(Nanos)> ss = {};      // required when ss is enabled
    std::function<PerfReport(Nanos)> perf = {};  // required when perf is enabled
  };

  // One run's attachment of a Source to `engine`, sampling up to `horizon`.
  // One session at a time per sampler; opening a second, or one missing an
  // enabled view, throws std::logic_error.
  class Session {
   public:
    Session(Sampler& sampler, sim::Engine& engine, Nanos horizon, Source source);
    ~Session();
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;

    // End-of-run samples at `now`: the final ss report, then the final perf
    // report, each replacing an in-run sample at `now` (that one ran before
    // the round at `now`); then, with `closing_row`, one more series row.
    void finish(Nanos now, bool closing_row = false);

   private:
    Sampler& sampler_;
  };

  // `registry` and `trace` must outlive the sampler.
  Sampler(const TelemetryConfig& cfg, Registry& registry, TraceSink& trace);
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  const SeriesTable& series() const { return series_; }
  const std::vector<SsReport>& ss_log() const { return ss_log_; }
  const std::vector<PerfReport>& perf_log() const { return perf_log_; }

  // Appends one series row at `now`: runs the open session's refresh hook,
  // then records every registry value (and mirrors it into the trace as a
  // counter). Without an open session it records the registry as it stands.
  void sample_series(Nanos now);

 private:
  enum class Channel { Ss = 0, Perf = 1, Series = 2 };

  // Queues the channel's next sample one interval from now, if that is
  // within the horizon and the channel samples in-run at all.
  void arm(Channel c);
  void sample(Channel c, Nanos now);
  void sample_ss(Nanos now);
  void sample_perf(Nanos now);

  Registry& registry_;
  TraceSink& trace_;
  const bool ss_on_;
  const bool perf_on_;
  const Nanos interval_[3];  // by Channel; 0 = final sample only

  SeriesTable series_;
  std::vector<SsReport> ss_log_;
  std::vector<PerfReport> perf_log_;

  // The open session's state; engine_ is null between sessions.
  sim::Engine* engine_ = nullptr;
  Nanos horizon_ = 0;
  Source source_;
  // The source's delivered-bytes counter when the session opened: the
  // counter accumulates over every run of its engine on one registry.
  double delivered_base_ = 0.0;
};

}  // namespace dtnsim::obs
