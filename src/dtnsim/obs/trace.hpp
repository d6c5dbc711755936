// Trace sink: bounded ring buffer of spans / instants / counter samples,
// exported as Chrome trace_event JSON (load in chrome://tracing or
// https://ui.perfetto.dev).
//
// Event kinds map onto the trace_event phases:
//   Begin/End -> "B"/"E" duration slices  (round N, transfer)
//   Instant   -> "i"                       (zc_fallback, ring_overflow, ...)
//   Counter   -> "C"                       (optmem occupancy, cwnd, goodput)
//
// The ring keeps the *most recent* `capacity` events; older events are
// overwritten and counted in dropped(). Timestamps are simulation Nanos;
// export converts to the microseconds trace_event expects.
//
// StreamingTraceSink removes the ring-capacity ceiling: every event is also
// serialized incrementally to a file with bounded buffering, so arbitrarily
// long runs keep their full event history on disk while the in-memory ring
// still answers contains()/count() queries over the recent past.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "dtnsim/units/units.hpp"
#include "dtnsim/util/json.hpp"

namespace dtnsim::obs {

enum class TracePhase : std::uint8_t { Begin, End, Instant, Counter };

struct TraceEvent {
  Nanos ts = 0;
  TracePhase phase = TracePhase::Instant;
  std::string name;
  std::string category;
  int track = 0;  // exported as tid; one track per flow, 0 = run-level
  // Small inline key/value payload ("args" in the JSON).
  std::vector<std::pair<std::string, double>> args;
};

class TraceSink {
 public:
  explicit TraceSink(std::size_t capacity = 1 << 16);
  virtual ~TraceSink() = default;
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  void begin(std::string name, std::string category, Nanos ts, int track = 0,
             std::vector<std::pair<std::string, double>> args = {});
  void end(std::string name, std::string category, Nanos ts, int track = 0);
  void instant(std::string name, std::string category, Nanos ts, int track = 0,
               std::vector<std::pair<std::string, double>> args = {});
  void counter(std::string name, Nanos ts, double value, int track = 0);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ring_.size(); }
  std::uint64_t total_recorded() const { return recorded_; }
  std::uint64_t dropped() const {
    return recorded_ - static_cast<std::uint64_t>(ring_.size());
  }

  // Events in chronological (insertion) order, oldest surviving first.
  std::vector<TraceEvent> events() const;
  bool contains(const std::string& name) const;
  std::size_t count(const std::string& name) const;

  // Append this sink's events to a chrome trace "traceEvents" array, tagging
  // them with `pid` (one pid per flow-sim keeps multi-run traces separable)
  // and an optional process_name metadata record.
  void append_chrome_events(Json& trace_events, int pid,
                            const std::string& process_name = {}) const;
  // Standalone {"traceEvents": [...], "displayTimeUnit": "ms"} document.
  Json to_chrome_trace(const std::string& process_name = {}) const;
  bool write_file(const std::string& path,
                  const std::string& process_name = {}) const;

  // Streaming hooks; no-ops on the plain ring sink. flush() forces any
  // buffered events to disk mid-run; finalize() closes the JSON document
  // (idempotent). Both return false only on write failure.
  virtual bool flush() { return true; }
  virtual bool finalize() { return true; }

 protected:
  // Records into the ring; subclasses extend this to stream.
  virtual void push(TraceEvent ev);

 private:
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // next overwrite position once full
  std::uint64_t recorded_ = 0;
};

// Write-as-you-go trace sink: every event is appended to `path` as it is
// recorded (trace_event JSON, one event per line inside the traceEvents
// array), buffered up to `buffer_events` between file writes. The inherited
// ring keeps the most recent `ring_capacity` events for in-memory queries;
// the file has no capacity ceiling. finalize() (or destruction) closes the
// document so it parses; call flush() to checkpoint mid-run.
class StreamingTraceSink : public TraceSink {
 public:
  explicit StreamingTraceSink(const std::string& path,
                              const std::string& process_name = {},
                              std::size_t buffer_events = 256,
                              std::size_t ring_capacity = 1 << 12);
  ~StreamingTraceSink() override;

  const std::string& path() const { return path_; }
  bool ok() const { return ok_; }
  // Events serialized toward the file so far (buffered or written).
  std::uint64_t streamed() const { return streamed_; }

  bool flush() override;
  bool finalize() override;

 protected:
  void push(TraceEvent ev) override;

 private:
  std::string path_;
  std::ofstream out_;
  std::string buffer_;
  std::size_t buffer_events_;
  std::size_t buffered_ = 0;
  std::uint64_t streamed_ = 0;
  bool wrote_any_ = false;  // whether a ',' separator is needed
  bool finalized_ = false;
  bool ok_ = false;
};

// Merge several labelled sinks into one chrome trace document; each sink
// gets its own pid and a process_name metadata entry with its label.
Json merged_chrome_trace(
    const std::vector<std::pair<std::string, const TraceSink*>>& sinks);
bool write_merged_chrome_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, const TraceSink*>>& sinks);

}  // namespace dtnsim::obs
