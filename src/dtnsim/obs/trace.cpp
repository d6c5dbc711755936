#include "dtnsim/obs/trace.hpp"

#include <algorithm>

#include "dtnsim/util/file.hpp"

namespace dtnsim::obs {

TraceSink::TraceSink(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {
  ring_.reserve(std::min<std::size_t>(capacity_, 1024));
}

void TraceSink::push(TraceEvent ev) {
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(ev));
    return;
  }
  ring_[head_] = std::move(ev);
  head_ = (head_ + 1) % capacity_;
}

void TraceSink::begin(std::string name, std::string category, Nanos ts, int track,
                      std::vector<std::pair<std::string, double>> args) {
  push(TraceEvent{ts, TracePhase::Begin, std::move(name), std::move(category), track,
                  std::move(args)});
}

void TraceSink::end(std::string name, std::string category, Nanos ts, int track) {
  push(TraceEvent{ts, TracePhase::End, std::move(name), std::move(category), track, {}});
}

void TraceSink::instant(std::string name, std::string category, Nanos ts, int track,
                        std::vector<std::pair<std::string, double>> args) {
  push(TraceEvent{ts, TracePhase::Instant, std::move(name), std::move(category), track,
                  std::move(args)});
}

void TraceSink::counter(std::string name, Nanos ts, double value, int track) {
  push(TraceEvent{ts, TracePhase::Counter, std::move(name), "metric", track,
                  {{"value", value}}});
}

std::vector<TraceEvent> TraceSink::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  // Oldest surviving event is at head_ once the ring has wrapped.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

bool TraceSink::contains(const std::string& name) const { return count(name) > 0; }

std::size_t TraceSink::count(const std::string& name) const {
  return static_cast<std::size_t>(
      std::count_if(ring_.begin(), ring_.end(),
                    [&](const TraceEvent& e) { return e.name == name; }));
}

namespace {

const char* phase_code(TracePhase phase) {
  switch (phase) {
    case TracePhase::Begin:
      return "B";
    case TracePhase::End:
      return "E";
    case TracePhase::Instant:
      return "i";
    case TracePhase::Counter:
      return "C";
  }
  return "i";
}

Json process_name_record(int pid, const std::string& process_name) {
  Json meta = Json::object();
  meta["name"] = "process_name";
  meta["ph"] = "M";
  meta["pid"] = pid;
  meta["tid"] = 0;
  meta["args"]["name"] = process_name;
  return meta;
}

Json event_record(const TraceEvent& ev, int pid) {
  Json j = Json::object();
  j["name"] = ev.name;
  j["cat"] = ev.category.empty() ? "dtnsim" : ev.category;
  j["ph"] = phase_code(ev.phase);
  j["ts"] = static_cast<double>(ev.ts) / 1e3;  // trace_event wants micros
  j["pid"] = pid;
  j["tid"] = ev.track;
  if (ev.phase == TracePhase::Instant) j["s"] = "t";  // thread-scoped tick
  if (!ev.args.empty()) {
    Json args = Json::object();
    for (const auto& [k, v] : ev.args) args[k] = v;
    j["args"] = std::move(args);
  }
  return j;
}

}  // namespace

void TraceSink::append_chrome_events(Json& trace_events, int pid,
                                     const std::string& process_name) const {
  if (!process_name.empty()) {
    trace_events.push_back(process_name_record(pid, process_name));
  }
  for (const auto& ev : events()) {
    trace_events.push_back(event_record(ev, pid));
  }
}

Json TraceSink::to_chrome_trace(const std::string& process_name) const {
  return merged_chrome_trace({{process_name, this}});
}

bool TraceSink::write_file(const std::string& path,
                           const std::string& process_name) const {
  return dtnsim::write_file(path, to_chrome_trace(process_name).dump(1) + "\n");
}

Json merged_chrome_trace(
    const std::vector<std::pair<std::string, const TraceSink*>>& sinks) {
  Json doc = Json::object();
  Json events = Json::array();
  int pid = 1;
  for (const auto& [label, sink] : sinks) {
    if (sink) sink->append_chrome_events(events, pid, label);
    ++pid;
  }
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

bool write_merged_chrome_trace(
    const std::string& path,
    const std::vector<std::pair<std::string, const TraceSink*>>& sinks) {
  return write_file(path, merged_chrome_trace(sinks).dump(1) + "\n");
}

StreamingTraceSink::StreamingTraceSink(const std::string& path,
                                       const std::string& process_name,
                                       std::size_t buffer_events,
                                       std::size_t ring_capacity)
    : TraceSink(ring_capacity),
      path_(path),
      out_(path),
      buffer_events_(std::max<std::size_t>(buffer_events, 1)) {
  ok_ = static_cast<bool>(out_);
  if (!ok_) return;
  out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  if (!process_name.empty()) {
    out_ << process_name_record(/*pid=*/1, process_name).dump();
    wrote_any_ = true;
  }
  ok_ = static_cast<bool>(out_);
}

StreamingTraceSink::~StreamingTraceSink() { finalize(); }

void StreamingTraceSink::push(TraceEvent ev) {
  if (ok_ && !finalized_) {
    if (wrote_any_ || buffered_ > 0 || streamed_ > 0) buffer_ += ",\n";
    buffer_ += event_record(ev, /*pid=*/1).dump();
    ++streamed_;
    if (++buffered_ >= buffer_events_) flush();
  }
  TraceSink::push(std::move(ev));
}

bool StreamingTraceSink::flush() {
  if (!ok_ || finalized_) return ok_;
  if (!buffer_.empty()) {
    out_ << buffer_;
    if (buffered_ > 0) wrote_any_ = true;
    buffer_.clear();
    buffered_ = 0;
  }
  out_.flush();
  ok_ = static_cast<bool>(out_);
  return ok_;
}

bool StreamingTraceSink::finalize() {
  if (finalized_) return ok_;
  flush();
  if (ok_) {
    out_ << "\n]}\n";
    out_.flush();
    ok_ = static_cast<bool>(out_);
  }
  out_.close();
  finalized_ = true;
  return ok_;
}

}  // namespace dtnsim::obs
