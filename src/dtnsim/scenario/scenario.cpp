#include "dtnsim/scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "dtnsim/util/file.hpp"
#include "dtnsim/util/rng.hpp"
#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::scenario {

namespace {

struct KindName {
  EventKind kind;
  std::string_view name;
};

constexpr KindName kKindNames[kEventKindCount] = {
    {EventKind::LinkCapacity, "link_capacity"},
    {EventKind::LinkAddRtt, "link_add_rtt"},
    {EventKind::LossBurst, "loss_burst"},
    {EventKind::ReorderBurst, "reorder_burst"},
    {EventKind::LinkDown, "link_down"},
    {EventKind::LinkUp, "link_up"},
    {EventKind::BgSurge, "bg_surge"},
    {EventKind::NicRingResize, "nic_ring_resize"},
    {EventKind::NicPauseToggle, "nic_pause_toggle"},
    {EventKind::IrqDrainDegrade, "irq_drain_degrade"},
    {EventKind::QdiscSwap, "qdisc_swap"},
    {EventKind::QdiscPacingRate, "qdisc_pacing_rate"},
    {EventKind::SysctlOptmem, "sysctl_optmem"},
    {EventKind::FlowArrive, "flow_arrive"},
    {EventKind::FlowDepart, "flow_depart"},
};

// Boundary comparisons tolerate fp noise from fire-time arithmetic; event
// times are user-scale seconds, so absolute 1e-12 is far below one tick.
constexpr double kEps = 1e-12;

[[noreturn]] void bad_event(std::size_t index, const Event& ev,
                            const char* what) {
  throw std::runtime_error(strfmt(
      "scenario: event %zu (%s at t=%gs): %s", index,
      std::string(kind_name(ev.kind)).c_str(), ev.at_sec, what));
}

}  // namespace

std::string_view kind_name(EventKind kind) {
  for (const auto& kn : kKindNames)
    if (kn.kind == kind) return kn.name;
  return "unknown";
}

std::optional<EventKind> kind_from_name(std::string_view name) {
  for (const auto& kn : kKindNames)
    if (kn.name == name) return kn.kind;
  return std::nullopt;
}

void Timeline::validate() const {
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Event& ev = events[i];
    if (!std::isfinite(ev.at_sec) || ev.at_sec < 0.0)
      bad_event(i, ev, "at_sec must be finite and >= 0");
    if (!std::isfinite(ev.duration_sec) || ev.duration_sec < 0.0)
      bad_event(i, ev, "duration_sec must be finite and >= 0");
    if (!std::isfinite(ev.jitter_sec) || ev.jitter_sec < 0.0)
      bad_event(i, ev, "jitter_sec must be finite and >= 0");
    if (!std::isfinite(ev.value))
      bad_event(i, ev, "value must be finite");
    switch (ev.kind) {
      case EventKind::LinkCapacity:
        if (ev.value <= 0.0) bad_event(i, ev, "capacity must be > 0 bps");
        break;
      case EventKind::LinkAddRtt:
        if (ev.value < 0.0) bad_event(i, ev, "added RTT must be >= 0 sec");
        break;
      case EventKind::LossBurst:
      case EventKind::ReorderBurst:
        if (ev.value < 0.0 || ev.value >= 1.0)
          bad_event(i, ev, "fraction must be in [0, 1)");
        break;
      case EventKind::LinkDown:
      case EventKind::LinkUp:
        break;
      case EventKind::BgSurge:
        if (ev.value < 0.0) bad_event(i, ev, "surge must be >= 0 bps");
        break;
      case EventKind::NicRingResize:
        if (ev.value < 1.0) bad_event(i, ev, "ring must be >= 1 descriptor");
        break;
      case EventKind::NicPauseToggle:
      case EventKind::QdiscSwap:
        if (ev.value != 0.0 && ev.value != 1.0)
          bad_event(i, ev, "toggle value must be 0 or 1");
        break;
      case EventKind::IrqDrainDegrade:
        if (ev.value <= 0.0)
          bad_event(i, ev, "drain multiplier must be > 0");
        break;
      case EventKind::QdiscPacingRate:
        if (ev.value < 0.0) bad_event(i, ev, "pacing rate must be >= 0 bps");
        break;
      case EventKind::SysctlOptmem:
        if (ev.value < 1.0) bad_event(i, ev, "optmem_max must be >= 1 byte");
        break;
      case EventKind::FlowArrive:
      case EventKind::FlowDepart:
        if (ev.value < 1.0 || ev.value != std::floor(ev.value))
          bad_event(i, ev, "stream count must be a positive integer");
        break;
    }
  }
}

Json to_json(const Timeline& timeline) { return wire::to_json(timeline); }

std::optional<Timeline> timeline_from_json(const Json& json) {
  Timeline tl;
  if (!wire::read(json, tl).empty()) return std::nullopt;
  return tl;
}

Timeline load_timeline(const std::string& path) {
  const auto text = read_file(path);
  if (!text)
    throw std::runtime_error("scenario: cannot open " + path);
  auto doc = Json::parse(*text);
  if (!doc)
    throw std::runtime_error("scenario: " + path + " is not valid JSON");
  Timeline tl;
  if (const std::string err = wire::read(*doc, tl); !err.empty())
    throw std::runtime_error("scenario: " + path +
                             " does not match the timeline schema: " + err);
  tl.validate();
  return tl;
}

bool write_timeline(const std::string& path, const Timeline& timeline) {
  return write_file(path, to_json(timeline).dump(2) + "\n");
}

Timeline timeline_from_log(const EventLog& log) {
  Timeline tl;
  tl.name = log.timeline;
  for (const AppliedEvent& ev : log.events) {
    Event e;
    e.at_sec = ev.fire_sec;
    e.kind = ev.kind;
    e.value = ev.value;
    e.duration_sec = ev.end_sec > 0.0 ? ev.end_sec - ev.fire_sec : 0.0;
    e.jitter_sec = 0.0;  // the recorded fire time already includes the draw
    e.note = ev.note;
    tl.events.push_back(std::move(e));
  }
  return tl;
}

namespace {

// Jittered fire times for a timeline under a given seed. The jitter stream
// is jump-separated from anything the engines draw: substream 1009 of the
// run seed, then one substream per event index, so adding an event never
// shifts the jitter of its neighbours.
std::vector<double> fire_times(const Timeline& timeline, std::uint64_t seed) {
  Rng jitter_base = Rng(seed).substream(1009);
  std::vector<double> fires(timeline.events.size(), 0.0);
  for (std::size_t i = 0; i < timeline.events.size(); ++i) {
    const Event& ev = timeline.events[i];
    double fire = ev.at_sec;
    if (ev.jitter_sec > 0.0) {
      fire += jitter_base.substream(static_cast<unsigned>(i))
                  .uniform(-ev.jitter_sec, ev.jitter_sec);
    }
    fires[i] = std::max(0.0, fire);
  }
  return fires;
}

}  // namespace

Runtime::Runtime(const Timeline& timeline, std::uint64_t seed,
                 std::string engine, std::vector<EventKind> supported)
    : name_(timeline.name), engine_(std::move(engine)) {
  timeline.validate();
  const std::vector<double> fires = fire_times(timeline, seed);
  scheduled_.reserve(timeline.events.size());
  for (std::size_t i = 0; i < timeline.events.size(); ++i) {
    Scheduled s;
    s.fire_sec = fires[i];
    s.end_sec = timeline.events[i].duration_sec > 0.0
                    ? fires[i] + timeline.events[i].duration_sec
                    : 0.0;
    s.event = timeline.events[i];
    s.supported = std::find(supported.begin(), supported.end(),
                            timeline.events[i].kind) != supported.end();
    scheduled_.push_back(std::move(s));
  }
  std::stable_sort(scheduled_.begin(), scheduled_.end(),
                   [](const Scheduled& a, const Scheduled& b) {
                     return a.fire_sec < b.fire_sec;
                   });
  for (const Scheduled& s : scheduled_) {
    boundaries_.push_back(s.fire_sec);
    if (s.end_sec > 0.0) boundaries_.push_back(s.end_sec);
  }
  std::sort(boundaries_.begin(), boundaries_.end());
  boundaries_.erase(std::unique(boundaries_.begin(), boundaries_.end()),
                    boundaries_.end());
}

bool Runtime::advance(double now_sec) {
  bool crossed = false;
  while (next_boundary_ < boundaries_.size() &&
         boundaries_[next_boundary_] <= now_sec + kEps) {
    ++next_boundary_;
    crossed = true;
  }
  now_ = now_sec;
  if (!crossed) return false;
  for (Scheduled& s : scheduled_) {
    if (s.logged || s.fire_sec > now_sec + kEps) continue;
    s.logged = true;
    AppliedEvent ev;
    ev.fire_sec = s.fire_sec;
    ev.end_sec = s.end_sec;
    ev.kind = s.event.kind;
    ev.value = s.event.value;
    ev.applied = s.supported;
    ev.note = s.event.note;
    log_.push_back(std::move(ev));
  }
  fold_effects(now_sec);
  return true;
}

// Recompute the overlay from scratch: fold the active events in fire order.
// Later fires win for assign-style knobs; surges and flow churn accumulate;
// LinkUp cancels an earlier LinkDown. A from-scratch fold at every boundary
// makes expiry trivially correct (an expired temporary simply drops out and
// any earlier permanent shows through again).
void Runtime::fold_effects(double now_sec) {
  effects_ = Effects{};
  for (const Scheduled& s : scheduled_) {
    if (!s.supported) continue;
    if (s.fire_sec > now_sec + kEps) continue;
    if (s.end_sec > 0.0 && now_sec + kEps >= s.end_sec) continue;
    const Event& ev = s.event;
    switch (ev.kind) {
      case EventKind::LinkCapacity: effects_.capacity_bps = ev.value; break;
      case EventKind::LinkAddRtt: effects_.extra_rtt_sec = ev.value; break;
      case EventKind::LossBurst: effects_.loss_frac = ev.value; break;
      case EventKind::ReorderBurst: effects_.reorder_frac = ev.value; break;
      case EventKind::LinkDown: effects_.link_down = true; break;
      case EventKind::LinkUp: effects_.link_down = false; break;
      case EventKind::BgSurge: effects_.extra_bg_bps += ev.value; break;
      case EventKind::NicRingResize: effects_.ring_descriptors = ev.value; break;
      case EventKind::NicPauseToggle:
        effects_.pause_frames = ev.value != 0.0 ? 1 : 0;
        break;
      case EventKind::IrqDrainDegrade: effects_.irq_drain_mult = ev.value; break;
      case EventKind::QdiscSwap:
        effects_.qdisc = ev.value != 0.0 ? 1 : 0;
        break;
      case EventKind::QdiscPacingRate: effects_.pacing_bps = ev.value; break;
      case EventKind::SysctlOptmem: effects_.optmem_max_bytes = ev.value; break;
      case EventKind::FlowArrive:
        effects_.flow_delta += static_cast<int>(std::lround(ev.value));
        break;
      case EventKind::FlowDepart:
        effects_.flow_delta -= static_cast<int>(std::lround(ev.value));
        break;
    }
  }
}

double Runtime::next_boundary_sec() const {
  if (next_boundary_ >= boundaries_.size())
    return std::numeric_limits<double>::infinity();
  return boundaries_[next_boundary_];
}

std::size_t Runtime::applied_count() const {
  std::size_t n = 0;
  for (const AppliedEvent& ev : log_)
    if (ev.applied) ++n;
  return n;
}

EventLog Runtime::event_log() const {
  EventLog log;
  log.engine = engine_;
  log.timeline = name_;
  log.events = log_;
  return log;
}

std::string preview_timeline(const Timeline& timeline, std::uint64_t seed) {
  timeline.validate();
  const std::vector<double> fires = fire_times(timeline, seed);
  double horizon = 0.0;
  for (std::size_t i = 0; i < timeline.events.size(); ++i) {
    horizon = std::max(horizon,
                       fires[i] + timeline.events[i].duration_sec);
  }
  std::string out = strfmt("scenario \"%s\" — %zu event(s), seed %llu\n",
                           timeline.name.c_str(), timeline.events.size(),
                           static_cast<unsigned long long>(seed));
  // Sort display rows by jittered fire time so the preview reads as the run
  // will experience it.
  std::vector<std::size_t> order(timeline.events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return fires[a] < fires[b];
                   });
  constexpr int kAxisCols = 40;
  for (std::size_t idx : order) {
    const Event& ev = timeline.events[idx];
    std::string window =
        ev.duration_sec > 0.0 ? strfmt("+%-8.3fs", ev.duration_sec)
                              : std::string("permanent");
    // A coarse time axis: '=' spans the active window, '|' marks an instant.
    std::string axis(kAxisCols, '.');
    if (horizon > 0.0) {
      int lo = static_cast<int>(fires[idx] / horizon * (kAxisCols - 1));
      int hi = ev.duration_sec > 0.0
                   ? static_cast<int>((fires[idx] + ev.duration_sec) /
                                      horizon * (kAxisCols - 1))
                   : kAxisCols - 1;
      lo = std::clamp(lo, 0, kAxisCols - 1);
      hi = std::clamp(hi, lo, kAxisCols - 1);
      for (int c = lo; c <= hi; ++c) axis[static_cast<std::size_t>(c)] = '=';
      axis[static_cast<std::size_t>(lo)] = '|';
    }
    out += strfmt("  t=%9.3fs  %-10s  %-17s  value=%-12g [%s]%s%s\n",
                  fires[idx], window.c_str(),
                  std::string(kind_name(ev.kind)).c_str(), ev.value,
                  axis.c_str(), ev.note.empty() ? "" : "  ",
                  ev.note.c_str());
  }
  return out;
}

}  // namespace dtnsim::scenario
