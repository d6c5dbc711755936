// dtnsim::scenario — deterministic mid-run fault injection.
//
// Every dtnsim run so far froze the path, NIC, qdisc and sysctls at t=0,
// which reproduces the paper's steady-state rows but none of its transient
// stories: the 16 Gbps AmLight background-traffic surges, the loss episodes
// that separate paced from unpaced flows, the pause-frame backpressure, the
// Fig. 9 optmem knee a sysadmin crosses by retuning mid-transfer. A
// `Timeline` is a declarative list of typed events ("at t=20s, cap the link
// to 5 Gbps for 10s"), loaded from JSON or built in code, and a `Runtime`
// applies it to a live simulation in either engine.
//
// Determinism rules (the whole point of simulating instead of emulating):
//   - Event fire times are computed ONCE at Runtime construction. Optional
//     per-event jitter draws from a dedicated util::Rng seeded from the run
//     seed — never from the engine's own stream — so attaching a scenario
//     perturbs nothing it doesn't explicitly touch, and the same scenario +
//     seed is bit-identical across repeats and across --jobs 1 vs --jobs N.
//   - Effects are recomputed from scratch at every boundary crossing by
//     folding the active events in fire order (later fire wins; surges
//     accumulate), so the overlay never depends on visit order or tick rate.
//   - When no scenario is attached the engines skip the hook entirely,
//     mirroring the wants_ss()/wants_perf() zero-cost pattern: disabled runs
//     are bit-identical to builds that predate this subsystem.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "dtnsim/util/fields.hpp"

namespace dtnsim::scenario {

// One mid-run mutation. `value` is interpreted per kind (see docs/SCENARIO.md
// for the real-world counterpart of each):
//   LinkCapacity    value = capacity cap, bps            (carrier rate change)
//   LinkAddRtt      value = extra one-way-ish RTT, sec   (path reroute)
//   LossBurst       value = loss fraction [0,1)          (dirty optics, microburst)
//   ReorderBurst    value = reorder fraction [0,1)       (ECMP flap)
//   LinkDown        value ignored                        (link flap, down edge)
//   LinkUp          value ignored                        (link flap, up edge)
//   BgSurge         value = extra background bps         (AmLight 16G surge)
//   NicRingResize   value = RX descriptors               (ethtool -G rx N)
//   NicPauseToggle  value = 1 on / 0 off                 (ethtool -A rx on|off)
//   IrqDrainDegrade value = drain-rate multiplier (0,1]  (noisy neighbor on IRQ core)
//   QdiscSwap       value = 1 fq / 0 fq_codel            (tc qdisc replace)
//   QdiscPacingRate value = fq pacing rate bps, 0 unpaced (tc qdisc change fq maxrate)
//   SysctlOptmem    value = optmem_max bytes             (sysctl -w net.core.optmem_max)
//   FlowArrive      value = streams joining              (iperf3 -P +k)
//   FlowDepart      value = streams leaving              (stream teardown)
enum class EventKind {
  LinkCapacity,
  LinkAddRtt,
  LossBurst,
  ReorderBurst,
  LinkDown,
  LinkUp,
  BgSurge,
  NicRingResize,
  NicPauseToggle,
  IrqDrainDegrade,
  QdiscSwap,
  QdiscPacingRate,
  SysctlOptmem,
  FlowArrive,
  FlowDepart,
};

inline constexpr int kEventKindCount = 15;

// Stable wire name ("link_capacity", "loss_burst", ...) used by the JSON
// format, the event log and the trace instants.
std::string_view kind_name(EventKind kind);
std::optional<EventKind> kind_from_name(std::string_view name);

struct Event {
  double at_sec = 0.0;        // nominal fire time from run start
  EventKind kind = EventKind::LinkCapacity;
  double value = 0.0;         // per-kind payload, see EventKind
  double duration_sec = 0.0;  // 0 = permanent (until countermanded)
  double jitter_sec = 0.0;    // fire time drawn uniform in at±jitter
  std::string note;           // free-form annotation, carried to the log
};

struct Timeline {
  std::string name;
  std::vector<Event> events;

  bool empty() const { return events.empty(); }
  // Throws std::runtime_error naming the first offending event: negative
  // times/durations/jitter, out-of-range fractions, non-positive counts,
  // non-finite values.
  void validate() const;
};

// JSON round-trip:
//   {"name": "...", "events": [{"at_sec": 20, "kind": "loss_burst",
//                               "value": 0.02, "duration_sec": 5,
//                               "jitter_sec": 0, "note": "..."}]}
// One key list per struct (util/fields.hpp) drives both directions.
inline auto kind_field(EventKind& kind) { return wire::named(kind, kind_name, kind_from_name); }

template <class V>
void fields(V& v, Event& e) {
  v("at_sec", e.at_sec, wire::required);
  v("kind", kind_field(e.kind), wire::required);
  v("value", e.value);
  v("duration_sec", e.duration_sec);
  v("jitter_sec", e.jitter_sec);
  v("note", e.note);
}

template <class V>
void fields(V& v, Timeline& t) {
  v("name", t.name);
  v("events", t.events, wire::required);
}

Json to_json(const Timeline& timeline);
// nullopt on structural mismatch (missing events array, unknown kind, ...).
std::optional<Timeline> timeline_from_json(const Json& json);
// Read + parse + validate; throws std::runtime_error with the path (and the
// first malformed key, e.g. "events[2].kind is not a known name") on error.
Timeline load_timeline(const std::string& path);
bool write_timeline(const std::string& path, const Timeline& timeline);

// The folded state of all currently-active events — an overlay the engine
// applies on top of its t=0 configuration. Sentinels mean "base config":
// negative caps/rates/sizes, pause_frames/qdisc = -1.
struct Effects {
  bool link_down = false;
  double capacity_bps = -1.0;       // < 0: keep base capacity
  double extra_rtt_sec = 0.0;       // added to base RTT
  double extra_bg_bps = 0.0;        // added to base background (surges stack)
  double loss_frac = 0.0;           // forced loss fraction on arrivals
  double reorder_frac = 0.0;        // forced reorder fraction on arrivals
  double ring_descriptors = -1.0;   // < 0: keep base ring
  int pause_frames = -1;            // -1 base / 0 off / 1 on
  double irq_drain_mult = 1.0;      // scales IRQ-core drain rate
  int qdisc = -1;                   // -1 base / 0 fq_codel / 1 fq
  double pacing_bps = -1.0;         // < 0: keep base fq rate (0 = unpaced)
  double optmem_max_bytes = -1.0;   // < 0: keep base optmem_max
  int flow_delta = 0;               // net stream arrivals - departures
};

// One event the Runtime crossed, as recorded for TestResult / --replay.
struct AppliedEvent {
  double fire_sec = 0.0;  // jittered fire time actually used
  double end_sec = 0.0;   // fire + duration; 0 when permanent
  EventKind kind = EventKind::LinkCapacity;
  double value = 0.0;
  bool applied = true;    // false: engine does not support this kind
  std::string note;
};

struct EventLog {
  std::string engine;    // "fluid" | "packet"
  std::string timeline;  // Timeline::name
  std::string label;     // harness test label, stamped by the runner
  std::vector<AppliedEvent> events;
};

template <class V>
void fields(V& v, AppliedEvent& e) {
  v("fire_sec", e.fire_sec);
  v("end_sec", e.end_sec);
  v("kind", kind_field(e.kind), wire::required);
  v("value", e.value);
  v("applied", e.applied);
  v("note", e.note);
}

template <class V>
void fields(V& v, EventLog& log) {
  v("engine", log.engine);
  v("timeline", log.timeline);
  v("label", log.label);
  v("events", log.events, wire::required);
}

Json to_json(const EventLog& log);
// nullopt on structural mismatch, like timeline_from_json.
std::optional<EventLog> event_log_from_json(const Json& json);
// Pretty-printed JSON to `path`; false on I/O failure (--scenario-out and
// dtnsim-scenario --run both write this format, --replay reads it back).
bool write_event_log(const std::string& path, const EventLog& log);

// Inverse of running a timeline: reconstruct a loadable Timeline from the
// events a run actually crossed (`--record-timeline`). Fire times become
// nominal times (jitter_sec = 0 — the jitter was already drawn), durations
// are recovered from end_sec, and unsupported (applied=false) events are
// kept so the recording round-trips. The result is validate()-clean.
Timeline timeline_from_log(const EventLog& log);

// Live applicator. Construct once per run with the run seed; call
// advance(now) from the engine's clock loop — it returns true when the
// folded Effects changed (an event fired or expired), which is the engine's
// cue to re-apply the overlay. Events whose kind is not in `supported` are
// logged with applied=false and excluded from the fold.
class Runtime {
 public:
  Runtime(const Timeline& timeline, std::uint64_t seed, std::string engine,
          std::vector<EventKind> supported);

  // Crosses every boundary in (last_now, now_sec]; true if Effects changed.
  bool advance(double now_sec);
  const Effects& effects() const { return effects_; }
  // Next fire/expiry strictly after the last advance() time; +inf when done.
  // The packet engine schedules its hook at these instants.
  double next_boundary_sec() const;
  const std::vector<AppliedEvent>& log() const { return log_; }
  std::size_t applied_count() const;
  EventLog event_log() const;
  const std::string& engine() const { return engine_; }
  const std::string& timeline_name() const { return name_; }

 private:
  struct Scheduled {
    double fire_sec = 0.0;
    double end_sec = 0.0;  // 0 when permanent
    Event event;
    bool supported = true;
    bool logged = false;
  };

  void fold_effects(double now_sec);

  std::string name_;
  std::string engine_;
  std::vector<Scheduled> scheduled_;   // sorted by fire time
  std::vector<double> boundaries_;     // sorted unique fire + end times
  std::size_t next_boundary_ = 0;
  double now_ = -std::numeric_limits<double>::infinity();
  Effects effects_;
  std::vector<AppliedEvent> log_;
};

// Human-readable timeline rendering for dtnsim-scenario --preview: one line
// per event with fire window, kind, value and note, plus a coarse time axis.
std::string preview_timeline(const Timeline& timeline, std::uint64_t seed);

}  // namespace dtnsim::scenario
