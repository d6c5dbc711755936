// dtnsim::obs — metrics registry, per-flow probe, trace sink.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "dtnsim/core/dtnsim.hpp"
#include "dtnsim/util/log.hpp"

namespace dtnsim {
namespace {

// ---------------------------------------------------------------------------
// A tiny recursive-descent JSON reader, just enough to verify that the
// chrome traces we emit are well-formed (the library Json is write-only).
// ---------------------------------------------------------------------------
struct JsonReader {
  const std::string& text;
  std::size_t pos = 0;
  bool ok = true;

  // Counts of what the document contained, for assertions.
  int objects = 0, arrays = 0, strings = 0, numbers = 0;

  explicit JsonReader(const std::string& t) : text(t) {}

  void ws() {
    while (pos < text.size() && std::isspace(static_cast<unsigned char>(text[pos]))) ++pos;
  }
  bool eat(char c) {
    ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  bool value() {
    ws();
    if (pos >= text.size()) return ok = false;
    const char c = text[pos];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string();
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) return number();
    for (const char* lit : {"true", "false", "null"}) {
      if (text.compare(pos, std::strlen(lit), lit) == 0) {
        pos += std::strlen(lit);
        return true;
      }
    }
    return ok = false;
  }
  bool object() {
    if (!eat('{')) return ok = false;
    ++objects;
    if (eat('}')) return true;
    do {
      ws();
      if (!string()) return ok = false;
      if (!eat(':')) return ok = false;
      if (!value()) return ok = false;
    } while (eat(','));
    return eat('}') ? true : (ok = false);
  }
  bool array() {
    if (!eat('[')) return ok = false;
    ++arrays;
    if (eat(']')) return true;
    do {
      if (!value()) return ok = false;
    } while (eat(','));
    return eat(']') ? true : (ok = false);
  }
  bool string() {
    if (!eat('"')) return ok = false;
    ++strings;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\') ++pos;
      ++pos;
    }
    if (pos >= text.size()) return ok = false;
    ++pos;  // closing quote
    return true;
  }
  bool number() {
    ++numbers;
    const std::size_t start = pos;
    if (pos < text.size() && text[pos] == '-') ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) || text[pos] == '.' ||
            text[pos] == 'e' || text[pos] == 'E' || text[pos] == '+' || text[pos] == '-'))
      ++pos;
    return pos > start;
  }
  bool parse_document() {
    const bool v = value();
    ws();
    return v && ok && pos == text.size();
  }
};

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, CounterGaugeBasics) {
  obs::Registry reg;
  auto* c = reg.counter("flow.retx", "segments");
  c->add(3);
  c->increment();
  EXPECT_DOUBLE_EQ(c->value(), 4.0);

  auto* g = reg.gauge("tcp.cwnd", "bytes");
  g->set(1500);
  g->set(3000);
  EXPECT_DOUBLE_EQ(g->value(), 3000.0);

  EXPECT_EQ(reg.size(), 2u);
  ASSERT_NE(reg.find("flow.retx"), nullptr);
  EXPECT_EQ(reg.find("flow.retx")->kind, obs::MetricKind::Counter);
  EXPECT_EQ(reg.find("nope"), nullptr);
}

TEST(Registry, ReRegisterReturnsSameInstance) {
  obs::Registry reg;
  auto* a = reg.counter("x", "bytes");
  a->add(7);
  auto* b = reg.counter("x", "bytes");
  EXPECT_EQ(a, b);
  EXPECT_DOUBLE_EQ(b->value(), 7.0);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(Registry, KindMismatchThrows) {
  obs::Registry reg;
  reg.counter("x", "bytes");
  EXPECT_THROW(reg.gauge("x", "bytes"), std::logic_error);
  EXPECT_THROW(reg.histogram("x", "bytes"), std::logic_error);
}

TEST(Registry, SnapshotInRegistrationOrder) {
  obs::Registry reg;
  reg.gauge("b.second", "x")->set(2);
  reg.counter("a.first", "x")->add(1);
  reg.histogram("c.third", "x")->add(8.0, 1.0);

  const auto cols = reg.column_names();
  ASSERT_EQ(cols.size(), 5u);  // histograms expand to _mean, _p50, _p99
  EXPECT_EQ(cols[0], "b.second");
  EXPECT_EQ(cols[1], "a.first");
  EXPECT_EQ(cols[2], "c.third_mean");
  EXPECT_EQ(cols[3], "c.third_p50");
  EXPECT_EQ(cols[4], "c.third_p99");

  const auto row = reg.row();
  ASSERT_EQ(row.size(), 5u);
  EXPECT_DOUBLE_EQ(row[0], 2.0);
  EXPECT_DOUBLE_EQ(row[1], 1.0);
  EXPECT_DOUBLE_EQ(row[2], 8.0);
  // Every observation is 8.0, so both quantiles land in its log2 bucket
  // (bucket resolution: the upper edge covering 8.0 is <= 16).
  EXPECT_GE(row[3], 8.0);
  EXPECT_LE(row[3], 16.0);
  EXPECT_GE(row[4], 8.0);
  EXPECT_LE(row[4], 16.0);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].desc->name, "b.second");
}

TEST(TimeWeightedHistogram, WeightsByDuration) {
  obs::TimeWeightedHistogram h;
  h.add(10.0, 9.0);  // at 10 for 9 seconds
  h.add(100.0, 1.0);  // spike to 100 for 1 second
  EXPECT_DOUBLE_EQ(h.mean(), (10.0 * 9.0 + 100.0 * 1.0) / 10.0);
  EXPECT_DOUBLE_EQ(h.min(), 10.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.total_weight(), 10.0);
  // 90% of the time was spent at 10, so the p50 bucket must be well under
  // the spike (bucket resolution is a factor of two).
  EXPECT_LE(h.quantile(0.5), 16.0);
  EXPECT_GE(h.quantile(0.95), 64.0);
}

// ---------------------------------------------------------------------------
// Sampler cadence on the engine clock
// ---------------------------------------------------------------------------

obs::TelemetryConfig probe_every(Nanos interval) {
  obs::TelemetryConfig cfg;
  cfg.enabled = true;
  cfg.probe_interval = interval;
  return cfg;
}

TEST(Sampler, SamplesAtExactInterval) {
  obs::Telemetry tel(probe_every(units::millis(100)));
  auto* g = tel.registry().gauge("v", "count");
  sim::Engine eng;
  {
    obs::Sampler::Session session(tel.sampler(), eng, units::seconds(1),
                                  {.refresh = [&](Nanos now) { g->set(units::to_seconds(now)); }});
    eng.run();
  }

  const auto& t = tel.series();
  ASSERT_EQ(t.rows.size(), 10u);  // 0.1 .. 1.0 inclusive
  ASSERT_GE(t.columns.size(), 2u);
  EXPECT_EQ(t.columns[0], "time_s");
  for (std::size_t i = 0; i < t.rows.size(); ++i) {
    const double expect_t = 0.1 * static_cast<double>(i + 1);
    EXPECT_NEAR(t.rows[i][0], expect_t, 1e-9);
    EXPECT_NEAR(t.rows[i][1], expect_t, 1e-9);  // the refresh hook saw the same now
  }
}

TEST(Sampler, CoincidentEventsRunInQueueOrder) {
  // Events at one timestamp run in the order they were queued. One-shot
  // model events queued before the session opens run before the sample at
  // their timestamp. A self-rescheduling round queues its event at t one
  // round before t, after the sample at t was queued (one interval before
  // t), so the row at t holds every round before t but not the round at t.
  obs::Telemetry tel(probe_every(units::millis(250)));
  auto* events = tel.registry().counter("events", "count");
  auto* rounds = tel.registry().counter("rounds", "count");
  sim::Engine eng;
  for (int i = 1; i <= 4; ++i) {
    eng.schedule_at(units::millis(250) * i, [events] { events->add(1); });
  }
  const Nanos dt = units::millis(50);
  std::function<void()> round = [&] {
    rounds->add(1);
    if (eng.now() + dt <= units::seconds(1)) eng.schedule(dt, round);
  };
  eng.schedule(dt, round);
  {
    obs::Sampler::Session session(tel.sampler(), eng, units::seconds(1), {});
    eng.run();
  }

  const auto seen_events = tel.series().column("events");
  const auto seen_rounds = tel.series().column("rounds");
  ASSERT_EQ(seen_events.size(), 4u);
  ASSERT_EQ(seen_rounds.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(seen_events[i], static_cast<double>(i + 1));
    EXPECT_DOUBLE_EQ(seen_rounds[i], 5.0 * static_cast<double>(i + 1) - 1.0);
  }
  EXPECT_DOUBLE_EQ(rounds->value(), 20.0);  // the round at 1 s ran after the last row
}

TEST(Sampler, SessionDetachesItsSourceOnEveryExit) {
  obs::Telemetry tel(probe_every(units::millis(100)));
  int refreshes = 0;
  sim::Engine eng;
  eng.schedule(units::millis(150), [] { throw std::runtime_error("model fault"); });
  try {
    obs::Sampler::Session session(tel.sampler(), eng, units::seconds(1),
                                  {.refresh = [&](Nanos) { ++refreshes; }});
    eng.run();
    ADD_FAILURE() << "the model fault must propagate";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(refreshes, 1);  // the 100 ms row, before the fault
  // The engine outlives the session; its queued sampler event does nothing.
  eng.run();
  EXPECT_EQ(tel.series().rows.size(), 1u);
  tel.sampler().sample_series(units::seconds(2));
  EXPECT_EQ(refreshes, 1);
  EXPECT_EQ(tel.series().rows.size(), 2u);
  sim::Engine next;  // the sampler is free for the next run
  EXPECT_NO_THROW(obs::Sampler::Session(tel.sampler(), next, units::seconds(1), {}));
}

TEST(Sampler, SessionNeedsEveryEnabledViewAndRunsAlone) {
  obs::TelemetryConfig cfg = probe_every(units::seconds(1));
  cfg.ss_enabled = true;
  cfg.perf_enabled = true;
  obs::Telemetry tel(cfg);
  sim::Engine eng;
  const auto ss = [](Nanos) { return obs::SsReport{}; };
  const auto perf = [](Nanos) { return obs::PerfReport{}; };
  EXPECT_THROW(obs::Sampler::Session(tel.sampler(), eng, 0, {.perf = perf}), std::logic_error);
  EXPECT_THROW(obs::Sampler::Session(tel.sampler(), eng, 0, {.ss = ss}), std::logic_error);
  obs::Sampler::Session open(tel.sampler(), eng, 0, {.ss = ss, .perf = perf});
  EXPECT_THROW(obs::Sampler::Session(tel.sampler(), eng, 0, {.ss = ss, .perf = perf}),
               std::logic_error);
}

TEST(SeriesTable, CsvAndJsonlShape) {
  obs::Telemetry tel(probe_every(units::seconds(1)));
  tel.registry().gauge("a", "x")->set(1);
  tel.sampler().sample_series(units::seconds(1));
  tel.sampler().sample_series(units::seconds(2));

  const auto& t = tel.series();
  EXPECT_EQ(t.column_index("time_s"), 0u);
  EXPECT_DOUBLE_EQ(t.max_of("a"), 1.0);

  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("time_s,a"), std::string::npos);
  const std::string jsonl = t.to_jsonl();
  // Every JSONL line must itself parse.
  std::size_t start = 0;
  int lines = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(start, end - start);
    if (!line.empty()) {
      JsonReader r(line);
      EXPECT_TRUE(r.parse_document()) << line;
      ++lines;
    }
    start = end + 1;
  }
  EXPECT_EQ(lines, 2);
}

// ---------------------------------------------------------------------------
// TraceSink ring + chrome export
// ---------------------------------------------------------------------------

TEST(TraceSink, RingOverflowKeepsMostRecent) {
  obs::TraceSink sink(8);
  for (int i = 0; i < 20; ++i) {
    sink.instant("ev" + std::to_string(i), "test", units::seconds(i));
  }
  EXPECT_EQ(sink.size(), 8u);
  EXPECT_EQ(sink.total_recorded(), 20u);
  EXPECT_EQ(sink.dropped(), 12u);

  const auto evs = sink.events();
  ASSERT_EQ(evs.size(), 8u);
  EXPECT_EQ(evs.front().name, "ev12");  // oldest survivor
  EXPECT_EQ(evs.back().name, "ev19");
  EXPECT_FALSE(sink.contains("ev11"));
  EXPECT_TRUE(sink.contains("ev12"));
}

TEST(TraceSink, ChromeTraceJsonParses) {
  obs::TraceSink sink;
  sink.begin("round 1", "flow", units::millis(1), 0, {{"sent_bytes", 1e6}});
  sink.end("round 1", "flow", units::millis(2));
  sink.instant("zc_fallback", "zc", units::millis(3), 1,
               {{"optmem_used_bytes", 20480.0}});
  sink.counter("optmem", units::millis(3), 20480.0);

  const std::string doc = sink.to_chrome_trace("unit test \"run\"").dump();
  JsonReader r(doc);
  EXPECT_TRUE(r.parse_document()) << doc;
  EXPECT_GE(r.objects, 5);  // root + >= 4 events (+ metadata, args)

  // trace_event essentials: a traceEvents array, micros timestamps, the
  // instant scoped "s", and the phase letters.
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(doc.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(doc.find("\"ts\":1000"), std::string::npos);  // 1 ms -> 1000 us
  EXPECT_NE(doc.find("process_name"), std::string::npos);
  EXPECT_NE(doc.find("unit test \\\"run\\\""), std::string::npos);  // escaping
}

TEST(TraceSink, MergedTraceGetsOnePidPerSink) {
  obs::TraceSink a, b;
  a.instant("x", "t", 0);
  b.instant("y", "t", 0);
  const std::string doc = obs::merged_chrome_trace({{"run a", &a}, {"run b", &b}}).dump();
  JsonReader r(doc);
  EXPECT_TRUE(r.parse_document());
  EXPECT_NE(doc.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(doc.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(doc.find("run a"), std::string::npos);
  EXPECT_NE(doc.find("run b"), std::string::npos);
}

// ---------------------------------------------------------------------------
// log: level parsing + simulated-time prefix plumbing
// ---------------------------------------------------------------------------

TEST(Log, ParseLevelNames) {
  log::Level lv;
  EXPECT_TRUE(log::parse_level("debug", &lv));
  EXPECT_EQ(lv, log::Level::Debug);
  EXPECT_TRUE(log::parse_level("WARN", &lv));
  EXPECT_EQ(lv, log::Level::Warn);
  EXPECT_TRUE(log::parse_level("off", &lv));
  EXPECT_EQ(lv, log::Level::Off);
  EXPECT_FALSE(log::parse_level("verbose", &lv));
  EXPECT_EQ(lv, log::Level::Off);  // untouched on garbage
}

TEST(Log, TimeSourceBindsAndRestores) {
  auto prev = log::bind_time_source([] { return units::seconds(42); });
  auto mine = log::bind_time_source(std::move(prev));
  ASSERT_TRUE(static_cast<bool>(mine));
  EXPECT_EQ(mine(), units::seconds(42));
}

// ---------------------------------------------------------------------------
// End-to-end: the Fig. 9 acceptance scenario. The optmem-occupancy series
// must saturate at the 20 KB default (with zc_fallback trace instants) and
// float below the ceiling at the paper's 3.25 MB recommendation.
// ---------------------------------------------------------------------------

harness::TestResult fig9_run(double optmem_bytes) {
  const auto tb = harness::amlight(kern::KernelVersion::V6_5);
  return Experiment(tb)
      .path("WAN 104ms")
      .zerocopy()
      .pacing(units::Rate::from_gbps(50))
      .optmem_max(units::Bytes(optmem_bytes))
      .duration(units::SimTime::from_seconds(12))
      .repeats(1)
      .telemetry(true)
      .run();
}

TEST(TelemetryEndToEnd, OptmemSaturationShiftsWithOptmemMax) {
  const auto small = fig9_run(20480);
  const auto big = fig9_run(3405376);

  ASSERT_EQ(small.repeat_series.size(), 1u);
  ASSERT_EQ(big.repeat_series.size(), 1u);
  const auto& ss = small.repeat_series.front();
  const auto& bs = big.repeat_series.front();
  ASSERT_FALSE(ss.empty());
  ASSERT_FALSE(bs.empty());

  // 20 KB: in-flight zerocopy charge pins at the ceiling.
  EXPECT_DOUBLE_EQ(ss.max_of("zc.optmem_used_bytes"), 20480.0);
  EXPECT_DOUBLE_EQ(ss.max_of("zc.optmem_max_bytes"), 20480.0);
  EXPECT_GT(ss.max_of("zc.fallback_bytes"), 0.0);

  // 3.25 MB: the same scenario uses far more optmem (the saturation point
  // moved) but never exhausts it — no fallback.
  EXPECT_GT(bs.max_of("zc.optmem_used_bytes"), 10.0 * 20480.0);
  EXPECT_LT(bs.max_of("zc.optmem_used_bytes"), 3405376.0);
  EXPECT_DOUBLE_EQ(bs.max_of("zc.fallback_bytes"), 0.0);

  // Trace: fallback onset is an instant event in the 20 KB run only.
  ASSERT_TRUE(small.trace);
  ASSERT_TRUE(big.trace);
  EXPECT_GE(small.trace->count("zc_fallback"), 1u);
  EXPECT_EQ(big.trace->count("zc_fallback"), 0u);

  // And the full chrome export of a real run parses.
  const std::string doc = small.trace->to_chrome_trace("fig9 20KB").dump();
  JsonReader r(doc);
  EXPECT_TRUE(r.parse_document());

  // Throughput recovers with the bigger optmem (the paper's headline).
  EXPECT_GT(big.avg_gbps, small.avg_gbps * 1.2);
}

TEST(TelemetryEndToEnd, MergedCsvHasTestAndRepeatColumns) {
  const auto res = fig9_run(20480);
  std::vector<obs::LabeledSeries> labeled;
  for (std::size_t rpt = 0; rpt < res.repeat_series.size(); ++rpt) {
    labeled.push_back({res.name, static_cast<int>(rpt), &res.repeat_series[rpt]});
  }
  const std::string csv = obs::merged_series_csv(labeled);
  EXPECT_EQ(csv.rfind("test,repeat,time_s,", 0), 0u);
  EXPECT_NE(csv.find(res.name), std::string::npos);
  EXPECT_NE(csv.find("zc.optmem_used_bytes"), std::string::npos);
}

TEST(TelemetryEndToEnd, DisabledTelemetryLeavesResultEmpty) {
  const auto tb = harness::amlight(kern::KernelVersion::V6_5);
  const auto res = Experiment(tb).path("LAN").duration(units::SimTime::from_seconds(2)).repeats(1).run();
  EXPECT_TRUE(res.repeat_series.empty());
  EXPECT_EQ(res.trace, nullptr);
}

}  // namespace
}  // namespace dtnsim
