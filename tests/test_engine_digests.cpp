// Engine output digests: a fixed set of fixed-seed fluid transfers and
// packet-engine geometries, each hashed over every result field and checked
// against tests/golden/engine_digests.txt (one "name digest" line per cell).
//
// A digest is FNV-1a 64 over the hex-float ("%a") text of every field, so
// it moves on any bit of any result and on nothing else. Performance work on
// the engines must leave this file byte-identical; a change that moves
// simulated output on purpose regenerates it (the failure message prints the
// full file) and says which numbers moved and why.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "dtnsim/flow/packet_sim.hpp"
#include "dtnsim/flow/transfer.hpp"
#include "dtnsim/harness/testbeds.hpp"
#include "dtnsim/scenario/scenario.hpp"

namespace dtnsim::flow {
namespace {

const std::string kGolden =
    std::string(DTNSIM_SOURCE_DIR) + "/tests/golden/engine_digests.txt";

class Digest {
 public:
  void text(std::string_view s) {
    for (const unsigned char c : s) {
      h_ ^= c;
      h_ *= 1099511628211ull;
    }
    h_ ^= 0xff;  // field separator
    h_ *= 1099511628211ull;
  }
  void num(double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    text(buf);
  }
  void num(std::uint64_t v) { num(static_cast<double>(v)); }
  void series(const std::vector<double>& xs) {
    num(static_cast<std::uint64_t>(xs.size()));
    for (const double x : xs) num(x);
  }
  void log(const scenario::EventLog& log) {
    text(log.engine);
    text(log.timeline);
    text(log.label);
    num(static_cast<std::uint64_t>(log.events.size()));
    for (const auto& e : log.events) {
      num(e.fire_sec);
      num(e.end_sec);
      text(scenario::kind_name(e.kind));
      num(e.value);
      num(e.applied ? 1.0 : 0.0);
      text(e.note);
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

std::string digest(const TransferResult& r) {
  Digest d;
  d.num(r.duration_sec);
  d.num(r.throughput_bps);
  d.series(r.per_flow_bps);
  d.num(r.retransmit_segments);
  for (const CpuUtilization* c : {&r.sender_cpu, &r.receiver_cpu}) {
    d.num(c->app_util);
    d.num(c->irq_util);
    d.num(c->cores_pct);
  }
  d.num(r.zc_bytes);
  d.num(r.zc_fallback_bytes);
  d.series(r.interval_bps);
  d.num(r.dropped_bytes_nic);
  d.num(r.dropped_bytes_path);
  d.num(r.pause_frames_seen ? 1.0 : 0.0);
  d.log(r.scenario_log);
  return d.hex();
}

std::string digest(const PacketSimResult& r) {
  Digest d;
  d.num(r.superpackets_sent);
  d.num(r.segments_sent);
  d.num(r.segments_dropped);
  d.num(r.segments_lost_path);
  d.num(r.aggregates);
  d.num(r.delivered_bytes);
  d.num(r.achieved_bps);
  d.num(r.mean_aggregate_bytes);
  d.num(r.interdeparture_mean_ns);
  d.num(r.interdeparture_stddev_ns);
  d.num(static_cast<double>(r.ring_peak));
  d.log(r.scenario_log);
  return d.hex();
}

struct Cell {
  std::string name;
  std::function<std::string()> run;
};

TransferConfig fluid(const harness::Testbed& tb, const net::PathSpec& path, int streams,
                     double pacing_gbps, double seconds, std::uint64_t seed) {
  TransferConfig cfg;
  cfg.sender = tb.sender;
  cfg.receiver = tb.receiver;
  cfg.path = path;
  cfg.streams = streams;
  cfg.flow.fq_rate_bps = units::gbps(pacing_gbps);
  cfg.link_flow_control = tb.link_flow_control;
  cfg.duration = units::SimTime::from_seconds(seconds);
  cfg.seed = seed;
  return cfg;
}

Cell fluid_cell(std::string name, TransferConfig cfg) {
  return {"fluid/" + std::move(name), [cfg] { return digest(run_transfer(cfg)); }};
}

// LAN cells run 30 s: ~150k rounds at the 200 us tick floor, long enough to
// cross both timelines' every boundary. WAN cells run the paper's 60 s.
std::vector<Cell> fluid_cells() {
  const auto table1 = harness::esnet(kern::KernelVersion::V5_15);  // Table I's testbed
  const auto esnet = harness::esnet(kern::KernelVersion::V6_8);
  const auto amlight = harness::amlight(kern::KernelVersion::V6_8);
  std::vector<Cell> out;
  out.push_back(fluid_cell("lan1_unpaced", fluid(esnet, esnet.lan(), 1, 0, 30, 11)));
  out.push_back(fluid_cell("lan1_paced", fluid(esnet, esnet.lan(), 1, 40, 30, 12)));
  out.push_back(fluid_cell("lan8_unpaced", fluid(table1, table1.lan(), 8, 0, 30, 13)));
  out.push_back(fluid_cell("lan8_paced", fluid(table1, table1.lan(), 8, 20, 30, 14)));

  auto zc = fluid(amlight, amlight.lan(), 1, 50, 30, 15);
  zc.flow.zerocopy = true;
  out.push_back(fluid_cell("lan1_zerocopy", zc));

  auto bbr = fluid(amlight, harness::amlight_wan(25), 1, 0, 60, 16);
  bbr.flow.congestion = kern::CongestionAlgo::BbrV1;
  out.push_back(fluid_cell("wan25_bbr", bbr));
  out.push_back(
      fluid_cell("wan104_cubic8", fluid(amlight, harness::amlight_wan(104), 8, 0, 60, 17)));

  for (const char* timeline : {"link_flap", "host_retune"}) {
    auto cfg = fluid(table1, table1.lan(), 8, 0, 30, 18);
    cfg.scenario = scenario::load_timeline(std::string(DTNSIM_SOURCE_DIR) + "/scenarios/" +
                                           timeline + ".json");
    out.push_back(fluid_cell(std::string("lan8_") + timeline, cfg));
  }
  return out;
}

// bench/packet_divergence's four geometries, on shorter horizons.
std::vector<Cell> packet_cells() {
  const auto tb = harness::amlight_baremetal(kern::KernelVersion::V6_8);
  const auto geometry = [&](std::string name, net::PathSpec path, double pacing_bps,
                            double window_bytes, double seconds) {
    PacketSimConfig c;
    c.sender = tb.sender;
    c.receiver = tb.receiver;
    c.path = std::move(path);
    c.pacing_bps = pacing_bps;
    c.window_bytes = window_bytes;
    c.duration = units::SimTime::from_seconds(seconds);
    return Cell{"packet/" + std::move(name), [c] { return digest(run_packet_sim(c)); }};
  };
  return {
      geometry("lan_paced_10g", tb.lan(), units::gbps(10), 64e6, 0.02),
      geometry("lan_unpaced", tb.lan(), 0.0, 64e6, 0.02),
      geometry("wan25_paced_5g", harness::amlight_wan(25), units::gbps(5), 64e6, 0.1),
      geometry("wan25_window_limited", harness::amlight_wan(25), 0.0, 4e6, 0.1),
  };
}

std::map<std::string, std::string> load_golden() {
  std::map<std::string, std::string> out;
  std::ifstream in(kGolden);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string name, hex;
    fields >> name >> hex;
    out[name] = hex;
  }
  return out;
}

TEST(EngineDigests, MatchGolden) {
  const auto golden = load_golden();
  std::vector<Cell> cells = fluid_cells();
  for (auto& c : packet_cells()) cells.push_back(std::move(c));

  std::string file =
      "# FNV-1a 64 over the hex-float text of every result field; written by\n"
      "# tests/test_engine_digests.cpp. Must not move under a pure refactor.\n";
  for (const auto& c : cells) {
    const std::string got = c.run();
    file += c.name + " " + got + "\n";
    const auto it = golden.find(c.name);
    EXPECT_TRUE(it != golden.end() && it->second == got)
        << c.name << ": digest " << got << ", golden "
        << (it == golden.end() ? std::string("(missing)") : it->second);
  }
  EXPECT_EQ(golden.size(), cells.size()) << "golden file lists cells this test does not run";
  if (HasFailure()) {
    ADD_FAILURE() << "simulated output moved. If that is intended, replace " << kGolden
                  << " with:\n"
                  << file;
  }
}

}  // namespace
}  // namespace dtnsim::flow
