// Declarative parameter grid over harness::TestSpec.
//
// Every paper figure is a cross-product — kernels x paths x stream counts x
// tuning knobs — and before this subsystem each bench binary hand-rolled its
// own nested loops. A GridSpec names the axes once; expand() produces the
// deterministic, stably ordered cell list the campaign engine runs.
//
// Determinism contract (see docs/SWEEP.md):
//   - expansion is row-major over the axes in declaration order (kernels
//     slowest, ring fastest); the same GridSpec always yields the same cell
//     list in the same order.
//   - each cell's seed is derived from the campaign base_seed and the hash
//     of the cell's own knob content — NOT from its position — so adding,
//     removing or reordering axis values never changes the seed (and hence
//     the cached result) of any other cell.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dtnsim/harness/runner.hpp"
#include "dtnsim/obs/telemetry.hpp"

namespace dtnsim::sweep {

struct GridSpec {
  std::string name = "campaign";
  // Testbed by name, as the CLI spells them: amlight | amlight-baremetal |
  // esnet | production. The testbed is rebuilt per kernel axis value.
  std::string testbed = "esnet";

  // Axes, expanded row-major in this declaration order. Every axis must be
  // non-empty (a single value makes it a constant).
  std::vector<kern::KernelVersion> kernels{kern::KernelVersion::V6_8};
  std::vector<std::string> paths{""};    // "" -> the testbed LAN
  std::vector<int> streams{1};           // iperf -P
  std::vector<double> pacing_gbps{0.0};  // per-stream fq rate; 0 = unpaced
  std::vector<bool> zerocopy{false};
  std::vector<double> optmem_max{-1.0};  // bytes; < 0 -> testbed default
  std::vector<bool> big_tcp{false};
  std::vector<int> ring{-1};             // descriptors; < 0 -> testbed default
  // Scenario timelines (docs/SCENARIO.md); an empty Timeline is the "no
  // scenario" value. Non-empty timelines enter the cell seed and the cache
  // key event-by-event, so editing a timeline re-simulates only its cells.
  std::vector<dtnsim::scenario::Timeline> scenarios{dtnsim::scenario::Timeline{}};

  // Non-axis knobs applied to every cell.
  bool skip_rx_copy = false;
  kern::CongestionAlgo congestion = kern::CongestionAlgo::Cubic;
  double big_tcp_bytes = 150.0 * 1024.0;
  double duration_sec = 60.0;
  int repeats = 10;
  std::uint64_t base_seed = 0x5eed;
  // Applied to every cell verbatim. Telemetry does not enter the cell seed
  // or the cache key, but the campaign engine refuses to cache cells with
  // telemetry enabled (series are too big to address by spec content).
  obs::TelemetryConfig telemetry;
};

// One expanded grid cell.
struct Cell {
  std::size_t index = 0;   // position in expansion order
  harness::TestSpec spec;  // runnable; base_seed already derived
  std::uint64_t key = 0;   // spec_key(spec), from the text the seed came from
  // Axis coordinates as printable (axis, value) pairs, in axis order —
  // exactly what the campaign's JSONL rows carry.
  std::vector<std::pair<std::string, std::string>> coords;
};

// "" when the grid is well-formed, otherwise a human-readable problem.
std::string validate(const GridSpec& grid);

std::size_t cell_count(const GridSpec& grid);

// Expand to the full cell list. Throws std::invalid_argument when
// validate() reports a problem (including an unknown testbed or path name).
std::vector<Cell> expand(const GridSpec& grid);

}  // namespace dtnsim::sweep
