#include "dtnsim/sweep/grid.hpp"

#include <cmath>
#include <stdexcept>

#include "dtnsim/sweep/cache.hpp"
#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::sweep {
namespace {

std::string fmt_bytes(double v) {
  return v < 0 ? std::string("default") : strfmt("%.0f", v);
}

std::string fmt_ring(int v) {
  return v < 0 ? std::string("default") : strfmt("%d", v);
}

std::string fmt_scenario(const dtnsim::scenario::Timeline& tl) {
  if (tl.empty()) return "none";
  return tl.name.empty() ? std::string("unnamed") : tl.name;
}

}  // namespace

std::string validate(const GridSpec& grid) {
  const struct {
    const char* axis;
    bool empty;
  } axes[] = {
      {"kernels", grid.kernels.empty()},   {"paths", grid.paths.empty()},
      {"streams", grid.streams.empty()},   {"pacing_gbps", grid.pacing_gbps.empty()},
      {"zerocopy", grid.zerocopy.empty()}, {"optmem_max", grid.optmem_max.empty()},
      {"big_tcp", grid.big_tcp.empty()},   {"ring", grid.ring.empty()},
      {"scenarios", grid.scenarios.empty()},
  };
  for (const auto& a : axes) {
    if (a.empty) return strfmt("axis '%s' is empty", a.axis);
  }
  for (const auto& tl : grid.scenarios) {
    try {
      tl.validate();
    } catch (const std::exception& e) {
      return e.what();
    }
  }
  for (const int s : grid.streams) {
    if (s < 1 || s > 128) return strfmt("streams value %d out of [1, 128]", s);
  }
  // A value expand() would label but not apply (NaN fails every comparison;
  // ring 0 is neither a descriptor count nor "default") is refused.
  for (const double p : grid.pacing_gbps) {
    if (!(p >= 0)) return "pacing_gbps values must be >= 0";
  }
  for (const double b : grid.optmem_max) {
    if (std::isnan(b)) return "optmem_max values must be numbers (< 0 = testbed default)";
  }
  for (const int r : grid.ring) {
    if (r == 0) return "ring values must be > 0 (< 0 = testbed default)";
  }
  if (grid.duration_sec <= 0) return "duration_sec must be positive";
  if (grid.repeats < 1) return "repeats must be >= 1";
  try {
    for (const auto k : grid.kernels) {
      const auto tb = harness::testbed_by_name(grid.testbed, k);
      for (const auto& p : grid.paths) (void)tb.path_named(p);
    }
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

std::size_t cell_count(const GridSpec& grid) {
  return grid.kernels.size() * grid.paths.size() * grid.streams.size() *
         grid.pacing_gbps.size() * grid.zerocopy.size() * grid.optmem_max.size() *
         grid.big_tcp.size() * grid.ring.size() * grid.scenarios.size();
}

std::vector<Cell> expand(const GridSpec& grid) {
  if (const std::string problem = validate(grid); !problem.empty()) {
    throw std::invalid_argument("sweep grid '" + grid.name + "': " + problem);
  }

  std::vector<Cell> cells;
  cells.reserve(cell_count(grid));
  for (const auto kernel : grid.kernels) {
    // One testbed build per kernel value, shared across the inner axes.
    const harness::Testbed tb = harness::testbed_by_name(grid.testbed, kernel);
    for (const auto& path : grid.paths) {
      for (const int streams : grid.streams) {
        for (const double pacing : grid.pacing_gbps) {
          for (const bool zerocopy : grid.zerocopy) {
            for (const double optmem : grid.optmem_max) {
              for (const bool big_tcp : grid.big_tcp) {
                for (const int ring : grid.ring) {
                  for (const auto& scn : grid.scenarios) {
                    app::IperfOptions iperf;
                    iperf.parallel = streams;
                    iperf.duration_sec = grid.duration_sec;
                    iperf.fq_rate_bps = pacing * 1e9;
                    iperf.zerocopy = zerocopy;
                    iperf.skip_rx_copy = grid.skip_rx_copy;
                    iperf.congestion = grid.congestion;

                    Cell cell;
                    cell.index = cells.size();
                    cell.spec = harness::TestSpec::on(tb, path, iperf);
                    cell.spec.repeats = grid.repeats;
                    cell.spec.telemetry = grid.telemetry;
                    cell.spec.scenario = scn;
                    for (auto* h : {&cell.spec.sender, &cell.spec.receiver}) {
                      if (optmem >= 0) h->tuning.sysctl.optmem_max = optmem;
                      if (big_tcp) h->tuning.big_tcp_enabled = true;
                      if (ring > 0) h->tuning.ring_descriptors = ring;
                    }
                    // The seed derives from the knob content, not the cell
                    // position: reordering or extending an axis never
                    // perturbs other cells.
                    cell.key = seed_and_key(cell.spec, grid.base_seed);
                    cell.spec.name = strfmt(
                        "%s/%s/%s/P%d/pace%g/zc%d/optmem%s/bigtcp%d/ring%s",
                        grid.name.c_str(), kern::kernel_version_name(kernel),
                        cell.spec.path.name.c_str(), streams, pacing, zerocopy ? 1 : 0,
                        fmt_bytes(optmem).c_str(), big_tcp ? 1 : 0,
                        fmt_ring(ring).c_str());
                    // Scenario-less names stay exactly as before the axis
                    // existed, so prior campaign labels remain addressable.
                    if (!scn.empty()) {
                      cell.spec.name += "/scn-" + fmt_scenario(scn);
                    }

                    cell.coords = {
                        {"kernel", kern::kernel_version_name(kernel)},
                        {"path", cell.spec.path.name},
                        {"streams", strfmt("%d", streams)},
                        {"pacing_gbps", strfmt("%g", pacing)},
                        {"zerocopy", zerocopy ? "1" : "0"},
                        {"optmem_max", fmt_bytes(optmem)},
                        {"big_tcp", big_tcp ? "1" : "0"},
                        {"ring", fmt_ring(ring)},
                        {"scenario", fmt_scenario(scn)},
                    };
                    cells.push_back(std::move(cell));
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

}  // namespace dtnsim::sweep
