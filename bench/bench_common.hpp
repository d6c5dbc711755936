// Shared helpers for the paper-reproduction bench binaries.
//
// Every bench regenerates one table or figure from the paper, or a cell the
// experiment registry does not run yet: same rows, same series, printed
// alongside the paper's reference values so the shape comparison is
// immediate. Artifacts the registry covers run through `dtnsim-repro <id>`,
// which also checks their claims. All benches run 60 s x 10 repeats, the
// harness::TestSpec defaults, unless a cheaper grid is noted (the harness is
// deterministic, so repeats only add the paper's run-to-run spread).
#pragma once

#include <cstdio>
#include <string>

#include "dtnsim/core/dtnsim.hpp"

namespace dtnsim::bench {

inline void print_header(const std::string& id, const std::string& what,
                         const std::string& setup) {
  std::printf("================================================================\n");
  std::printf("%s — %s\n", id.c_str(), what.c_str());
  std::printf("Setup: %s\n", setup.c_str());
  std::printf("================================================================\n\n");
}

inline std::string gbps(double v) { return strfmt("%.1f Gbps", v); }
inline std::string gbps_pm(const harness::TestResult& r) {
  return strfmt("%.1f ± %.1f", r.avg_gbps, r.stdev_gbps);
}
inline std::string pct(double v) { return strfmt("%.0f%%", v); }
inline std::string count(double v) {
  if (v >= 1000) return strfmt("%.0fK", v / 1000.0);
  return strfmt("%.0f", v);
}

}  // namespace dtnsim::bench
