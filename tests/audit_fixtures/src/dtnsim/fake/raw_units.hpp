// Fixture: raw-unit-double (scaled-unit doubles in a public header).
#pragma once

namespace dtnsim::fake {

// Both parameters should ride in units::Rate / units::SimTime.
double transfer_score(double pacing_gbps, double duration_seconds);

// The return type should ride in units::SimTime.
double elapsed_seconds();

// Legal by convention: tick-level dt_sec and raw bits-per-second.
double tick_step(double dt_sec, double rate_bps);

}  // namespace dtnsim::fake
