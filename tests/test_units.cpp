// Strong-typed units: conversions, literals, constexpr arithmetic, checked
// factories. Most of the contract is enforced at compile time via
// static_assert — if this file compiles, the arithmetic identities hold.
// The compile-fail side (Bits where Bytes is expected must NOT compile) is
// covered by tests/compile_fail/ at configure time.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "dtnsim/units/units.hpp"

using namespace dtnsim;
using namespace dtnsim::units;
using namespace dtnsim::units::literals;

// --- compile-time contract ------------------------------------------------

static_assert(Bytes(1024.0).value() == 1024.0);
static_assert(Bytes::kib(1).value() == 1024.0);
static_assert(Bytes::mib(1).value() == 1024.0 * 1024.0);
static_assert(Bytes::gib(2).value() == 2.0 * 1024.0 * 1024.0 * 1024.0);
static_assert(Bytes::pages(3).value() == 3.0 * 4096.0);
static_assert((150_KiB).value() == 150.0 * 1024.0);
static_assert((1.5_MiB).value() == 1.5 * 1024.0 * 1024.0);

// The factor-of-8 boundary, both directions.
static_assert(to_bits(Bytes(1.0)).value() == 8.0);
static_assert(bits_to_bytes(Bits(64.0)).value() == 8.0);
static_assert(Bytes(5.0).to_bits().to_bytes() == Bytes(5.0));

// Rates: 10^3 decimal (wire units), never 2^10.
static_assert((12.5_Gbps).bps() == 12.5e9);
static_assert(Rate::from_gbps(100).gbps() == 100.0);
static_assert(Rate::from_mbps(1000).bps() == 1e9);
static_assert(Rate::from_kbps(1).bps() == 1e3);

// Time: integer nanoseconds under the hood, like the event engine.
static_assert((60_s).nanos() == 60 * kNanosPerSec);
static_assert((104_ms).nanos() == 104'000'000);
static_assert((17_us).nanos() == 17'000);
static_assert(SimTime::from_seconds(2.5).seconds() == 2.5);
static_assert((1_s) + (500_ms) == SimTime::from_millis(1500));

// Rate x time and back.
static_assert(Rate::from_gbps(8).bytes_in(1_s).value() == 1e9);
static_assert(Rate::of(Bytes(1e9), 1_s).gbps() == 8.0);
static_assert(Rate::of(Bytes(1e9), SimTime()).bps() == 0.0);

// In-unit arithmetic stays in the unit; ratios are dimensionless.
static_assert(Bytes(10) + Bytes(5) == Bytes(15));
static_assert(Bytes(10) - Bytes(5) == Bytes(5));
static_assert(2.0 * Cycles(30) == Cycles(60));
static_assert(Cycles(60) / 2.0 == Cycles(30));
static_assert(Bytes(64) / Bytes(8) == 8.0);
static_assert(Packets(3) < Packets(4));
static_assert((100_cyc) >= (100_cyc));

// The strong-type factories agree exactly with the raw-double helpers they
// replace at API boundaries (bit-identity of the refactor rests on this).
static_assert(Rate::from_gbps(15).bps() == gbps(15));
static_assert(SimTime::from_seconds(60).nanos() == seconds(60));
static_assert(Bytes::kib(150).value() == kib(150));
static_assert(Rate::from_bps(5e9).bytes_in(SimTime::from_seconds(2)).value() ==
              bytes_at(5e9, 2.0));

// --- runtime checks -------------------------------------------------------

// The std::invalid_argument message `make` throws; "(no throw)" if none.
template <class F>
std::string rejection(F&& make) {
  try {
    make();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "(no throw)";
}

TEST(Units, CheckedFactoriesRejectNonFinite) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(rejection([&] { (void)Bytes(nan); }), "units: NaN Bytes");
  EXPECT_EQ(rejection([&] { (void)Bytes(inf); }), "units: non-finite Bytes");
  EXPECT_EQ(rejection([&] { (void)Rate::from_gbps(nan); }), "units: NaN Rate");
  EXPECT_EQ(rejection([&] { (void)SimTime::from_seconds(inf); }),
            "units: non-finite SimTime");
  EXPECT_EQ(rejection([&] { (void)Cycles(-inf); }), "units: non-finite Cycles");
  EXPECT_EQ(rejection([&] { (void)Packets(nan); }), "units: NaN Packets");
  EXPECT_EQ(rejection([&] { (void)Bytes(1.0); }), "(no throw)");
  // A time whose nanoseconds do not fit Nanos (the cast would be undefined).
  EXPECT_EQ(rejection([&] { (void)SimTime::from_seconds(1e12); }),
            "units: SimTime out of range");
  EXPECT_EQ(rejection([&] { (void)SimTime::from_millis(-1e16); }),
            "units: SimTime out of range");
  EXPECT_EQ(rejection([&] { (void)SimTime::from_micros(1e300); }),
            "units: SimTime out of range");
  EXPECT_EQ(rejection([&] { (void)SimTime::from_seconds(9.2e9); }), "(no throw)");
}

TEST(Units, CompoundAssignment) {
  Bytes acc(100.0);
  acc += Bytes(28.0);
  EXPECT_DOUBLE_EQ(acc.value(), 128.0);
  acc -= 28_B;
  EXPECT_DOUBLE_EQ(acc.value(), 100.0);
}

TEST(Units, StrongFormattersMatchRawFormatters) {
  EXPECT_EQ(format_rate(42.1_Gbps), format_rate(42.1e9));
  EXPECT_EQ(format_bytes(3.25_MiB), format_bytes(3.25 * 1024.0 * 1024.0));
  EXPECT_EQ(format_time(104_ms), format_time(millis(104)));
}

TEST(Units, FormattingPicksHumanScale) {
  EXPECT_EQ(format_rate(42.1e9), "42.10 Gbps");
  EXPECT_EQ(format_bytes(1024.0), "1.00 KiB");
  EXPECT_EQ(format_time(seconds(2)), "2.00 s");
}

TEST(Units, RoundTripThroughDoubleSecondsIsExactForWholeSeconds) {
  for (int s = 1; s <= 600; ++s) {
    EXPECT_DOUBLE_EQ(SimTime::from_seconds(static_cast<double>(s)).seconds(),
                     static_cast<double>(s));
  }
}
