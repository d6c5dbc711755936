// Strong-typed units: the quantities the paper's results are made of.
//
// The reproduction mixes Gbps line rates, GiB buffer limits, MB/s memory
// bandwidth, cycles-per-byte CPU costs, microsecond RTTs and page-sized
// optmem budgets — exactly the conversions where a silent factor-of-8 or a
// 10^3-vs-2^10 slip fabricates a "result". These wrappers make the unit part
// of the type, so passing bytes where bits are expected is a compile error,
// not a plausible-looking number.
//
// Design rules (enforced by tests/test_units.cpp and the compile-fail check
// in tests/compile_fail/):
//   - explicit constructors, no implicit narrowing or cross-unit conversion;
//   - conversions are spelled out (`to_bits`, `bits_to_bytes`,
//     `Rate::from_gbps`, `rate.bytes_in(t)`) and `constexpr`;
//   - factories reject NaN/Inf inputs, and SimTime's reject times whose
//     nanoseconds overflow Nanos (std::invalid_argument) — a poisoned knob
//     must fail loudly at the boundary, not 60 simulated seconds later;
//   - arithmetic stays inside the unit (Bytes + Bytes = Bytes; Bytes / Bytes
//     = dimensionless double; scalar scaling allowed), all `constexpr`;
//   - unit-suffix literals live in `dtnsim::units::literals`
//     (`150_KiB`, `12.5_Gbps`, `60_s`, `104_ms`).
//
// The pre-existing double-based helpers (units::gbps, units::seconds,
// bytes_at, ...) live at the bottom of this header: they remain the
// convention *inside* tick-level fluid math, where everything is double
// seconds / double bytes by construction. Public APIs between subsystems
// take the strong types. tests/link_audit.py (rule `raw-unit-double`) keeps
// raw `double gbps/seconds` parameters out of public headers outside this
// directory.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace dtnsim {

// Simulated time in integer nanoseconds — the event engine's clock type.
using Nanos = std::int64_t;

namespace units {

inline constexpr Nanos kNanosPerSec = 1'000'000'000;

namespace detail {
// Throws "units: NaN <what>" or "units: non-finite <what>". Cold and never
// inlined, so the guard below inlines into hot loops as two compares.
[[noreturn, gnu::cold, gnu::noinline]] inline void reject_non_finite(bool nan,
                                                                    const char* what) {
  throw std::invalid_argument(std::string(nan ? "units: NaN " : "units: non-finite ") +
                              what);
}

// Throws "units: <what> out of range". Cold and never inlined, like the above.
[[noreturn, gnu::cold, gnu::noinline]] inline void reject_out_of_range(const char* what) {
  throw std::invalid_argument(std::string("units: ") + what + " out of range");
}

// NaN/Inf guard usable in constexpr context: the throw only materializes
// when the bad branch is actually taken, so constant-folded good values
// stay constexpr while a poisoned runtime value throws.
constexpr double checked(double v, const char* what) {
  if (v != v) reject_non_finite(true, what);
  if (v > 1.7976931348623157e308 || v < -1.7976931348623157e308)
    reject_non_finite(false, what);
  return v;
}

// `v` NaN/Inf-checked, scaled to nanoseconds and truncated to Nanos; throws
// when the product does not fit, where the cast would be undefined.
constexpr Nanos checked_nanos(double v, double ns_per_unit) {
  const double ns = checked(v, "SimTime") * ns_per_unit;
  if (!(ns >= -9223372036854775808.0 && ns < 9223372036854775808.0))
    reject_out_of_range("SimTime");
  return static_cast<Nanos>(ns);
}
}  // namespace detail

// CRTP base: storage, accessors, in-unit arithmetic and comparisons.
// Derived types add their named factories and cross-unit conversions.
template <class Derived>
class Scalar {
 public:
  constexpr double value() const { return v_; }

  friend constexpr Derived operator+(Derived a, Derived b) { return Derived(a.v_ + b.v_); }
  friend constexpr Derived operator-(Derived a, Derived b) { return Derived(a.v_ - b.v_); }
  friend constexpr Derived operator*(Derived a, double k) { return Derived(a.v_ * k); }
  friend constexpr Derived operator*(double k, Derived a) { return Derived(a.v_ * k); }
  friend constexpr Derived operator/(Derived a, double k) { return Derived(a.v_ / k); }
  // Ratio of two like quantities is dimensionless.
  friend constexpr double operator/(Derived a, Derived b) { return a.v_ / b.v_; }

  constexpr Derived& operator+=(Derived b) { v_ += b.v_; return self(); }
  constexpr Derived& operator-=(Derived b) { v_ -= b.v_; return self(); }

  friend constexpr bool operator==(Derived a, Derived b) { return a.v_ == b.v_; }
  friend constexpr bool operator!=(Derived a, Derived b) { return a.v_ != b.v_; }
  friend constexpr bool operator<(Derived a, Derived b) { return a.v_ < b.v_; }
  friend constexpr bool operator<=(Derived a, Derived b) { return a.v_ <= b.v_; }
  friend constexpr bool operator>(Derived a, Derived b) { return a.v_ > b.v_; }
  friend constexpr bool operator>=(Derived a, Derived b) { return a.v_ >= b.v_; }

 protected:
  constexpr Scalar() = default;
  constexpr explicit Scalar(double v, const char* what) : v_(detail::checked(v, what)) {}

 private:
  constexpr Derived& self() { return static_cast<Derived&>(*this); }
  double v_ = 0.0;
};

class Bits;
class SimTime;

// Payload sizes, buffer limits, window depths. Fractional values are legal:
// the fluid engine moves fractional bytes inside a tick.
class Bytes : public Scalar<Bytes> {
 public:
  constexpr Bytes() = default;
  constexpr explicit Bytes(double v) : Scalar(v, "Bytes") {}

  static constexpr Bytes kib(double k) { return Bytes(k * 1024.0); }
  static constexpr Bytes mib(double m) { return Bytes(m * 1024.0 * 1024.0); }
  static constexpr Bytes gib(double g) { return Bytes(g * 1024.0 * 1024.0 * 1024.0); }
  // 4 KiB kernel pages — zerocopy pins and optmem budgets are page-shaped.
  static constexpr Bytes pages(double n) { return Bytes(n * 4096.0); }

  constexpr Bits to_bits() const;
};

// Wire quantities (rates multiply out to bits).
class Bits : public Scalar<Bits> {
 public:
  constexpr Bits() = default;
  constexpr explicit Bits(double v) : Scalar(v, "Bits") {}

  constexpr Bytes to_bytes() const { return Bytes(value() / 8.0); }
};

constexpr Bits Bytes::to_bits() const { return Bits(value() * 8.0); }

// The two conversions every throughput paper gets one chance to do right.
constexpr Bits to_bits(Bytes b) { return b.to_bits(); }
constexpr Bytes bits_to_bytes(Bits b) { return b.to_bytes(); }

// Segment / SKB / descriptor counts (fluid, so fractional is legal).
class Packets : public Scalar<Packets> {
 public:
  constexpr Packets() = default;
  constexpr explicit Packets(double v) : Scalar(v, "Packets") {}
};

// CPU work. Budgets are cycles; costs are cycles-per-byte doubles applied
// to Bytes at the call site.
class Cycles : public Scalar<Cycles> {
 public:
  constexpr Cycles() = default;
  constexpr explicit Cycles(double v) : Scalar(v, "Cycles") {}
};

// Simulated time. Wraps the engine's integer-nanosecond clock; the double
// seconds view is for fluid-rate math inside a tick.
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(Nanos ns) : ns_(ns) {}

  static constexpr SimTime from_nanos(Nanos ns) { return SimTime(ns); }
  static constexpr SimTime from_seconds(double s) {
    return SimTime(detail::checked_nanos(s, 1e9));
  }
  static constexpr SimTime from_millis(double ms) {
    return SimTime(detail::checked_nanos(ms, 1e6));
  }
  static constexpr SimTime from_micros(double us) {
    return SimTime(detail::checked_nanos(us, 1e3));
  }

  constexpr Nanos nanos() const { return ns_; }
  constexpr double seconds() const { return static_cast<double>(ns_) / 1e9; }
  constexpr double millis() const { return static_cast<double>(ns_) / 1e6; }

  friend constexpr SimTime operator+(SimTime a, SimTime b) { return SimTime(a.ns_ + b.ns_); }
  friend constexpr SimTime operator-(SimTime a, SimTime b) { return SimTime(a.ns_ - b.ns_); }
  friend constexpr bool operator==(SimTime a, SimTime b) { return a.ns_ == b.ns_; }
  friend constexpr bool operator!=(SimTime a, SimTime b) { return a.ns_ != b.ns_; }
  friend constexpr bool operator<(SimTime a, SimTime b) { return a.ns_ < b.ns_; }
  friend constexpr bool operator<=(SimTime a, SimTime b) { return a.ns_ <= b.ns_; }
  friend constexpr bool operator>(SimTime a, SimTime b) { return a.ns_ > b.ns_; }
  friend constexpr bool operator>=(SimTime a, SimTime b) { return a.ns_ >= b.ns_; }

 private:
  Nanos ns_ = 0;
};

// Data rate in bits per second (the paper's native axis is Gbps).
class Rate : public Scalar<Rate> {
 public:
  constexpr Rate() = default;

  static constexpr Rate from_bps(double bps) { return Rate(bps); }
  static constexpr Rate from_kbps(double k) { return Rate(k * 1e3); }
  static constexpr Rate from_mbps(double m) { return Rate(m * 1e6); }
  static constexpr Rate from_gbps(double g) { return Rate(g * 1e9); }

  constexpr double bps() const { return value(); }
  constexpr double mbps() const { return value() / 1e6; }
  constexpr double gbps() const { return value() / 1e9; }

  // Bytes transferred in `t` at this rate.
  constexpr Bytes bytes_in(SimTime t) const { return Bytes(value() * t.seconds() / 8.0); }
  // Rate that moves `b` in `t`.
  static constexpr Rate of(Bytes b, SimTime t) {
    return Rate(t.seconds() > 0 ? b.value() * 8.0 / t.seconds() : 0.0);
  }

 private:
  constexpr explicit Rate(double bps) : Scalar(bps, "Rate") {}
};

namespace literals {
// clang-format off
constexpr Bytes   operator""_B(long double v)            { return Bytes(static_cast<double>(v)); }
constexpr Bytes   operator""_B(unsigned long long v)     { return Bytes(static_cast<double>(v)); }
constexpr Bytes   operator""_KiB(long double v)          { return Bytes::kib(static_cast<double>(v)); }
constexpr Bytes   operator""_KiB(unsigned long long v)   { return Bytes::kib(static_cast<double>(v)); }
constexpr Bytes   operator""_MiB(long double v)          { return Bytes::mib(static_cast<double>(v)); }
constexpr Bytes   operator""_MiB(unsigned long long v)   { return Bytes::mib(static_cast<double>(v)); }
constexpr Bytes   operator""_GiB(long double v)          { return Bytes::gib(static_cast<double>(v)); }
constexpr Bytes   operator""_GiB(unsigned long long v)   { return Bytes::gib(static_cast<double>(v)); }
constexpr Bits    operator""_bits(unsigned long long v)  { return Bits(static_cast<double>(v)); }
constexpr Packets operator""_pkts(unsigned long long v)  { return Packets(static_cast<double>(v)); }
constexpr Cycles  operator""_cyc(long double v)          { return Cycles(static_cast<double>(v)); }
constexpr Cycles  operator""_cyc(unsigned long long v)   { return Cycles(static_cast<double>(v)); }
constexpr Rate    operator""_Gbps(long double v)         { return Rate::from_gbps(static_cast<double>(v)); }
constexpr Rate    operator""_Gbps(unsigned long long v)  { return Rate::from_gbps(static_cast<double>(v)); }
constexpr Rate    operator""_Mbps(long double v)         { return Rate::from_mbps(static_cast<double>(v)); }
constexpr Rate    operator""_Mbps(unsigned long long v)  { return Rate::from_mbps(static_cast<double>(v)); }
constexpr SimTime operator""_s(long double v)            { return SimTime::from_seconds(static_cast<double>(v)); }
constexpr SimTime operator""_s(unsigned long long v)     { return SimTime::from_seconds(static_cast<double>(v)); }
constexpr SimTime operator""_ms(long double v)           { return SimTime::from_millis(static_cast<double>(v)); }
constexpr SimTime operator""_ms(unsigned long long v)    { return SimTime::from_millis(static_cast<double>(v)); }
constexpr SimTime operator""_us(long double v)           { return SimTime::from_micros(static_cast<double>(v)); }
constexpr SimTime operator""_us(unsigned long long v)    { return SimTime::from_micros(static_cast<double>(v)); }
// clang-format on
}  // namespace literals

// --- raw-double helpers (tick-level fluid math) --------------------------
// Conventions, unchanged since the seed: simulated time is Nanos for the
// event engine and double seconds inside a tick; rates are double bits/s;
// sizes are double bytes; CPU is double cycles. These helpers are the
// blessed constructors for those raw values.

// --- time -------------------------------------------------------------
constexpr Nanos seconds(double s) { return static_cast<Nanos>(s * 1e9); }
constexpr Nanos millis(double ms) { return static_cast<Nanos>(ms * 1e6); }
constexpr Nanos micros(double us) { return static_cast<Nanos>(us * 1e3); }
constexpr double to_seconds(Nanos t) { return static_cast<double>(t) / 1e9; }
constexpr double to_millis(Nanos t) { return static_cast<double>(t) / 1e6; }

// --- rates (bits per second) -------------------------------------------
constexpr double gbps(double g) { return g * 1e9; }
constexpr double mbps(double m) { return m * 1e6; }
constexpr double kbps(double k) { return k * 1e3; }
constexpr double to_gbps(double bps) { return bps / 1e9; }

// --- sizes (bytes) ------------------------------------------------------
constexpr double kib(double k) { return k * 1024.0; }
constexpr double mib(double m) { return m * 1024.0 * 1024.0; }
constexpr double gib(double g) { return g * 1024.0 * 1024.0 * 1024.0; }

// Bytes transferred in `t_sec` at `bps` bits/second.
constexpr double bytes_at(double bps, double t_sec) { return bps * t_sec / 8.0; }
// Rate that transfers `bytes` in `t_sec` seconds.
constexpr double rate_of(double bytes, double t_sec) {
  return t_sec > 0 ? bytes * 8.0 / t_sec : 0.0;
}

// Human-readable formatting ("42.1 Gbps", "104 ms", "3.25 MB").
std::string format_rate(double bps);
std::string format_bytes(double bytes);
std::string format_time(Nanos t);

inline std::string format_rate(Rate r) { return format_rate(r.bps()); }
inline std::string format_bytes(Bytes b) { return format_bytes(b.value()); }
inline std::string format_time(SimTime t) { return format_time(t.nanos()); }

}  // namespace units
}  // namespace dtnsim
