// Edge-case tests: Json parser hardening (depth limit boundary, NaN/Inf
// rejection, truncated cache files) and unit-typed value round-trips — the
// properties the sweep result cache leans on.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "dtnsim/units/units.hpp"
#include "dtnsim/util/json.hpp"

namespace dtnsim {
namespace {

std::string nested_arrays(int n) {
  std::string s;
  for (int i = 0; i < n; ++i) s += '[';
  for (int i = 0; i < n; ++i) s += ']';
  return s;
}

std::string nested_objects(int n) {
  std::string s;
  for (int i = 0; i < n; ++i) s += "{\"k\":";
  s += "0";
  for (int i = 0; i < n; ++i) s += '}';
  return s;
}

// The parser admits values at depth 0..64 inclusive: 65 nested arrays put
// the innermost at depth 64 (accepted); 66 push to 65 (rejected). The exact
// boundary is load-bearing — a regressing parser either stack-overflows on
// hostile input or starts rejecting legitimately deep documents.
TEST(JsonDepth, ExactBoundary) {
  EXPECT_TRUE(Json::parse(nested_arrays(65)).has_value());
  EXPECT_FALSE(Json::parse(nested_arrays(66)).has_value());
  // The object chain bottoms out in a number one level below the innermost
  // object, so its boundary sits one shallower than the empty-array chain.
  EXPECT_TRUE(Json::parse(nested_objects(64)).has_value());
  EXPECT_FALSE(Json::parse(nested_objects(65)).has_value());
}

TEST(JsonDepth, WayBeyondLimitDoesNotCrash) {
  EXPECT_FALSE(Json::parse(nested_arrays(10000)).has_value());
}

TEST(JsonNonFinite, LiteralsRejected) {
  for (const char* text : {"NaN", "nan", "Infinity", "-Infinity", "inf", "-inf"}) {
    EXPECT_FALSE(Json::parse(text).has_value()) << text;
  }
}

TEST(JsonNonFinite, OverflowingLiteralsRejected) {
  // strtod("1e999") yields +inf; the parser must not admit it as a number.
  EXPECT_FALSE(Json::parse("1e999").has_value());
  EXPECT_FALSE(Json::parse("-1e999").has_value());
  EXPECT_FALSE(Json::parse("{\"v\": 1e999}").has_value());
  // Large-but-finite still parses.
  EXPECT_TRUE(Json::parse("1e308").has_value());
}

// strtod's verdict and value on the tokens around the edges of its grammar:
// a leading '+' and a bare trailing '.' parse, -0 keeps its sign, an
// underflow reads as the nearest double (0 below the smallest subnormal),
// and a second sign or exponent rejects the document.
TEST(JsonNumbers, EdgeTokensKeepStrtodVerdicts) {
  const auto parsed = [](const char* text) {
    const auto j = Json::parse(text);
    EXPECT_TRUE(j && j->is_number()) << text;
    return j ? j->number_or(-1.0) : -1.0;
  };
  EXPECT_EQ(parsed("+1"), 1.0);
  EXPECT_EQ(parsed("1."), 1.0);
  EXPECT_EQ(parsed("-0"), 0.0);
  EXPECT_TRUE(std::signbit(parsed("-0")));
  EXPECT_EQ(parsed("1e-400"), 0.0);
  EXPECT_EQ(parsed("4.9e-324"), std::numeric_limits<double>::denorm_min());
  EXPECT_FALSE(Json::parse("1e5e5").has_value());
  EXPECT_FALSE(Json::parse("--1").has_value());
}

TEST(JsonNonFinite, NonFiniteNumbersDoNotRoundTrip) {
  // Dumping a NaN/Inf produces text the parser rejects — a poisoned cache
  // entry reads as a miss, not as a corrupt result.
  EXPECT_FALSE(Json::parse(Json(std::nan("")).dump()).has_value());
  EXPECT_FALSE(Json::parse(Json(std::numeric_limits<double>::infinity()).dump()).has_value());
}

TEST(JsonTruncated, EveryPrefixFailsCleanly) {
  // A kill mid-write leaves an arbitrary prefix on disk; each one must load
  // as nullopt (cache miss), never crash or return a partial document.
  const std::string doc =
      "{\"name\": \"cell\", \"avg_gbps\": 98.7, \"flags\": [true, false, null], "
      "\"nested\": {\"retr\": 1234, \"range\": [9.0, 16.0]}}";
  ASSERT_TRUE(Json::parse(doc).has_value());
  for (std::size_t len = 0; len < doc.size(); ++len) {
    EXPECT_FALSE(Json::parse(doc.substr(0, len)).has_value()) << "prefix len " << len;
  }
}

TEST(JsonTruncated, DanglingTokens) {
  for (const char* text : {"tru", "fals", "nul", "12e", "-", "\"abc", "{\"a\"", "[1,", "{\"a\":"}) {
    EXPECT_FALSE(Json::parse(text).has_value()) << text;
  }
}

TEST(JsonTruncated, TrailingGarbageRejected) {
  EXPECT_FALSE(Json::parse("{} x").has_value());
  EXPECT_FALSE(Json::parse("[1] [2]").has_value());
  EXPECT_TRUE(Json::parse("{}  \n\t ").has_value());  // trailing ws is fine
}

// Unit-typed values ride through Json as raw doubles (.value()/.bps()/...)
// and must reconstruct bit-identically — a cached sweep cell and a freshly
// simulated one have to compare equal.
TEST(JsonUnits, StrongTypesRoundTripExactly) {
  Json j = Json::object();
  j["optmem"] = Json(units::Bytes::kib(3325.5).value());
  j["pacing"] = Json(units::Rate::from_gbps(98.7).bps());
  j["duration_ns"] = Json(static_cast<std::int64_t>(
      units::SimTime::from_seconds(60).nanos()));
  j["gso"] = Json(units::Bytes(150.0 * 1024.0 + 0.25).value());

  const auto back = Json::parse(j.dump());
  ASSERT_TRUE(back.has_value());

  const units::Bytes optmem{back->number_at("optmem", -1)};
  const auto pacing = units::Rate::from_bps(back->number_at("pacing", -1));
  const auto duration = units::SimTime::from_nanos(
      static_cast<Nanos>(back->number_at("duration_ns", -1)));
  const units::Bytes gso{back->number_at("gso", -1)};

  EXPECT_EQ(optmem, units::Bytes::kib(3325.5));
  EXPECT_EQ(pacing, units::Rate::from_gbps(98.7));
  EXPECT_EQ(duration.nanos(), units::seconds(60));
  EXPECT_EQ(gso.value(), 150.0 * 1024.0 + 0.25);
}

TEST(JsonUnits, PrettyPrintRoundTripsToo) {
  Json j = Json::object();
  j["rate"] = Json(units::Rate::from_mbps(123.456).bps());
  const auto back = Json::parse(j.dump(2));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->number_at("rate", -1), units::Rate::from_mbps(123.456).bps());
}

}  // namespace
}  // namespace dtnsim
