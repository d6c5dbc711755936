// Unit tests: util module (units, rng, stats, json, table, csv, strfmt).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "dtnsim/units/units.hpp"
#include "dtnsim/util/csv.hpp"
#include "dtnsim/util/json.hpp"
#include "dtnsim/util/rng.hpp"
#include "dtnsim/util/stats.hpp"
#include "dtnsim/util/strfmt.hpp"
#include "dtnsim/util/table.hpp"

namespace dtnsim {
namespace {

TEST(Units, TimeConversions) {
  EXPECT_EQ(units::seconds(1.0), 1'000'000'000);
  EXPECT_EQ(units::millis(1.0), 1'000'000);
  EXPECT_EQ(units::micros(1.0), 1'000);
  EXPECT_DOUBLE_EQ(units::to_seconds(units::seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(units::to_millis(units::millis(104.0)), 104.0);
}

TEST(Units, RateConversions) {
  EXPECT_DOUBLE_EQ(units::gbps(100.0), 100e9);
  EXPECT_DOUBLE_EQ(units::to_gbps(units::gbps(42.0)), 42.0);
  EXPECT_DOUBLE_EQ(units::mbps(1.0), 1e6);
}

TEST(Units, BytesAtRate) {
  // 8 Gbps for 1 second = 1 GB.
  EXPECT_DOUBLE_EQ(units::bytes_at(8e9, 1.0), 1e9);
  EXPECT_DOUBLE_EQ(units::rate_of(1e9, 1.0), 8e9);
  EXPECT_DOUBLE_EQ(units::rate_of(1e9, 0.0), 0.0);
}

TEST(Units, Formatting) {
  EXPECT_EQ(units::format_rate(55.0e9), "55.00 Gbps");
  EXPECT_EQ(units::format_rate(120.0e6), "120.00 Mbps");
  EXPECT_EQ(units::format_bytes(1048576.0), "1.00 MiB");
  EXPECT_EQ(units::format_time(units::millis(104)), "104.00 ms");
}

TEST(Strfmt, Formats) {
  EXPECT_EQ(strfmt("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strfmt("%.2f", 3.14159), "3.14");
  EXPECT_EQ(strfmt("empty"), "empty");
}

// Doubles drawn over every exponent (subnormals, NaN and Inf included) by
// raw bit pattern, plus hand-picked edges.
std::vector<double> number_sample() {
  std::vector<double> out = {0.0, -0.0, 1.0, 0.1, 0.3 * 1e9, 1.03, 0.35, 1e15, 9e15, 1e16,
                             123456789012345678.0, std::numeric_limits<double>::min(),
                             std::numeric_limits<double>::denorm_min(),
                             std::numeric_limits<double>::max(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()};
  Rng rng(2024);
  for (int i = 0; i < 10000; ++i) {
    std::uint64_t bits = rng.next();
    if (i % 4 == 0) bits &= 0x800fffffffffffffULL;  // subnormal
    double v;
    std::memcpy(&v, &bits, sizeof v);
    out.push_back(v);
  }
  return out;
}

TEST(Strfmt, AppendMatchesPrintf) {
  for (const double v : number_sample()) {
    for (const int precision : {15, 17}) {
      std::string got;
      append_g(got, v, precision);
      ASSERT_EQ(got, strfmt("%.*g", precision, v)) << "precision " << precision;
    }
  }
  const long long ints[] = {0, -1, 42, std::numeric_limits<long long>::min(),
                            std::numeric_limits<long long>::max()};
  for (const long long v : ints) {
    std::string got;
    append_int(got, v);
    EXPECT_EQ(got, strfmt("%lld", v));
  }
  std::string got;
  append_int(got, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(got, "18446744073709551615");
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, Uniform01InRange) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng r(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values reachable
}

TEST(Rng, NormalMoments) {
  Rng r(99);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalMedian) {
  Rng r(5);
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) xs.push_back(r.lognormal(4.0, 0.5));
  EXPECT_NEAR(percentile_of(xs, 50.0), 4.0, 0.15);
}

TEST(Rng, SubstreamsIndependent) {
  Rng base(42);
  Rng s0 = base.substream(0);
  Rng s1 = base.substream(1);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += s0.next() == s1.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, SubstreamReproducible) {
  Rng a(42), b(42);
  Rng sa = a.substream(3), sb = b.substream(3);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(sa.next(), sb.next());
}

TEST(RunningStats, Basics) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptySafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng r(11);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    const double x = r.normal(0, 1);
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, Percentile) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(percentile_of(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 25), 2.0);
  EXPECT_DOUBLE_EQ(percentile_of({}, 50), 0.0);
}

TEST(Json, ScalarsAndNesting) {
  Json j = Json::object();
  j["a"] = 1;
  j["b"] = "text";
  j["c"] = true;
  j["nested"]["x"] = 2.5;
  EXPECT_EQ(j.dump(), R"({"a":1,"b":"text","c":true,"nested":{"x":2.5}})");
}

TEST(Json, Arrays) {
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  EXPECT_EQ(arr.size(), 2u);
  EXPECT_EQ(arr.dump(), R"([1,"two"])");
}

TEST(Json, Escaping) {
  Json j = Json::object();
  j["k"] = "line\n\"quote\"\\";
  EXPECT_EQ(j.dump(), "{\"k\":\"line\\n\\\"quote\\\"\\\\\"}");
}

TEST(Json, IntegersStayIntegral) {
  Json j = Json::object();
  j["n"] = 1048576;
  EXPECT_EQ(j.dump(), R"({"n":1048576})");
}

TEST(Json, PrettyPrint) {
  Json j = Json::object();
  j["a"] = 1;
  const std::string s = j.dump(2);
  EXPECT_NE(s.find("{\n  \"a\": 1\n}"), std::string::npos);

  Json arr = Json::array();
  arr.push_back(1.5);
  arr.push_back(Json::object());
  arr.push_back(Json::array());
  j["b"] = std::move(arr);
  EXPECT_EQ(j.dump(2), "{\n  \"a\": 1,\n  \"b\": [\n    1.5,\n    {},\n    []\n  ]\n}");
  EXPECT_EQ(j.dump(), R"({"a":1,"b":[1.5,{},[]]})");
}

// The writer is printf's: integral values below 9e15 as %lld, others as the
// shorter of %.15g and %.17g that strtod reads back exactly.
TEST(Json, NumbersMatchPrintfText) {
  for (const double v : number_sample()) {
    std::string want;
    if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e15) {
      want = strfmt("%lld", static_cast<long long>(v));
    } else {
      want = strfmt("%.15g", v);
      if (std::strtod(want.c_str(), nullptr) != v) want = strfmt("%.17g", v);
    }
    ASSERT_EQ(Json(v).dump(), want);
  }
}

TEST(JsonParse, RoundTripsDumpedDocuments) {
  Json j = Json::object();
  j["num"] = 1048576;
  j["frac"] = 2.5;
  j["neg"] = -3;
  j["text"] = "line\n\"quote\"\\";
  j["yes"] = true;
  j["no"] = false;
  j["nil"] = nullptr;
  j["nested"]["x"] = 1;
  Json arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  j["arr"] = std::move(arr);

  const auto parsed = Json::parse(j.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(), j.dump());
}

TEST(JsonParse, TypedAccessors) {
  const auto j = Json::parse(R"({"n": 4.5, "b": true, "s": "hi", "a": [10, 20]})");
  ASSERT_TRUE(j.has_value());
  EXPECT_DOUBLE_EQ(j->number_at("n", 0), 4.5);
  EXPECT_TRUE(j->bool_at("b", false));
  EXPECT_EQ(j->string_at("s", ""), "hi");
  EXPECT_DOUBLE_EQ(j->number_at("missing", -1), -1.0);
  EXPECT_EQ(j->find("missing"), nullptr);
  const Json* a = j->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->size(), 2u);
  EXPECT_DOUBLE_EQ(a->at(0)->number_or(0), 10.0);
  EXPECT_DOUBLE_EQ(a->at(1)->number_or(0), 20.0);
  EXPECT_EQ(a->at(2), nullptr);  // out of range
}

TEST(JsonParse, StringEscapes) {
  const auto j = Json::parse(R"({"k": "a\tbA\\\"/"})");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j->string_at("k", ""), "a\tbA\\\"/");
  // \uXXXX escapes decode to UTF-8.
  const auto u = Json::parse("\"\\u0041\\u00e9\"");
  ASSERT_TRUE(u.has_value());
  EXPECT_EQ(u->string_or(""), "A\xc3\xa9");
}

TEST(JsonParse, RejectsMalformedAndTruncated) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse(R"({"k": )").has_value());          // truncated value
  EXPECT_FALSE(Json::parse(R"({"k": 1,})").has_value());       // trailing comma
  EXPECT_FALSE(Json::parse(R"({"k": 1} extra)").has_value());  // trailing garbage
  EXPECT_FALSE(Json::parse(R"({"k": tru)").has_value());       // cut keyword
  EXPECT_FALSE(Json::parse(R"({"k": "unterminated)").has_value());
  EXPECT_FALSE(Json::parse("[1, 2").has_value());
  EXPECT_FALSE(Json::parse("nope").has_value());
  // A cache row truncated mid-write (the kill-safety case).
  EXPECT_FALSE(Json::parse(R"({"repeats": 2, "avg_gb)").has_value());
}

TEST(JsonParse, DepthLimited) {
  // 80 nested arrays exceeds the parser's depth cap (64): reject, not crash.
  std::string deep(80, '[');
  deep += std::string(80, ']');
  EXPECT_FALSE(Json::parse(deep).has_value());
  std::string ok(30, '[');
  ok += std::string(30, ']');
  EXPECT_TRUE(Json::parse(ok).has_value());
}

TEST(Table, AsciiLayout) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.to_ascii();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, MarkdownLayout) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  const std::string out = t.to_markdown();
  EXPECT_NE(out.find("| a | b |"), std::string::npos);
  EXPECT_NE(out.find("|---|---|"), std::string::npos);
}

TEST(Table, ShortRowsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_NE(t.to_ascii().find("| only |"), std::string::npos);
}

TEST(Csv, EscapesFields) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("q\"q"), "\"q\"\"q\"");
}

TEST(Csv, RoundTripContent) {
  CsvWriter w({"x", "y"});
  w.add_row({"1", "2"});
  w.add_row({"3", "4,5"});
  EXPECT_EQ(w.str(), "x,y\n1,2\n3,\"4,5\"\n");
}

}  // namespace
}  // namespace dtnsim
