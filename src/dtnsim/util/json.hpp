// Minimal JSON document: builder, serializer and (since the sweep result
// cache) a parser.
//
// iperf3 emits JSON with --json; the harness mirrors that. The sweep
// subsystem additionally *reads* JSON back (content-addressed result cache,
// the rows a campaign resumes from), so the value-tree carries a small
// recursive-descent parser and typed read accessors alongside the serializer.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dtnsim {

class Json {
 public:
  Json() : kind_(Kind::Null) {}
  Json(std::nullptr_t) : kind_(Kind::Null) {}
  Json(bool b) : kind_(Kind::Bool), bool_(b) {}
  Json(double d) : kind_(Kind::Number), num_(d) {}
  Json(int i) : kind_(Kind::Number), num_(i) {}
  Json(std::int64_t i) : kind_(Kind::Number), num_(static_cast<double>(i)) {}
  Json(std::uint64_t i) : kind_(Kind::Number), num_(static_cast<double>(i)) {}
  Json(const char* s) : kind_(Kind::String), str_(s) {}
  Json(std::string s) : kind_(Kind::String), str_(std::move(s)) {}

  static Json object();
  static Json array();

  // Parse one JSON document (trailing whitespace allowed, trailing garbage
  // rejected). Returns nullopt on malformed input — cache files are data we
  // wrote ourselves, but a truncated file from an interrupted run must load
  // as "miss", not crash.
  static std::optional<Json> parse(std::string_view text);

  bool is_null() const { return kind_ == Kind::Null; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }

  // Typed reads with fallbacks (no exceptions; wrong kind -> fallback).
  double number_or(double fallback) const { return is_number() ? num_ : fallback; }
  bool bool_or(bool fallback) const { return is_bool() ? bool_ : fallback; }
  std::string string_or(std::string fallback) const {
    return is_string() ? str_ : std::move(fallback);
  }

  // Object access; creates members on demand (object kind required).
  Json& operator[](const std::string& key);
  const Json* find(const std::string& key) const;
  // Object member names in deterministic (sorted) order; empty for
  // non-objects. Golden tests diff this against a checked-in key list.
  std::vector<std::string> keys() const;
  // Chained convenience reads: find(key) with a typed fallback.
  double number_at(const std::string& key, double fallback) const;
  bool bool_at(const std::string& key, bool fallback) const;
  std::string string_at(const std::string& key, std::string fallback) const;

  // Array append / element access (nullptr when out of range or non-array).
  void push_back(Json v);
  const Json* at(std::size_t i) const;
  std::size_t size() const;

  // Serialize; indent > 0 pretty-prints.
  std::string dump(int indent = 0) const;

 private:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  void dump_to(std::string& out, int indent, int depth) const;
  static void escape_to(std::string& out, const std::string& s);

  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  // std::map keeps key order deterministic for golden tests.
  std::map<std::string, Json> obj_;
};

}  // namespace dtnsim
