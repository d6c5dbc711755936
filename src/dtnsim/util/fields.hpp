// One field list per serialised struct: Json emit and parse from the same
// list, so the two sides cannot disagree on a key.
//
// A struct opts in by declaring, next to its definition,
//
//   template <class V> constexpr void fields(V& v, NicCountersSnapshot& n) {
//     v("device", n.device);
//     v("rx_bytes", n.rx_bytes);
//     ...
//   }
//   static_assert(wire::field_count<NicCountersSnapshot>() ==
//                 wire::member_count<NicCountersSnapshot>());
//
// wire::to_json walks that list to build a Json object and wire::read walks
// it to fill a struct back in. Nested structs use their own fields(),
// vectors become arrays, units::Rate travels as bits/s and units::SimTime
// as seconds. The adapters below cover the remaining wire shapes: Nanos as
// seconds, 64-bit integers as decimal text, enums by name, and objects keyed
// by a fixed name table. The key names the unit ("ts_sec", "mean_bps").
// The configuration structs' lists also write the sweep cache key
// (sweep/cache.hpp), which leaves out the entries tagged wire::unkeyed.
//
// The static_assert makes a list complete by construction: a member added
// without an entry stops the build at the list (see "completeness" below).
//
// Reading never throws and never copies a Json subtree. An absent key keeps
// the member's default. A key of the wrong kind, a number outside its
// member's range, or an absent key tagged wire::required records an error
// naming the key's dotted path (e.g. "summary.samples_gbps is not an
// array") and also keeps the default. Each loader decides what an error
// means: RunRecords, timelines and cache entries reject the document.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "dtnsim/units/units.hpp"
#include "dtnsim/util/json.hpp"
#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::wire {

// The third argument of an entry, when it has one:
//   required  the document is unreadable without this key;
//   unkeyed   the sweep cache key leaves it out: it names or observes a run
//             but does not change what the run simulates;
//   skipped   no document carries it (a run's in-memory output); the entry
//             names it so that the member count below sees it.
struct Plain {};
struct Required {};
struct Unkeyed {};
struct Skipped {};
inline constexpr Required required{};
inline constexpr Unkeyed unkeyed{};
inline constexpr Skipped skipped{};

class Writer;

template <class T>
concept Struct = requires(Writer& w, T& t) { fields(w, t); };

// ---- adapters -------------------------------------------------------------

// Nanos as seconds.
struct Seconds {
  Nanos& ns;
};
constexpr Seconds seconds(Nanos& ns) { return {ns}; }

// A 64-bit integer as decimal text; a JSON double rounds past 2^53.
struct Decimal {
  std::uint64_t& value;
};
constexpr Decimal decimal(std::uint64_t& value) { return {value}; }

// An enum by its wire name; an unknown name is a read error. An enum only
// ever written (a cache key knob) has no parser, and reads as an error.
template <class E, class S>
struct Named {
  E& value;
  S (*name)(E);
  std::optional<E> (*parse)(std::string_view);
};
template <class E, class S>
constexpr Named<E, S> named(E& value, S (*name)(E),
                            std::optional<E> (*parse)(std::string_view) = nullptr) {
  return {value, name, parse};
}

// An object with one member per index 0..n-1: name(i) is the key, slot(i)
// the field behind it (a reference, or another adapter by value).
template <class NameFn, class SlotFn>
struct Keyed {
  int n;
  NameFn name;
  SlotFn slot;
};
template <class NameFn, class SlotFn>
constexpr Keyed<NameFn, SlotFn> keyed(int n, NameFn name, SlotFn slot) {
  return {n, name, slot};
}

template <class T>
inline constexpr bool is_vector = false;
template <class T>
inline constexpr bool is_vector<std::vector<T>> = true;
template <class T>
inline constexpr bool is_named = false;
template <class E, class S>
inline constexpr bool is_named<Named<E, S>> = true;
template <class T>
inline constexpr bool is_keyed = false;
template <class N, class S>
inline constexpr bool is_keyed<Keyed<N, S>> = true;

// ---- emit -----------------------------------------------------------------

template <class T>
Json to_json(const T& value);

class Writer {
 public:
  explicit Writer(Json& object) : object_(object) {}

  template <class T, class Tag = Plain>
  void operator()(const char* key, T&& value, Tag = {}) {
    if constexpr (!std::is_same_v<Tag, Skipped>) object_[key] = wire::to_json(value);
  }

 private:
  Json& object_;
};

template <class T>
Json to_json(const T& value) {
  if constexpr (std::is_same_v<T, units::Rate>) {
    return value.bps();
  } else if constexpr (std::is_same_v<T, units::SimTime>) {
    return value.seconds();
  } else if constexpr (std::is_same_v<T, Seconds>) {
    return units::to_seconds(value.ns);
  } else if constexpr (std::is_same_v<T, Decimal>) {
    return strfmt("%llu", static_cast<unsigned long long>(value.value));
  } else if constexpr (is_named<T>) {
    return std::string(value.name(value.value));
  } else if constexpr (is_keyed<T>) {
    Json out = Json::object();
    for (int i = 0; i < value.n; ++i) out[value.name(i)] = wire::to_json(value.slot(i));
    return out;
  } else if constexpr (is_vector<T>) {
    Json out = Json::array();
    for (const auto& e : value) out.push_back(wire::to_json(e));
    return out;
  } else if constexpr (Struct<T>) {
    Json out = Json::object();
    Writer w(out);
    fields(w, const_cast<T&>(value));  // the Writer only reads through it
    return out;
  } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    return Json(static_cast<std::int64_t>(value));
  } else {
    return Json(value);
  }
}

// ---- parse ----------------------------------------------------------------

class Reader {
 public:
  template <class T, class Tag = Plain>
  void operator()(const char* key, T&& value, Tag = {}) {
    if constexpr (!std::is_same_v<Tag, Skipped>) {
      path_.push_back({key, 0});
      if (const Json* j = object_->find(key)) {
        read(*j, value);
      } else if (std::is_same_v<Tag, Required>) {
        fail("is missing");
      }
      path_.pop_back();
    }
  }

  template <class T>
  void read(const Json& j, T& value);

  // The first error, e.g. "summary.samples_gbps is not an array"; "" when
  // the document read cleanly.
  const std::string& error() const { return error_; }

 private:
  struct Step {
    const char* key;    // nullptr for an array index
    std::size_t index;
  };

  bool number(const Json& j, double& out) {
    if (!j.is_number()) return fail("is not a number");
    out = j.number_or(0.0);
    return true;
  }
  // Whether `d` truncates to a value of integral type I; converting one that
  // does not is undefined behaviour.
  template <class I>
  bool fits(double d) {
    if (d >= static_cast<double>(std::numeric_limits<I>::lowest()) &&
        d < static_cast<double>(std::numeric_limits<I>::max()) + 1.0)
      return true;
    return fail("is out of range");
  }
  bool fail(const char* what) {
    if (!error_.empty()) return false;
    for (const Step& s : path_) {
      if (s.key == nullptr) {
        error_ += strfmt("[%zu]", s.index);
      } else {
        if (!error_.empty()) error_ += '.';
        error_ += s.key;
      }
    }
    error_ += error_.empty() ? "document " : " ";
    error_ += what;
    return false;
  }

  const Json* object_ = nullptr;
  std::vector<Step> path_;
  std::string error_;
};

template <class T>
void Reader::read(const Json& j, T& value) {
  if constexpr (std::is_same_v<T, bool>) {
    if (j.is_bool()) value = j.bool_or(false);
    else fail("is not a bool");
  } else if constexpr (std::is_integral_v<T>) {
    if (double d = 0.0; number(j, d) && fits<T>(d)) value = static_cast<T>(d);
  } else if constexpr (std::is_floating_point_v<T>) {
    if (double d = 0.0; number(j, d)) value = d;
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (j.is_string()) value = j.string_or("");
    else fail("is not a string");
  } else if constexpr (std::is_same_v<T, units::Rate>) {
    if (double d = 0.0; number(j, d)) value = units::Rate::from_bps(d);
  } else if constexpr (std::is_same_v<T, units::SimTime>) {
    if (double d = 0.0; number(j, d) && fits<Nanos>(d * 1e9))
      value = units::SimTime::from_seconds(d);
  } else if constexpr (std::is_same_v<T, Seconds>) {
    if (double d = 0.0; number(j, d) && fits<Nanos>(d * 1e9)) value.ns = units::seconds(d);
  } else if constexpr (std::is_same_v<T, Decimal>) {
    if (j.is_string()) value.value = std::strtoull(j.string_or("").c_str(), nullptr, 10);
    else fail("is not a decimal string");
  } else if constexpr (is_named<T>) {
    const auto parsed =
        j.is_string() && value.parse ? value.parse(j.string_or("")) : std::nullopt;
    if (parsed) value.value = *parsed;
    else fail("is not a known name");
  } else if constexpr (is_keyed<T>) {
    if (!j.is_object()) {
      fail("is not an object");
      return;
    }
    for (int i = 0; i < value.n; ++i) {
      const char* key = value.name(i);
      if (const Json* member = j.find(key)) {
        path_.push_back({key, 0});
        auto&& slot = value.slot(i);
        read(*member, slot);
        path_.pop_back();
      }
    }
  } else if constexpr (is_vector<T>) {
    // The one kind check every array field goes through: size() also
    // counts object members, but at() only indexes arrays.
    if (!j.is_array()) {
      fail("is not an array");
      return;
    }
    value.clear();
    value.reserve(j.size());
    for (std::size_t i = 0; i < j.size(); ++i) {
      path_.push_back({nullptr, i});
      read(*j.at(i), value.emplace_back());
      path_.pop_back();
    }
  } else {
    static_assert(Struct<T>, "no wire codec for this type");
    if (!j.is_object()) {
      fail("is not an object");
      return;
    }
    const Json* outer = object_;
    object_ = &j;
    fields(*this, value);
    object_ = outer;
  }
}

// Fill `value` from `j` through its fields() list. Returns the first error,
// "" when the document read cleanly; see the header comment for what an
// error leaves behind.
template <class T>
std::string read(const Json& j, T& value) {
  Reader r;
  r.read(j, value);
  return r.error();
}

// ---- completeness ---------------------------------------------------------
//
// field_count<T>() is the number of T's members its list names and
// member_count<T>() the number T has; the static_assert beside each list
// holds them equal. A reference wrapper (SsLog) cannot be counted and has
// no check: its one member is the list it wraps.

namespace detail {

// Converts to any member's type: T{AnyMember{}, ...} counts aggregate
// elements (C++20), a base class as one.
struct AnyMember {
  template <class T>
  operator T() const;
};

template <class T, class... A>
consteval int aggregate_size() {
  if constexpr (requires { T{A{}..., AnyMember{}}; }) {
    return aggregate_size<T, A..., AnyMember>();
  } else {
    return static_cast<int>(sizeof...(A));
  }
}

// A wrapper of references (SsLog, PerfCoreCycles) takes exactly as many
// initialisers as it holds references.
struct AnyRef {
  template <class T>
  operator T&() const;
};

template <class T, class... A>
consteval int reference_count() {
  if constexpr (requires { T{A{}...}; }) {
    return static_cast<int>(sizeof...(A));
  } else {
    static_assert(sizeof...(A) < 8, "a wrapper holds a few references to members");
    return reference_count<T, A..., AnyRef>();
  }
}

// Counts members, not entries, from each entry's type alone. An entry names
// one member, or a wrapper of references built in the list names as many
// as it holds: PerfReport's "cores" entry covers two arrays through one
// keyed slot.
class Counter {
 public:
  template <class T, class Tag = Plain>
  constexpr void operator()(const char*, T&&, Tag = {}) {
    n += members<T>();
  }

  template <class T>
  static consteval int members() {
    using U = std::remove_cvref_t<T>;
    if constexpr (!std::is_lvalue_reference_v<T> && is_keyed<U>) {
      return members<decltype(std::declval<U&>().slot(0))>();
    } else if constexpr (!std::is_lvalue_reference_v<T> && Struct<U>) {
      return reference_count<U>();
    } else {
      return 1;  // a member, or Seconds, Decimal or Named over one
    }
  }

  int n = 0;
};

}  // namespace detail

// An entry whose list joins the enclosing object's keys: a base class's
// members, or a nested struct written flat. It counts as one member.
template <class V, class T>
constexpr void flatten(V& v, T& inner) {
  if constexpr (std::is_same_v<V, detail::Counter>) {
    v.n += 1;
  } else {
    fields(v, inner);
  }
}

template <class T>
consteval int member_count() {
  return detail::aggregate_size<T>();
}

template <class T>
consteval int field_count() {
  // The list runs over storage no constructor has touched: the Counter only
  // needs its entries' types, and nothing reads a member.
  std::allocator<T> storage;
  T* const t = storage.allocate(1);
  detail::Counter c;
  fields(c, *t);
  storage.deallocate(t, 1);
  return c.n;
}

}  // namespace dtnsim::wire
