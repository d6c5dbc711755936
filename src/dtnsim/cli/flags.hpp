// One command-line grammar for every dtnsim tool. A tool declares its flags
// as a table — each entry its spellings, value names, help text and setter —
// and parse_args() reads argv against that table while render_help() prints
// --help from the same entries, so a tool accepts exactly what --help lists.
//
// Every tool takes both `--flag value` and `--flag=value`; a short flag
// (-P 8) takes the next token. An entry's value names say what it takes:
//   ""        a switch; `--switch=x` is an error
//   "N"       one value: the next token, whatever it looks like
//   "A B"     one value per name: --diff A B (or --diff=A B)
//   "[SIZE]"  an optional value: --flag=SIZE, or the next token when it does
//             not start with '-' and the setter accepts it (a setter that
//             rejects a value must leave its target untouched)
// A spelling may hold '=' itself (--zerocopy=z); it matches the whole token.
// A token that does not start with '-' is a positional when the grammar
// takes them, else an unknown flag.
#pragma once

#include <charconv>
#include <functional>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace dtnsim::cli {

// Stores a flag's values and returns "" or the error to report. `flag` is the
// spelling the user typed, so the error can name it.
using Setter = std::function<std::string(const std::string& flag,
                                         const std::vector<std::string>& values)>;

struct Flag {
  std::vector<std::string> names;  // e.g. {"-P", "--parallel"}
  std::string value;               // value names, as above
  std::string help;                // '\n' starts a continuation line
  Setter set;
};

struct FlagGroup {
  std::string heading;  // "" -> no heading line above the flags
  std::vector<Flag> flags;
};

struct Grammar {
  std::string about;  // --help's opening lines
  std::vector<FlagGroup> groups;
  // Takes each token that does not start with '-'; without one such a
  // token is an unknown flag.
  std::function<void(const std::string&)> positional;
};

// Reads `args` into the grammar's setters; "" or the first error, one of
// "missing value for <flag>", "flag does not take a value: <flag>",
// "unknown flag: <flag>" or a setter's message.
std::string parse_args(const Grammar& grammar, const std::vector<std::string>& args);

std::string render_help(const Grammar& grammar);

// What a tool prints when its command line failed to parse ("error: <msg>",
// a blank line, then the help) or asked for --help (the help alone).
std::string usage(const Grammar& grammar, const std::string& error);

// ---- values ----------------------------------------------------------------

// "50G" -> 50e9, "1.5m" -> 1.5e6, "1048576" -> 1048576. nullopt on garbage.
std::optional<double> parse_rate(const std::string& text);

// A time flag's value: the whole token as finite seconds whose SimTime is
// positive ("20", "0.5", "1e3"). nullopt on garbage, NaN, Inf, a time that
// rounds to 0 ns or below, or one past SimTime's range (~292 years).
std::optional<double> parse_seconds(const std::string& text);

// The whole token as a base-10 integer in [lo, hi]; nullopt otherwise (a
// sign on an unsigned type, trailing characters, overflow).
template <class Int>
std::optional<Int> parse_integer(const std::string& text, Int lo, Int hi) {
  Int v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || v < lo || v > hi) return std::nullopt;
  return v;
}

// Comma-separated items; "" -> none, and an empty item stays ("a,,b").
std::vector<std::string> split_list(const std::string& text);

// ---- setters: one per kind of value ----------------------------------------

// "bad <flag>: <value>", with " (want <want>)" when `want` is not empty.
std::string bad_value(const std::string& flag, const std::string& value,
                      const std::string& want);

// A switch that stores `value` (set_to(mode, Mode::Flame)).
template <class T>
Setter set_to(T& out, T value) {
  return [&out, value](const std::string&, const std::vector<std::string>&) {
    out = value;
    return std::string();
  };
}

inline Setter set_true(bool& out) { return set_to(out, true); }

Setter set_text(std::string& out);

// Every value of the flag, in order (--diff A B).
Setter set_texts(std::vector<std::string>& out);

// One value read by `parse` (text -> std::optional<T>).
template <class T, class Parse>
Setter set_value(T& out, Parse parse, std::string want) {
  return [&out, parse = std::move(parse), want = std::move(want)](
             const std::string& flag, const std::vector<std::string>& values) {
    const std::optional<T> v = parse(values.front());
    if (!v) return bad_value(flag, values.front(), want);
    out = *v;
    return std::string();
  };
}

Setter set_seconds(double& out);
Setter set_rate(double& out);

template <class Int>
Setter set_whole(Int& out, std::type_identity_t<Int> lo, std::type_identity_t<Int> hi) {
  return set_value(
      out, [lo, hi](const std::string& s) { return parse_integer(s, lo, hi); },
      "a whole number in [" + std::to_string(lo) + ", " + std::to_string(hi) + "]");
}

// A comma list that replaces `out`, each item read by `item` (which also
// maps a word such as "default" to its value). An empty list or a rejected
// item: "bad <flag> list: <value> (want <want>)".
template <class T, class Parse>
Setter set_list(std::vector<T>& out, Parse item, std::string want) {
  return [&out, item = std::move(item), want = std::move(want)](
             const std::string& flag, const std::vector<std::string>& values) {
    std::vector<T> list;
    for (const auto& text : split_list(values.front())) {
      const std::optional<T> v = item(text);
      if (!v) return bad_value(flag + " list", values.front(), want);
      list.push_back(*v);
    }
    if (list.empty()) return bad_value(flag + " list", values.front(), want);
    out = std::move(list);
    return std::string();
  };
}

}  // namespace dtnsim::cli
