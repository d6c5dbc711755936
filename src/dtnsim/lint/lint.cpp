#include "dtnsim/lint/lint.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <sstream>

namespace dtnsim::lint {
namespace {

std::vector<std::string> split_path(const std::string& path) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : path) {
    if (c == '/' || c == '\\') {
      if (!cur.empty()) parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) parts.push_back(cur);
  return parts;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Split into lines, keeping empty trailing lines irrelevant for linting.
std::vector<std::string> split_lines(const std::string& content) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  lines.push_back(cur);
  return lines;
}

// Blank out comments, string literals, and char literals in-place across
// lines, preserving column positions so findings point at real code. The
// suppression scanner runs on the raw lines *before* this pass.
std::vector<std::string> scrub(const std::vector<std::string>& raw) {
  std::vector<std::string> out = raw;
  bool in_block_comment = false;
  for (auto& line : out) {
    bool in_string = false, in_char = false;
    for (size_t i = 0; i < line.size(); ++i) {
      if (in_block_comment) {
        if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
          line[i] = line[i + 1] = ' ';
          ++i;
          in_block_comment = false;
        } else {
          line[i] = ' ';
        }
      } else if (in_string) {
        if (line[i] == '\\' && i + 1 < line.size()) {
          line[i] = line[i + 1] = ' ';
          ++i;
        } else if (line[i] == '"') {
          in_string = false;
        } else {
          line[i] = ' ';
        }
      } else if (in_char) {
        if (line[i] == '\\' && i + 1 < line.size()) {
          line[i] = line[i + 1] = ' ';
          ++i;
        } else if (line[i] == '\'') {
          in_char = false;
        } else {
          line[i] = ' ';
        }
      } else if (line[i] == '/' && i + 1 < line.size() && line[i + 1] == '/') {
        for (size_t j = i; j < line.size(); ++j) line[j] = ' ';
        break;
      } else if (line[i] == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        line[i] = line[i + 1] = ' ';
        ++i;
        in_block_comment = true;
      } else if (line[i] == '"') {
        in_string = true;
      } else if (line[i] == '\'' && i > 0 && !is_ident_char(line[i - 1])) {
        // `'x'` char literal, but not a digit separator as in 1'000'000.
        in_char = true;
      }
    }
    // Unterminated string/char at EOL: treat as closed (raw strings and
    // line-spliced literals are absent from this codebase).
  }
  return out;
}

// Which rules line N suppresses (via its own or the previous raw line).
struct Suppressions {
  std::vector<std::vector<std::string>> per_line;  // rule ids; "all" wildcard

  bool allows(std::size_t line_idx, const std::string& rule) const {
    auto hit = [&](std::size_t i) {
      if (i >= per_line.size()) return false;
      for (const auto& r : per_line[i]) {
        if (r == "all" || r == rule) return true;
      }
      return false;
    };
    return hit(line_idx) || (line_idx > 0 && hit(line_idx - 1));
  }
};

Suppressions parse_suppressions(const std::vector<std::string>& raw) {
  Suppressions sup;
  sup.per_line.resize(raw.size());
  const std::string marker = "dtnsim-lint: allow(";
  for (size_t i = 0; i < raw.size(); ++i) {
    const auto pos = raw[i].find(marker);
    if (pos == std::string::npos) continue;
    const auto start = pos + marker.size();
    const auto end = raw[i].find(')', start);
    if (end == std::string::npos) continue;
    std::string inside = raw[i].substr(start, end - start);
    std::string tok;
    std::istringstream iss(inside);
    while (std::getline(iss, tok, ',')) {
      const auto b = tok.find_first_not_of(" \t");
      const auto e = tok.find_last_not_of(" \t");
      if (b != std::string::npos) sup.per_line[i].push_back(tok.substr(b, e - b + 1));
    }
  }
  return sup;
}

// Find identifier `word` in `line` at word boundaries; returns npos or index.
size_t find_word(const std::string& line, const std::string& word, size_t from = 0) {
  size_t pos = from;
  while ((pos = line.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
    const size_t after = pos + word.size();
    const bool right_ok = after >= line.size() || !is_ident_char(line[after]);
    if (left_ok && right_ok) return pos;
    pos = after;
  }
  return std::string::npos;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---- rule: determinism -------------------------------------------------

// Tokens that reach for wall clocks or nondeterministic entropy. `rand`,
// `time` & co. are matched as whole identifiers followed by `(` or `::`
// context, so SimTime / paced_traffic / grand_total never trip it.
const char* const kDeterminismTokens[] = {
    "random_device", "steady_clock",  "system_clock", "high_resolution_clock",
    "srand",         "drand48",       "gettimeofday", "clock_gettime",
    "localtime",     "gmtime",
};
const char* const kDeterminismCallTokens[] = {"rand", "time"};  // need '(' after

void check_determinism(const std::vector<std::string>& code, const Suppressions& sup,
                       const std::string& path, std::vector<Finding>& out) {
  for (size_t i = 0; i < code.size(); ++i) {
    const auto& line = code[i];
    for (const char* tok : kDeterminismTokens) {
      if (find_word(line, tok) != std::string::npos && !sup.allows(i, "determinism")) {
        out.push_back({"determinism", path, static_cast<int>(i + 1),
                       std::string("nondeterministic source '") + tok +
                           "' in simulation/library code; use util::Rng or "
                           "the event engine's virtual clock"});
        break;
      }
    }
    for (const char* tok : kDeterminismCallTokens) {
      size_t pos = find_word(line, tok);
      while (pos != std::string::npos) {
        size_t after = pos + std::string(tok).size();
        while (after < line.size() && line[after] == ' ') ++after;
        if (after < line.size() && line[after] == '(' &&
            !sup.allows(i, "determinism")) {
          out.push_back({"determinism", path, static_cast<int>(i + 1),
                         std::string("call to '") + tok +
                             "()' in simulation/library code; wall-clock and "
                             "libc randomness are banned"});
          break;
        }
        pos = find_word(line, tok, after);
      }
    }
  }
}

// ---- rule: raw-unit-double ---------------------------------------------

// Scaled-unit names that must ride in dtnsim::units strong types when they
// cross a public header boundary. Bare `bps` and `*_sec` tick-level doubles
// are the repo's documented fluid-math convention and stay legal.
const char* const kBannedUnitSuffixes[] = {"gbps", "mbps",   "kbps",   "seconds",
                                           "secs", "millis", "micros", "nanos"};

bool is_banned_unit_name(const std::string& name) {
  for (const char* suffix : kBannedUnitSuffixes) {
    if (name == suffix) return true;
    if (ends_with(name, std::string("_") + suffix)) return true;
  }
  return false;
}

void check_raw_unit_double(const std::vector<std::string>& code,
                           const Suppressions& sup, const std::string& path,
                           std::vector<Finding>& out) {
  int depth = 0;  // paren depth carries across lines for multi-line signatures
  for (size_t i = 0; i < code.size(); ++i) {
    const auto& line = code[i];
    for (size_t j = 0; j < line.size(); ++j) {
      if (line[j] == '(') ++depth;
      if (line[j] == ')') depth = std::max(depth - 1, 0);
      // Match `double <name>` with <name> a banned scaled-unit identifier.
      if (line.compare(j, 6, "double") == 0 &&
          (j == 0 || !is_ident_char(line[j - 1])) &&
          (j + 6 >= line.size() || !is_ident_char(line[j + 6]))) {
        size_t k = j + 6;
        while (k < line.size() && std::isspace(static_cast<unsigned char>(line[k]))) ++k;
        size_t name_end = k;
        while (name_end < line.size() && is_ident_char(line[name_end])) ++name_end;
        const std::string name = line.substr(k, name_end - k);
        if (name.empty() || !is_banned_unit_name(name)) continue;
        if (depth >= 1) {
          // Inside a parameter list.
          if (!sup.allows(i, "raw-unit-double")) {
            out.push_back({"raw-unit-double", path, static_cast<int>(i + 1),
                           "parameter 'double " + name +
                               "' carries a scaled unit as a raw double; take "
                               "a dtnsim::units strong type (Rate, SimTime, "
                               "...) instead"});
          }
        } else {
          // At depth 0 the same shape followed by `(` is a function
          // declaration: `double avg_gbps(...)` returns a scaled unit as a
          // raw double. Member/local declarations (`double avg_gbps = ...;`)
          // carry no paren and stay legal.
          size_t after = name_end;
          while (after < line.size() &&
                 std::isspace(static_cast<unsigned char>(line[after])))
            ++after;
          if (after < line.size() && line[after] == '(' &&
              !sup.allows(i, "raw-unit-double")) {
            out.push_back({"raw-unit-double", path, static_cast<int>(i + 1),
                           "function 'double " + name +
                               "(...)' returns a scaled unit as a raw double; "
                               "return a dtnsim::units strong type (Rate, "
                               "SimTime, ...) instead"});
          }
        }
      }
    }
  }
}

// ---- rule: include-hygiene ---------------------------------------------

void check_include_hygiene(const std::vector<std::string>& raw, FileKind kind,
                           const Suppressions& sup, const std::string& path,
                           std::vector<Finding>& out) {
  const bool library = kind == FileKind::LibraryHeader ||
                       kind == FileKind::LibrarySource ||
                       kind == FileKind::UnitsLibrary;
  for (size_t i = 0; i < raw.size(); ++i) {
    const auto& line = raw[i];
    const auto hash = line.find_first_not_of(" \t");
    if (hash == std::string::npos || line[hash] != '#') continue;
    if (line.find("include", hash) == std::string::npos) continue;
    if (kind != FileKind::Bench &&
        (line.find("\"bench/") != std::string::npos ||
         line.find("/bench/") != std::string::npos ||
         line.find("\"bench_common") != std::string::npos)) {
      if (!sup.allows(i, "include-hygiene")) {
        out.push_back({"include-hygiene", path, static_cast<int>(i + 1),
                       "bench/ headers are bench-only; library, test, and "
                       "tool code must not include them"});
      }
    }
    if (library && line.find("<iostream>") != std::string::npos) {
      if (!sup.allows(i, "include-hygiene")) {
        out.push_back({"include-hygiene", path, static_cast<int>(i + 1),
                       "<iostream> in library code; use util/log or printf "
                       "at the tool boundary"});
      }
    }
  }
}

// ---- rule: mutex-guard -------------------------------------------------

void check_mutex_guard(const std::vector<std::string>& code, const Suppressions& sup,
                       const std::string& path, std::vector<Finding>& out) {
  const char* const kBare[] = {".lock()", ".unlock()", ".try_lock()"};
  for (size_t i = 0; i < code.size(); ++i) {
    for (const char* tok : kBare) {
      if (code[i].find(tok) != std::string::npos && !sup.allows(i, "mutex-guard")) {
        out.push_back({"mutex-guard", path, static_cast<int>(i + 1),
                       std::string("bare '") + tok +
                           "' in sweep/ concurrency code; take locks via "
                           "std::lock_guard / std::unique_lock RAII guards"});
        break;
      }
    }
  }
}

}  // namespace

FileKind classify(const std::string& path) {
  const auto parts = split_path(path);
  if (parts.empty()) return FileKind::Other;
  const std::string& file = parts.back();
  const bool header = ends_with(file, ".hpp") || ends_with(file, ".h");

  // Walk from the end so fixture trees embedding src/... classify as the
  // code they imitate (tests/lint_fixtures/src/dtnsim/... -> library).
  for (size_t i = parts.size(); i-- > 0;) {
    const std::string& dir = parts[i];
    if (dir == file) continue;
    if (dir == "src") {
      for (size_t j = i + 1; j + 1 < parts.size(); ++j) {
        if (parts[j] == "units") return FileKind::UnitsLibrary;
      }
      return header ? FileKind::LibraryHeader : FileKind::LibrarySource;
    }
    if (dir == "bench") return FileKind::Bench;
    if (dir == "tests") return FileKind::Test;
    if (dir == "tools") return FileKind::Tool;
    if (dir == "examples") return FileKind::Example;
  }
  return FileKind::Other;
}

std::vector<Finding> lint_file(const std::string& path, const std::string& content) {
  std::vector<Finding> out;
  const FileKind kind = classify(path);
  if (kind == FileKind::Other) return out;

  const auto raw = split_lines(content);
  const auto sup = parse_suppressions(raw);
  const auto code = scrub(raw);

  const bool library = kind == FileKind::LibraryHeader ||
                       kind == FileKind::LibrarySource ||
                       kind == FileKind::UnitsLibrary;

  if (library) check_determinism(code, sup, path, out);
  if (kind == FileKind::LibraryHeader) check_raw_unit_double(code, sup, path, out);
  check_include_hygiene(raw, kind, sup, path, out);
  if (library) {
    const auto parts = split_path(path);
    if (std::find(parts.begin(), parts.end(), "sweep") != parts.end()) {
      check_mutex_guard(code, sup, path, out);
    }
  }
  return out;
}

std::string to_human(const std::vector<Finding>& findings) {
  std::string out;
  for (const auto& f : findings) {
    out += f.path + ":" + std::to_string(f.line) + ": [" + f.rule + "] " +
           f.message + "\n";
  }
  return out;
}

std::string to_json(const std::vector<Finding>& findings) {
  std::string out = "{\"count\":" + std::to_string(findings.size()) +
                    ",\"findings\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const auto& f = findings[i];
    if (i) out += ",";
    out += "{\"rule\":\"" + json_escape(f.rule) + "\",\"path\":\"" +
           json_escape(f.path) + "\",\"line\":" + std::to_string(f.line) +
           ",\"message\":\"" + json_escape(f.message) + "\"}";
  }
  out += "]}";
  return out;
}

}  // namespace dtnsim::lint
