#include "dtnsim/cli/flags.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "dtnsim/units/units.hpp"

namespace dtnsim::cli {

namespace {

const Flag* find_flag(const Grammar& grammar, const std::string& name) {
  for (const auto& group : grammar.groups) {
    for (const auto& flag : group.flags) {
      if (std::ranges::find(flag.names, name) != flag.names.end()) return &flag;
    }
  }
  return nullptr;
}

// How many values an entry's value names ask for: one per name.
std::size_t value_count(const std::string& value) {
  if (value.empty()) return 0;
  return 1 + static_cast<std::size_t>(std::count(value.begin(), value.end(), ' '));
}

}  // namespace

std::string parse_args(const Grammar& grammar, const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string flag = args[i];
    if (!flag.starts_with("-") && grammar.positional) {
      grammar.positional(flag);
      continue;
    }
    const Flag* entry = find_flag(grammar, flag);
    std::vector<std::string> values;  // the inline value, if any, then the rest
    if (const std::size_t eq = flag.find('=');
        !entry && flag.starts_with("--") && eq != std::string::npos) {
      values.push_back(flag.substr(eq + 1));
      flag.resize(eq);
      entry = find_flag(grammar, flag);
    }
    if (!entry) return "unknown flag: " + flag;

    if (entry->value.starts_with("[")) {
      // The next token is this flag's value only if the setter takes it.
      if (values.empty() && i + 1 < args.size() && !args[i + 1].empty() &&
          args[i + 1][0] != '-' && entry->set(flag, {args[i + 1]}).empty()) {
        ++i;
        continue;
      }
    } else {
      const std::size_t want = value_count(entry->value);
      if (!values.empty() && want == 0) return "flag does not take a value: " + flag;
      while (values.size() < want) {
        if (++i >= args.size()) return "missing value for " + flag;
        values.push_back(args[i]);
      }
    }
    if (std::string error = entry->set(flag, values); !error.empty()) return error;
  }
  return {};
}

std::string render_help(const Grammar& grammar) {
  constexpr std::size_t kHelpColumn = 25;
  std::string out = grammar.about + "\n";
  for (const auto& group : grammar.groups) {
    out += "\n";
    if (!group.heading.empty()) out += group.heading + "\n";
    for (const auto& flag : group.flags) {
      // "  -P, --parallel N", and a flag without a short spelling indented
      // so its long one lines up with --parallel.
      std::string line = flag.names.front().size() == 2 ? "  " : "      ";
      for (const auto& name : flag.names) {
        line += (&name == &flag.names.front() ? "" : ", ") + name;
      }
      if (!flag.value.empty()) line += " " + flag.value;
      line.resize(std::max(line.size() + 2, kHelpColumn), ' ');
      for (const char c : flag.help) {
        line += c;
        if (c == '\n') line.append(kHelpColumn, ' ');
      }
      out += line + "\n";
    }
  }
  return out;
}

std::string usage(const Grammar& grammar, const std::string& error) {
  const std::string help = render_help(grammar);
  return error.empty() ? help : "error: " + error + "\n\n" + help;
}

std::optional<double> parse_rate(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  const std::string suffix(end);
  double scale = 1.0;
  if (suffix.size() > 1) return std::nullopt;
  if (suffix.size() == 1) {
    switch (std::tolower(static_cast<unsigned char>(suffix[0]))) {
      case 'k':
        scale = 1e3;
        break;
      case 'm':
        scale = 1e6;
        break;
      case 'g':
        scale = 1e9;
        break;
      case 't':
        scale = 1e12;
        break;
      default:
        return std::nullopt;
    }
  }
  // No number, a negative one, NaN or Inf (also after scaling).
  if (end == text.c_str() || !(value >= 0) || !std::isfinite(value * scale)) return std::nullopt;
  return value * scale;
}

std::optional<double> parse_seconds(const std::string& text) {
  double s = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, s);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  try {
    if (units::SimTime::from_seconds(s).nanos() <= 0) return std::nullopt;
  } catch (const std::invalid_argument&) {  // NaN, Inf or out of range
    return std::nullopt;
  }
  return s;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> items;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    items.push_back(text.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return items;
}

std::string bad_value(const std::string& flag, const std::string& value,
                      const std::string& want) {
  return "bad " + flag + ": " + value + (want.empty() ? "" : " (want " + want + ")");
}

Setter set_text(std::string& out) {
  return [&out](const std::string&, const std::vector<std::string>& values) {
    out = values.front();
    return std::string();
  };
}

Setter set_texts(std::vector<std::string>& out) {
  return [&out](const std::string&, const std::vector<std::string>& values) {
    out = values;
    return std::string();
  };
}

Setter set_seconds(double& out) {
  return set_value<double>(out, parse_seconds, "finite seconds > 0, below ~292 years");
}

Setter set_rate(double& out) { return set_value<double>(out, parse_rate, ""); }

}  // namespace dtnsim::cli
