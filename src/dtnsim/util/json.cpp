#include "dtnsim/util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "dtnsim/util/strfmt.hpp"

namespace dtnsim {

Json Json::object() {
  Json j;
  j.kind_ = Kind::Object;
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::Array;
  return j;
}

Json& Json::operator[](const std::string& key) {
  if (kind_ == Kind::Null) kind_ = Kind::Object;
  if (kind_ != Kind::Object) throw std::logic_error("Json: operator[] on non-object");
  return obj_[key];
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  const auto it = obj_.find(key);
  return it == obj_.end() ? nullptr : &it->second;
}

std::vector<std::string> Json::keys() const {
  std::vector<std::string> out;
  if (kind_ != Kind::Object) return out;
  out.reserve(obj_.size());
  for (const auto& kv : obj_) out.push_back(kv.first);
  return out;
}

double Json::number_at(const std::string& key, double fallback) const {
  const Json* v = find(key);
  return v ? v->number_or(fallback) : fallback;
}

bool Json::bool_at(const std::string& key, bool fallback) const {
  const Json* v = find(key);
  return v ? v->bool_or(fallback) : fallback;
}

std::string Json::string_at(const std::string& key, std::string fallback) const {
  const Json* v = find(key);
  return v ? v->string_or(std::move(fallback)) : std::move(fallback);
}

const Json* Json::at(std::size_t i) const {
  if (kind_ != Kind::Array || i >= arr_.size()) return nullptr;
  return &arr_[i];
}

void Json::push_back(Json v) {
  if (kind_ == Kind::Null) kind_ = Kind::Array;
  if (kind_ != Kind::Array) throw std::logic_error("Json: push_back on non-array");
  arr_.push_back(std::move(v));
}

std::size_t Json::size() const {
  switch (kind_) {
    case Kind::Array:
      return arr_.size();
    case Kind::Object:
      return obj_.size();
    default:
      return 0;
  }
}

void Json::escape_to(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strfmt("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  // Pretty-printing starts each member, and the closing bracket, on a line
  // of its own, indented to its level.
  const auto newline = [&](int level) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(level), ' ');
  };
  switch (kind_) {
    case Kind::Null:
      out += "null";
      break;
    case Kind::Bool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::Number: {
      if (std::isfinite(num_) && num_ == std::floor(num_) && std::fabs(num_) < 9.0e15) {
        append_int(out, static_cast<long long>(num_));
      } else {
        // Shortest of %.15g and %.17g that parses back to the exact same
        // double — the sweep result cache requires dump/parse to round-trip
        // bit-identically (a cached cell must equal the simulated one).
        const std::size_t at = out.size();
        append_g(out, num_, 15);
        double back = 0.0;
        std::from_chars(out.data() + at, out.data() + out.size(), back);
        if (back != num_) {
          out.resize(at);
          append_g(out, num_, 17);
        }
      }
      break;
    }
    case Kind::String:
      escape_to(out, str_);
      break;
    case Kind::Array: {
      out += '[';
      bool first = true;
      for (const auto& v : arr_) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        v.dump_to(out, indent, depth + 1);
      }
      if (!arr_.empty()) newline(depth);
      out += ']';
      break;
    }
    case Kind::Object: {
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out += ',';
        first = false;
        newline(depth + 1);
        escape_to(out, k);
        out += indent > 0 ? ": " : ":";
        v.dump_to(out, indent, depth + 1);
      }
      if (!obj_.empty()) newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

namespace {

// Recursive-descent parser over a string_view cursor. Depth-limited so a
// hostile (or corrupted) deeply nested document cannot blow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool parse_document(Json* out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    return pos_ == text_.size();  // trailing garbage rejects the document
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool eat_word(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool parse_value(Json* out, int depth) {
    if (depth > kMaxDepth || pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case 'n':
        return eat_word("null") && (*out = Json(), true);
      case 't':
        return eat_word("true") && (*out = Json(true), true);
      case 'f':
        return eat_word("false") && (*out = Json(false), true);
      case '"': {
        std::string s;
        if (!parse_string(&s)) return false;
        *out = Json(std::move(s));
        return true;
      }
      case '[': {
        ++pos_;
        *out = Json::array();
        skip_ws();
        if (eat(']')) return true;
        while (true) {
          Json elem;
          skip_ws();
          if (!parse_value(&elem, depth + 1)) return false;
          out->push_back(std::move(elem));
          skip_ws();
          if (eat(']')) return true;
          if (!eat(',')) return false;
        }
      }
      case '{': {
        ++pos_;
        *out = Json::object();
        skip_ws();
        if (eat('}')) return true;
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(&key)) return false;
          skip_ws();
          if (!eat(':')) return false;
          skip_ws();
          if (!parse_value(&(*out)[key], depth + 1)) return false;
          skip_ws();
          if (eat('}')) return true;
          if (!eat(',')) return false;
        }
      }
      default:
        return parse_number(out);
    }
  }

  bool parse_number(Json* out) {
    std::size_t p = pos_;
    while (p < text_.size()) {
      const char c = text_[p];
      if ((c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' ||
          c == 'e' || c == 'E') {
        ++p;
      } else {
        break;
      }
    }
    if (p == pos_) return false;
    // from_chars reads the token in place. What it rejects or reads only in
    // part (a leading '+', an out-of-range exponent, "1e5e5") goes to
    // strtod, so every value and every verdict is strtod's.
    const char* first = text_.data() + pos_;
    const char* last = text_.data() + p;
    double value = 0.0;
    if (const auto [stop, ec] = std::from_chars(first, last, value);
        ec != std::errc() || stop != last) {
      // Copy the token before strtod: the view need not be NUL-terminated.
      const std::string token(first, last);
      char* end = nullptr;
      value = std::strtod(token.c_str(), &end);
      if (end != token.c_str() + token.size()) return false;
    }
    // JSON has no NaN/Infinity, and overflowing literals ("1e999") must not
    // smuggle one in: every number the cache reads back is finite.
    if (!std::isfinite(value)) return false;
    pos_ = p;
    *out = Json(value);
    return true;
  }

  bool parse_string(std::string* out) {
    if (!eat('"')) return false;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) return false;
      c = text_[pos_++];
      switch (c) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            if (pos_ >= text_.size()) return false;
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return false;
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by our serializer; a lone surrogate encodes as-is).
          if (cp < 0x80) {
            *out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            *out += static_cast<char>(0xC0 | (cp >> 6));
            *out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            *out += static_cast<char>(0xE0 | (cp >> 12));
            *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            *out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated string
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text) {
  Json out;
  Parser p(text);
  if (!p.parse_document(&out)) return std::nullopt;
  return out;
}

}  // namespace dtnsim
