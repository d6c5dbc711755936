#include "dtnsim/sweep/cache.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "dtnsim/util/file.hpp"
#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::sweep {
namespace {

namespace fs = std::filesystem;

// The canonical text under construction: one "key=value\n" line per keyed
// entry of the spec's fields() lists, appended to one buffer, then joined in
// key order. A nested struct's keys take its entry's key and a dot as their
// prefix; a list writes "key.count" and each item under "key.NNN.", and
// nothing when empty.
class KeyText {
 public:
  KeyText() {
    buf_.reserve(8192);
    lines_.reserve(128);
    prefix_.reserve(64);
  }

  template <class T, class Tag = wire::Plain>
  void operator()(const char* key, T&& value, Tag = {}) {
    if constexpr (!std::is_same_v<Tag, wire::Unkeyed> && !std::is_same_v<Tag, wire::Skipped>) {
      add(key, value);
    }
  }

  // The lines in key order. Keys compare on their own, not as line
  // prefixes, so "a.b=" never sorts after "a.b.c=" because '.' < '='.
  std::string sorted() const {
    std::vector<std::pair<std::string_view, std::string_view>> lines;  // key, "=value\n"
    lines.reserve(lines_.size());
    const std::string_view all(buf_);
    for (const Line& l : lines_) {
      lines.emplace_back(all.substr(l.at, l.eq - l.at), all.substr(l.eq, l.end - l.eq));
    }
    std::sort(lines.begin(), lines.end());
    std::string out;
    out.reserve(buf_.size());
    for (const auto& [key, rest] : lines) {
      out += key;
      out += rest;
    }
    return out;
  }

 private:
  struct Line {
    std::size_t at, eq, end;
  };

  template <class T>
  void add(std::string_view key, T& value) {
    if constexpr (wire::is_vector<T>) {
      if (value.empty()) return;
      const std::size_t outer = prefix_.size();
      (prefix_ += key) += '.';
      line("count", value.size());
      std::string index;
      for (std::size_t i = 0; i < value.size(); ++i) {
        // At least three digits; item 1000 then sorts between items 100
        // and 101, which sorted() keeps.
        index.assign(i < 10 ? 2 : i < 100 ? 1 : 0, '0');
        append_int(index, i);
        add(index, value[i]);
      }
      prefix_.resize(outer);
    } else if constexpr (wire::Struct<T>) {
      const std::size_t outer = prefix_.size();
      (prefix_ += key) += '.';
      fields(*this, value);
      prefix_.resize(outer);
    } else if constexpr (wire::is_named<T>) {
      line(key, std::string_view(value.name(value.value)));
    } else {
      line(key, value);
    }
  }

  template <class T>
  void line(std::string_view key, const T& value) {
    const std::size_t at = buf_.size();
    buf_ += prefix_;
    buf_ += key;
    const std::size_t eq = buf_.size();
    buf_ += '=';
    if constexpr (std::is_same_v<T, bool>) {
      buf_ += value ? '1' : '0';
    } else if constexpr (std::is_integral_v<T>) {
      append_int(buf_, value);
    } else if constexpr (std::is_floating_point_v<T>) {
      append_g(buf_, value, 17);
    } else {
      static_assert(std::is_same_v<T, std::string> || std::is_same_v<T, std::string_view>,
                    "a keyed member is a number, a bool, a name or a struct with a list");
      buf_ += value;
    }
    buf_ += '\n';
    lines_.push_back({at, eq, buf_.size()});
  }

  std::string prefix_;
  std::string buf_;
  std::vector<Line> lines_;
};

// The salt line every key hashes before the canonical text.
constexpr std::uint64_t kSaltHash = fnv1a64("\n", fnv1a64(kCacheSalt));

}  // namespace

std::string canonical_text(const harness::TestSpec& spec) {
  KeyText text;
  fields(text, const_cast<harness::TestSpec&>(spec));  // KeyText only reads
  return text.sorted();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t spec_key(const harness::TestSpec& spec) {
  return fnv1a64(canonical_text(spec), kSaltHash);
}

std::string key_hex(std::uint64_t key) {
  return strfmt("%016llx", static_cast<unsigned long long>(key));
}

std::string spec_key_hex(const harness::TestSpec& spec) { return key_hex(spec_key(spec)); }

std::uint64_t seed_and_key(harness::TestSpec& spec, std::uint64_t campaign_seed) {
  spec.base_seed = 0;
  const std::string text = canonical_text(spec);
  spec.base_seed = mix64(fnv1a64(text) ^ campaign_seed);
  // The seed's line is the first, as no other key sorts before it (a grid
  // test requires every cell's key to equal spec_key(cell.spec)): the key
  // hashes it with the seed written in, then the rest of the text.
  std::string seed_line = text.substr(0, text.find('=') + 1);
  append_int(seed_line, spec.base_seed);
  seed_line += '\n';
  return fnv1a64(std::string_view(text).substr(text.find('\n') + 1),
                 fnv1a64(seed_line, kSaltHash));
}

Json result_to_json(const harness::TestResult& result) {
  Json j = wire::to_json(result);
  j["schema"] = std::string(kCacheSalt);
  return j;
}

bool result_from_json(const Json& j, harness::TestResult* out) {
  harness::TestResult r;
  if (j.string_at("schema", "") != kCacheSalt || !wire::read(j, r).empty()) return false;
  *out = std::move(r);
  return true;
}

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_)) {
    throw std::runtime_error("sweep cache: cannot create directory " + dir_);
  }
}

std::string ResultCache::path_for(std::uint64_t key) const {
  return dir_ + "/" + key_hex(key) + ".json";
}

bool ResultCache::load(std::uint64_t key, const std::string& name,
                       harness::TestResult* out) const {
  const auto text = read_file(path_for(key));
  if (!text) return false;
  const auto doc = Json::parse(*text);
  if (!doc || !result_from_json(*doc, out)) return false;
  out->name = name;
  return true;
}

bool ResultCache::load(const harness::TestSpec& spec, harness::TestResult* out) const {
  return load(spec_key(spec), spec.name, out);
}

bool ResultCache::store(std::uint64_t key, const harness::TestResult& result) const {
  const std::string path = path_for(key);
  const std::string tmp = path + ".tmp";
  std::error_code ec;
  if (!write_file(tmp, result_to_json(result).dump(2) + "\n")) {
    fs::remove(tmp, ec);
    return false;
  }
  fs::rename(tmp, path, ec);
  return !ec;
}

bool ResultCache::store(const harness::TestSpec& spec,
                        const harness::TestResult& result) const {
  return store(spec_key(spec), result);
}

GcReport ResultCache::gc(const GcOptions& opts) const {
  GcReport report;
  report.dry_run = opts.dry_run;
  // GC is operational tooling, not simulation: the file mtime is the only
  // honest age signal a cache directory has (tests/link_audit.py allows it).
  const auto now = fs::file_time_type::clock::now();
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const fs::path p = entry.path();
    const std::string name = p.filename().string();
    const auto ends_with = [&name](std::string_view suffix) {
      return name.size() > suffix.size() &&
             name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
    };
    const bool is_tmp = ends_with(".json.tmp");
    if (!is_tmp && !ends_with(".json")) continue;  // not ours; never touch
    ++report.scanned;

    bool evict = false;
    if (is_tmp) {
      // store() renames on success, so any surviving .tmp is an orphaned
      // half-write from a killed run — always garbage.
      evict = true;
    } else {
      if (opts.salt_mismatch) {
        const auto text = read_file(p.string());
        const auto doc = text ? Json::parse(*text) : std::nullopt;
        // Unreadable/truncated entries can never be served again; under the
        // salt criterion they go too.
        if (!doc || doc->string_at("schema", "") != kCacheSalt) evict = true;
      }
      if (!evict && opts.max_age_days >= 0.0) {
        const auto mtime = fs::last_write_time(p, ec);
        if (!ec) {
          const double age_days =
              std::chrono::duration<double>(now - mtime).count() / 86400.0;
          if (age_days > opts.max_age_days) evict = true;
        }
      }
    }

    if (evict) {
      ++report.evicted;
      const auto size = entry.file_size(ec);
      if (!ec) report.reclaimed_bytes += size;
      if (!opts.dry_run) fs::remove(p, ec);
    } else {
      ++report.kept;
    }
  }
  return report;
}

}  // namespace dtnsim::sweep
