#include "dtnsim/sweep/cache.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::sweep {
namespace {

namespace fs = std::filesystem;

// The canonical text under construction: "key=value\n" lines appended to
// one buffer, then joined in key order.
class FieldText {
 public:
  FieldText() {
    buf_.reserve(8192);
    lines_.reserve(128);
  }

  template <class T>
  void add(std::string_view prefix, std::string_view key, const T& value) {
    const std::size_t at = buf_.size();
    buf_ += prefix;
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
      static_assert(std::is_convertible_v<const T&, std::string_view>,
                    "a knob is a number, a bool or a name");
      buf_ += value;
    }
    buf_ += '\n';
    lines_.push_back({at, eq, buf_.size()});
  }
  template <class T>
  void add(std::string_view key, const T& value) {
    add({}, key, value);
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
  std::string buf_;
  std::vector<Line> lines_;
};

void add_sysctl_fields(FieldText& f, std::string_view p, const kern::SysctlConfig& s) {
  f.add(p, "rmem_max", s.rmem_max);
  f.add(p, "wmem_max", s.wmem_max);
  f.add(p, "tcp_rmem_min", s.tcp_rmem_min);
  f.add(p, "tcp_rmem_def", s.tcp_rmem_def);
  f.add(p, "tcp_rmem_max", s.tcp_rmem_max);
  f.add(p, "tcp_wmem_min", s.tcp_wmem_min);
  f.add(p, "tcp_wmem_def", s.tcp_wmem_def);
  f.add(p, "tcp_wmem_max", s.tcp_wmem_max);
  f.add(p, "tcp_no_metrics_save", s.tcp_no_metrics_save);
  f.add(p, "default_qdisc", kern::qdisc_name(s.default_qdisc));
  f.add(p, "optmem_max", s.optmem_max);
  f.add(p, "congestion", kern::congestion_name(s.congestion));
}

void add_host_fields(FieldText& f, const std::string& p, const host::HostConfig& h) {
  // CPU (model string is cosmetic; the numbers are the physics).
  f.add(p, "cpu.vendor", cpu::vendor_name(h.cpu.vendor));
  f.add(p, "cpu.sockets", h.cpu.sockets);
  f.add(p, "cpu.cores_per_socket", h.cpu.cores_per_socket);
  f.add(p, "cpu.numa_nodes", h.cpu.numa_nodes);
  f.add(p, "cpu.smt_threads", h.cpu.smt_threads);
  f.add(p, "cpu.base_ghz", h.cpu.base_ghz);
  f.add(p, "cpu.max_ghz", h.cpu.max_ghz);
  f.add(p, "cpu.avx512", h.cpu.avx512);
  f.add(p, "cpu.l3_per_socket_bytes", h.cpu.l3_per_socket_bytes);
  f.add(p, "cpu.l3_flow_window_bytes", h.cpu.l3_flow_window_bytes);
  f.add(p, "cpu.stack_mem_bw_bytes", h.cpu.stack_mem_bw_bytes);
  // Kernel profile.
  f.add(p, "kernel.version", h.kernel.name);
  f.add(p, "kernel.max_skb_frags", h.kernel.max_skb_frags);
  f.add(p, "kernel.custom_build", h.kernel.custom_build);
  f.add(p, "kernel.msg_zerocopy", h.kernel.supports_msg_zerocopy);
  f.add(p, "kernel.big_tcp_ipv4", h.kernel.supports_big_tcp_ipv4);
  f.add(p, "kernel.big_tcp_ipv6", h.kernel.supports_big_tcp_ipv6);
  f.add(p, "kernel.hw_gro", h.kernel.supports_hw_gro);
  f.add(p, "kernel.stack_factor_intel", h.kernel.stack_factor_intel);
  f.add(p, "kernel.stack_factor_amd", h.kernel.stack_factor_amd);
  // NIC.
  f.add(p, "nic.line_rate_bps", h.nic.line_rate_bps);
  f.add(p, "nic.default_ring", h.nic.default_ring_descriptors);
  f.add(p, "nic.max_ring", h.nic.max_ring_descriptors);
  f.add(p, "nic.hw_gro_capable", h.nic.hw_gro_capable);
  f.add(p, "nic.drain_smooth_bps", h.nic.drain_smooth_bps);
  f.add(p, "nic.drain_burst_bps", h.nic.drain_burst_bps);
  // Tuning.
  const auto& t = h.tuning;
  add_sysctl_fields(f, p + "sysctl.", t.sysctl);
  f.add(p, "tuning.irqbalance_disabled", t.irqbalance_disabled);
  f.add(p, "tuning.performance_governor", t.performance_governor);
  f.add(p, "tuning.smt_off", t.smt_off);
  f.add(p, "tuning.ring_descriptors", t.ring_descriptors);
  f.add(p, "tuning.iommu_passthrough", t.iommu_passthrough);
  f.add(p, "tuning.mtu_bytes", t.mtu_bytes);
  f.add(p, "tuning.big_tcp_enabled", t.big_tcp_enabled);
  f.add(p, "tuning.big_tcp_bytes", t.big_tcp_bytes);
  f.add(p, "tuning.hw_gro_enabled", t.hw_gro_enabled);
  f.add(p, "virt_factor", h.virt_factor);
}

// The salt line every key hashes before the canonical text.
constexpr std::uint64_t kSaltHash = fnv1a64("\n", fnv1a64(kCacheSalt));

}  // namespace

std::string canonical_text(const harness::TestSpec& spec) {
  FieldText f;
  f.add("repeats", spec.repeats);
  f.add("base_seed", spec.base_seed);
  f.add("link_flow_control", spec.link_flow_control);
  // iperf options.
  f.add("iperf.parallel", spec.iperf.parallel);
  f.add("iperf.duration_sec", spec.iperf.duration_sec);
  f.add("iperf.fq_rate_bps", spec.iperf.fq_rate_bps);
  f.add("iperf.zerocopy", spec.iperf.zerocopy);
  f.add("iperf.skip_rx_copy", spec.iperf.skip_rx_copy);
  f.add("iperf.congestion", kern::congestion_name(spec.iperf.congestion));
  // Path physics (display name excluded).
  f.add("path.rtt_ns", static_cast<std::uint64_t>(spec.path.rtt));
  f.add("path.capacity_bps", spec.path.capacity_bps);
  f.add("path.hops", spec.path.hops);
  f.add("path.bg_traffic_bps", spec.path.bg_traffic_bps);
  f.add("path.bg_burst_sigma", spec.path.bg_burst_sigma);
  f.add("path.burst_tolerance_bps", spec.path.burst_tolerance_bps);
  f.add("path.deep_buffers", spec.path.deep_buffers);
  f.add("path.stray_loss_events_per_sec", spec.path.stray_loss_events_per_sec);
  add_host_fields(f, "sender.", spec.sender);
  add_host_fields(f, "receiver.", spec.receiver);
  // Scenario timeline: every event is simulation-affecting, so each one
  // enters the key (the display name stays cosmetic and excluded). Emitted
  // only when non-empty so scenario-less keys — and the cell seeds derived
  // from this canonical text — are byte-identical to pre-scenario builds.
  if (!spec.scenario.empty()) {
    f.add("scenario.count", static_cast<int>(spec.scenario.events.size()));
    for (std::size_t i = 0; i < spec.scenario.events.size(); ++i) {
      const auto& e = spec.scenario.events[i];
      // scenario.1000.* sorts between scenario.100.* and scenario.101.*,
      // which the sort in sorted() keeps.
      const std::string p = strfmt("scenario.%03zu.", i);
      f.add(p, "at_sec", e.at_sec);
      f.add(p, "kind", scenario::kind_name(e.kind));
      f.add(p, "value", e.value);
      f.add(p, "duration_sec", e.duration_sec);
      f.add(p, "jitter_sec", e.jitter_sec);
    }
  }
  return f.sorted();
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
  // The first line, as no knob's key sorts before "base_seed" (a grid test
  // requires every cell's key to equal spec_key(cell.spec)).
  constexpr std::string_view kZeroSeed = "base_seed=0\n";
  spec.base_seed = 0;
  const std::string text = canonical_text(spec);
  spec.base_seed = mix64(fnv1a64(text) ^ campaign_seed);
  std::string seed_line = "base_seed=";
  append_int(seed_line, spec.base_seed);
  seed_line += '\n';
  return fnv1a64(std::string_view(text).substr(kZeroSeed.size()),
                 fnv1a64(seed_line, kSaltHash));
}

namespace {

// One cache entry: the schema salt, the label, the repeat count and the
// RunSummary columns, flattened into one object.
struct Entry {
  std::string schema;
  harness::TestResult* result;
};

template <class V>
void fields(V& v, Entry& e) {
  v("schema", e.schema);
  v("name", e.result->name);
  v("repeats", e.result->repeats, wire::required);
  fields(v, static_cast<report::RunSummary&>(*e.result));
}

}  // namespace

Json result_to_json(const harness::TestResult& result) {
  // The writer only reads through the pointer.
  const Entry e{std::string(kCacheSalt), const_cast<harness::TestResult*>(&result)};
  return wire::to_json(e);
}

bool result_from_json(const Json& j, harness::TestResult* out) {
  harness::TestResult r;
  Entry e{"", &r};
  if (!wire::read(j, e).empty() || e.schema != kCacheSalt) return false;
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
  std::ifstream in(path_for(key));
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto doc = Json::parse(buffer.str());
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
  {
    std::ofstream o(tmp, std::ios::trunc);
    if (!o) return false;
    o << result_to_json(result).dump(2) << "\n";
    if (!o.good()) return false;
  }
  std::error_code ec;
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
        std::ifstream in(p);
        std::stringstream buffer;
        buffer << in.rdbuf();
        const auto doc = Json::parse(buffer.str());
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
