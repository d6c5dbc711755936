#include "dtnsim/sweep/cache.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "dtnsim/util/strfmt.hpp"

namespace dtnsim::sweep {
namespace {

namespace fs = std::filesystem;

// %.17g round-trips every double exactly; canonical text must never lose
// precision or two different knob values could collide into one key.
std::string num(double v) { return strfmt("%.17g", v); }
std::string num(int v) { return strfmt("%d", v); }
std::string num(bool v) { return v ? "1" : "0"; }
std::string num(std::uint64_t v) { return strfmt("%llu", static_cast<unsigned long long>(v)); }

void add(FieldList& f, std::string key, std::string value) {
  f.emplace_back(std::move(key), std::move(value));
}

void add_sysctl_fields(FieldList& f, const std::string& p, const kern::SysctlConfig& s) {
  add(f, p + "rmem_max", num(s.rmem_max));
  add(f, p + "wmem_max", num(s.wmem_max));
  add(f, p + "tcp_rmem_min", num(s.tcp_rmem_min));
  add(f, p + "tcp_rmem_def", num(s.tcp_rmem_def));
  add(f, p + "tcp_rmem_max", num(s.tcp_rmem_max));
  add(f, p + "tcp_wmem_min", num(s.tcp_wmem_min));
  add(f, p + "tcp_wmem_def", num(s.tcp_wmem_def));
  add(f, p + "tcp_wmem_max", num(s.tcp_wmem_max));
  add(f, p + "tcp_no_metrics_save", num(s.tcp_no_metrics_save));
  add(f, p + "default_qdisc", kern::qdisc_name(s.default_qdisc));
  add(f, p + "optmem_max", num(s.optmem_max));
  add(f, p + "congestion", kern::congestion_name(s.congestion));
}

void add_host_fields(FieldList& f, const std::string& p, const host::HostConfig& h) {
  // CPU (model string is cosmetic; the numbers are the physics).
  add(f, p + "cpu.vendor", cpu::vendor_name(h.cpu.vendor));
  add(f, p + "cpu.sockets", num(h.cpu.sockets));
  add(f, p + "cpu.cores_per_socket", num(h.cpu.cores_per_socket));
  add(f, p + "cpu.numa_nodes", num(h.cpu.numa_nodes));
  add(f, p + "cpu.smt_threads", num(h.cpu.smt_threads));
  add(f, p + "cpu.base_ghz", num(h.cpu.base_ghz));
  add(f, p + "cpu.max_ghz", num(h.cpu.max_ghz));
  add(f, p + "cpu.avx512", num(h.cpu.avx512));
  add(f, p + "cpu.l3_per_socket_bytes", num(h.cpu.l3_per_socket_bytes));
  add(f, p + "cpu.l3_flow_window_bytes", num(h.cpu.l3_flow_window_bytes));
  add(f, p + "cpu.stack_mem_bw_bytes", num(h.cpu.stack_mem_bw_bytes));
  // Kernel profile.
  add(f, p + "kernel.version", h.kernel.name);
  add(f, p + "kernel.max_skb_frags", num(h.kernel.max_skb_frags));
  add(f, p + "kernel.custom_build", num(h.kernel.custom_build));
  add(f, p + "kernel.msg_zerocopy", num(h.kernel.supports_msg_zerocopy));
  add(f, p + "kernel.big_tcp_ipv4", num(h.kernel.supports_big_tcp_ipv4));
  add(f, p + "kernel.big_tcp_ipv6", num(h.kernel.supports_big_tcp_ipv6));
  add(f, p + "kernel.hw_gro", num(h.kernel.supports_hw_gro));
  add(f, p + "kernel.stack_factor_intel", num(h.kernel.stack_factor_intel));
  add(f, p + "kernel.stack_factor_amd", num(h.kernel.stack_factor_amd));
  // NIC.
  add(f, p + "nic.line_rate_bps", num(h.nic.line_rate_bps));
  add(f, p + "nic.default_ring", num(h.nic.default_ring_descriptors));
  add(f, p + "nic.max_ring", num(h.nic.max_ring_descriptors));
  add(f, p + "nic.hw_gro_capable", num(h.nic.hw_gro_capable));
  add(f, p + "nic.drain_smooth_bps", num(h.nic.drain_smooth_bps));
  add(f, p + "nic.drain_burst_bps", num(h.nic.drain_burst_bps));
  // Tuning.
  const auto& t = h.tuning;
  add_sysctl_fields(f, p + "sysctl.", t.sysctl);
  add(f, p + "tuning.irqbalance_disabled", num(t.irqbalance_disabled));
  add(f, p + "tuning.performance_governor", num(t.performance_governor));
  add(f, p + "tuning.smt_off", num(t.smt_off));
  add(f, p + "tuning.ring_descriptors", num(t.ring_descriptors));
  add(f, p + "tuning.iommu_passthrough", num(t.iommu_passthrough));
  add(f, p + "tuning.mtu_bytes", num(t.mtu_bytes));
  add(f, p + "tuning.big_tcp_enabled", num(t.big_tcp_enabled));
  add(f, p + "tuning.big_tcp_bytes", num(t.big_tcp_bytes));
  add(f, p + "tuning.hw_gro_enabled", num(t.hw_gro_enabled));
  add(f, p + "virt_factor", num(h.virt_factor));
}

}  // namespace

FieldList spec_fields(const harness::TestSpec& spec) {
  FieldList f;
  add(f, "repeats", num(spec.repeats));
  add(f, "base_seed", num(spec.base_seed));
  add(f, "link_flow_control", num(spec.link_flow_control));
  // iperf options.
  add(f, "iperf.parallel", num(spec.iperf.parallel));
  add(f, "iperf.duration_sec", num(spec.iperf.duration_sec));
  add(f, "iperf.fq_rate_bps", num(spec.iperf.fq_rate_bps));
  add(f, "iperf.zerocopy", num(spec.iperf.zerocopy));
  add(f, "iperf.skip_rx_copy", num(spec.iperf.skip_rx_copy));
  add(f, "iperf.congestion", kern::congestion_name(spec.iperf.congestion));
  // Path physics (display name excluded).
  add(f, "path.rtt_ns", num(static_cast<std::uint64_t>(spec.path.rtt)));
  add(f, "path.capacity_bps", num(spec.path.capacity_bps));
  add(f, "path.hops", num(spec.path.hops));
  add(f, "path.bg_traffic_bps", num(spec.path.bg_traffic_bps));
  add(f, "path.bg_burst_sigma", num(spec.path.bg_burst_sigma));
  add(f, "path.burst_tolerance_bps", num(spec.path.burst_tolerance_bps));
  add(f, "path.deep_buffers", num(spec.path.deep_buffers));
  add(f, "path.stray_loss_events_per_sec", num(spec.path.stray_loss_events_per_sec));
  add_host_fields(f, "sender.", spec.sender);
  add_host_fields(f, "receiver.", spec.receiver);
  // Scenario timeline: every event is simulation-affecting, so each one
  // enters the key (the display name stays cosmetic and excluded). Emitted
  // only when non-empty so scenario-less keys — and the cell seeds derived
  // from this canonical text — are byte-identical to pre-scenario builds.
  if (!spec.scenario.empty()) {
    add(f, "scenario.count", num(static_cast<int>(spec.scenario.events.size())));
    for (std::size_t i = 0; i < spec.scenario.events.size(); ++i) {
      const auto& e = spec.scenario.events[i];
      const std::string p = strfmt("scenario.%03zu.", i);
      add(f, p + "at_sec", num(e.at_sec));
      add(f, p + "kind", std::string(scenario::kind_name(e.kind)));
      add(f, p + "value", num(e.value));
      add(f, p + "duration_sec", num(e.duration_sec));
      add(f, p + "jitter_sec", num(e.jitter_sec));
    }
  }
  return f;
}

std::string canonicalize(FieldList fields) {
  std::sort(fields.begin(), fields.end());
  std::string out;
  for (const auto& [k, v] : fields) {
    out += k;
    out += '=';
    out += v;
    out += '\n';
  }
  return out;
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t spec_key(const harness::TestSpec& spec) {
  std::string text(kCacheSalt);
  text += '\n';
  text += canonicalize(spec_fields(spec));
  return fnv1a64(text);
}

std::string spec_key_hex(const harness::TestSpec& spec) {
  return strfmt("%016llx", static_cast<unsigned long long>(spec_key(spec)));
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

std::string ResultCache::path_for(const harness::TestSpec& spec) const {
  return dir_ + "/" + spec_key_hex(spec) + ".json";
}

bool ResultCache::load(const harness::TestSpec& spec, harness::TestResult* out) const {
  std::ifstream in(path_for(spec));
  if (!in) return false;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto doc = Json::parse(buffer.str());
  if (!doc || !result_from_json(*doc, out)) return false;
  out->name = spec.name;
  return true;
}

bool ResultCache::store(const harness::TestSpec& spec,
                        const harness::TestResult& result) const {
  const std::string path = path_for(spec);
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
