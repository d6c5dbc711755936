#include "dtnsim/lint/project.hpp"

#include <cctype>
#include <map>
#include <set>

#include "dtnsim/lint/internal.hpp"
#include "dtnsim/sweep/pool.hpp"

namespace dtnsim::lint {
namespace {

using namespace detail;

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

bool is_library(FileKind kind) {
  return kind == FileKind::LibraryHeader || kind == FileKind::LibrarySource ||
         kind == FileKind::UnitsLibrary;
}

// ---- metric registration sites ---------------------------------------------

void index_metrics(const std::vector<std::string>& raw,
                   const std::vector<std::string>& code,
                   const std::vector<int>& cond, const Suppressions& sup,
                   const std::string& path, FileKind kind, FileIndex& out) {
  const auto parts = split_path(path);
  const std::string base = parts.empty() ? "" : parts.back();
  std::string engine;
  if (base == "transfer.cpp") engine = "fluid";
  if (base == "packet_sim.cpp") engine = "packet";
  static const char* const kRegistrars[] = {"counter", "gauge", "histogram"};
  for (std::size_t li = 0; li < code.size(); ++li) {
    for (const char* reg : kRegistrars) {
      std::size_t pos = 0;
      while ((pos = find_word(code[li], reg, pos)) != std::string::npos) {
        std::size_t after = pos + std::string(reg).size();
        pos = after;
        if (after >= code[li].size() || code[li][after] != '(') continue;
        // Registration calls often wrap: `counter(\n    "name", ...`. Walk
        // raw whitespace (including line breaks) to the first argument.
        std::size_t lit_line = li;
        std::size_t i = after + 1;
        while (lit_line < raw.size()) {
          if (i >= raw[lit_line].size()) {
            ++lit_line;
            i = 0;
            continue;
          }
          if (std::isspace(static_cast<unsigned char>(raw[lit_line][i]))) {
            ++i;
            continue;
          }
          break;
        }
        if (lit_line >= raw.size() || raw[lit_line][i] != '"') continue;
        const auto close = raw[lit_line].find('"', i + 1);
        if (close == std::string::npos) continue;
        const std::string name = raw[lit_line].substr(i + 1, close - i - 1);
        if (name.empty()) continue;
        MetricSite site;
        site.path = path;
        site.line = static_cast<int>(li + 1);
        site.kind = reg;
        site.name = name;
        site.engine = engine;
        site.library = is_library(kind);
        site.conditional = cond[li] > 0;
        site.suppressed = sup.allows(li, "metric-parity");
        out.metrics.push_back(std::move(site));
      }
    }
  }
}

// ---- metric-parity allowlist -----------------------------------------------

// Deliberate engine asymmetries in the dual-engine families. Every entry
// carries the reason the asymmetry is correct; anything NOT listed here that
// exists in only one engine is drift and gets flagged.
struct MetricAllowance {
  const char* name;
  const char* why;
};

constexpr MetricAllowance kMetricParityAllowlist[] = {
    // Fluid-engine-only views.
    {"flow.sent_rate_bps",
     "sender wire rate is a fluid-integrator view; the packet engine counts "
     "discrete departures (pkt.superpackets_sent/pkt.segments_sent)"},
    {"flow.rcv_backlog_bytes",
     "fluid receiver-drain backlog; the packet engine's queue view is "
     "descriptor-granular (pkt.ring_occupancy)"},
    {"flow.per_flow_min_bps",
     "per-tick skew across streams; the packet engine models a single flow"},
    {"flow.per_flow_max_bps",
     "per-tick skew across streams; the packet engine models a single flow"},
    {"flow.per_flow_range_bps",
     "per-tick skew across streams; the packet engine models a single flow"},
    {"scenario.active_flows",
     "the packet engine does not support the flow-churn scenario kinds "
     "(flow_arrive/flow_depart), so the gauge would be a constant lie there"},
    // Packet-engine-only views: SKB/descriptor-granular observables the
    // fluid engine cannot express (it mirrors them under nic.*/path.*).
    {"pkt.qdisc_backlog_bytes",
     "fq backlog needs discrete enqueued SKBs; fluid pacing is closed-form"},
    {"pkt.interdeparture_gap_ns",
     "pacing-gap histogram needs discrete departures"},
    {"pkt.superpackets_sent",
     "discrete GSO counts; the fluid engine prices GSO via kern::gso_counts "
     "fractions"},
    {"pkt.segments_sent",
     "discrete GSO counts; the fluid engine prices GSO via kern::gso_counts "
     "fractions"},
    {"pkt.ring_occupancy",
     "descriptor-granular ring view; fluid mirrors nic.rx_ring_occupancy_frac"},
    {"pkt.ring_peak",
     "descriptor-granular ring view; fluid mirrors nic.rx_ring_occupancy_frac"},
    {"pkt.ring_drops",
     "segment-count drops; fluid accounts the same loss as nic.rx_dropped_bytes"},
    {"pkt.dropped_bytes",
     "fluid accounts drop bytes under nic.rx_dropped_bytes + path.dropped_bytes"},
    {"pkt.napi_polls", "NAPI batching is inherently discrete"},
    {"pkt.napi_batch_segments", "NAPI batching is inherently discrete"},
    {"pkt.gro_aggregates",
     "discrete aggregate count; fluid mirrors flow.gro_aggregate_bytes"},
};

// ---- the cross-file rules --------------------------------------------------

// flow.X and pkt.X share the key "~.X". (Built by append: gcc 12 reports a
// false -Wrestrict on `"~" + name.substr(n)` here.)
std::string canonical_family(const std::string& name) {
  if (starts_with(name, "flow.")) return std::string("~").append(name, 4);
  if (starts_with(name, "pkt.")) return std::string("~").append(name, 3);
  return name;  // scenario.* compares literally
}

bool dual_engine_family(const std::string& name) {
  return starts_with(name, "flow.") || starts_with(name, "pkt.") ||
         starts_with(name, "scenario.");
}

void rule_metric_parity(const ProjectIndex& index, std::vector<Finding>& out) {
  // Presence map over the dual-engine families — every site counts, even
  // suppressed ones (existence is a fact; suppression mutes findings only).
  std::map<std::string, std::set<std::string>> engines_of;  // canon -> engines
  for (const auto& f : index.files)
    for (const auto& m : f.metrics)
      if (!m.engine.empty() && dual_engine_family(m.name))
        engines_of[canonical_family(m.name)].insert(m.engine);

  std::set<std::string> reported;
  for (const auto& f : index.files) {
    for (const auto& m : f.metrics) {
      if (m.engine.empty() || !dual_engine_family(m.name)) continue;
      if (m.conditional || m.suppressed) continue;
      if (metric_parity_allowance(m.name) != nullptr) continue;
      const auto& present = engines_of[canonical_family(m.name)];
      if (present.size() > 1) continue;
      if (!reported.insert(m.engine + "|" + m.name).second) continue;
      const bool fluid = m.engine == "fluid";
      std::string counterpart;
      if (starts_with(m.name, "flow."))
        counterpart = "'pkt." + m.name.substr(5) + "' in flow/packet_sim.cpp";
      else if (starts_with(m.name, "pkt."))
        counterpart = "'flow." + m.name.substr(4) + "' in flow/transfer.cpp";
      else
        counterpart = std::string("a registration in ") +
                      (fluid ? "flow/packet_sim.cpp" : "flow/transfer.cpp");
      out.push_back({"metric-parity", m.path, m.line,
                     "metric '" + m.name + "' is registered by the " +
                         m.engine +
                         " engine only; dual-engine families need " +
                         counterpart + " or an explained allowlist entry"});
    }
  }

  if (index.doc_text.empty()) return;
  std::set<std::string> doc_reported;
  for (const auto& f : index.files) {
    for (const auto& m : f.metrics) {
      if (!m.library || m.conditional || m.suppressed) continue;
      if (index.doc_text.find(m.name) != std::string::npos) continue;
      if (!doc_reported.insert(m.name).second) continue;
      out.push_back({"metric-parity", m.path, m.line,
                     "metric '" + m.name +
                         "' is registered but never mentioned in "
                         "docs/OBSERVABILITY.md; document it (or suppress the "
                         "site with an explained allow comment)"});
    }
  }
}

}  // namespace

// ---- public API ------------------------------------------------------------

FileIndex index_file(const std::string& path, const std::string& content) {
  FileIndex out;
  out.path = path;
  out.kind = classify(path);
  if (out.kind == FileKind::Other) return out;
  const auto raw = detail::split_lines(content);
  const auto code = detail::scrub(raw);
  const auto cond = detail::conditional_depth(raw);
  const auto sup = detail::parse_suppressions(raw);
  index_metrics(raw, code, cond, sup, path, out.kind, out);
  return out;
}

ProjectIndex build_index(const std::vector<FileContent>& files,
                         std::string doc_text) {
  ProjectIndex index;
  index.doc_text = std::move(doc_text);
  index.files.reserve(files.size());
  for (const auto& f : files) index.files.push_back(index_file(f.path, f.content));
  return index;
}

std::vector<Finding> run_project_rules(const ProjectIndex& index) {
  std::vector<Finding> out;
  rule_metric_parity(index, out);
  return out;
}

const char* metric_parity_allowance(const std::string& name) {
  for (const auto& a : kMetricParityAllowlist)
    if (name == a.name) return a.why;
  return nullptr;
}

std::string format_metric_allowlist() {
  std::string out;
  for (const auto& a : kMetricParityAllowlist) {
    out += a.name;
    out += ": ";
    out += a.why;
    out += "\n";
  }
  return out;
}

std::vector<Finding> lint_project(const std::vector<FileContent>& files,
                                  const ProjectOptions& opts) {
  std::vector<std::vector<Finding>> per_file(files.size());
  std::vector<FileIndex> indexed(files.size());
  sweep::parallel_for(files.size(), opts.jobs, [&](std::size_t i) {
    per_file[i] = lint_file(files[i].path, files[i].content);
    if (opts.project_rules)
      indexed[i] = index_file(files[i].path, files[i].content);
  });
  std::vector<Finding> out;
  for (auto& v : per_file) out.insert(out.end(), v.begin(), v.end());
  if (opts.project_rules) {
    ProjectIndex index;
    index.files = std::move(indexed);
    index.doc_text = opts.doc_text;
    const auto project = run_project_rules(index);
    out.insert(out.end(), project.begin(), project.end());
  }
  return out;
}

}  // namespace dtnsim::lint
