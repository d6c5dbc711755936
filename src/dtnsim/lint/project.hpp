// dtnsim-lint v2: project-wide cross-file analysis.
//
// The per-file rules in lint.hpp catch hazards visible in one translation
// unit. The project pass checks one invariant that lives *between* files:
//
//   metric-parity  the fluid engine (flow/transfer.cpp) and the packet
//                  engine (flow/packet_sim.cpp) publish the same dual-engine
//                  metric families: a `flow.X` registered without a `pkt.X`
//                  counterpart (or vice versa), or a `scenario.*` metric
//                  present in only one engine, is drift — modulo the
//                  explained allowlist below. Registered library metrics
//                  must also appear in docs/OBSERVABILITY.md.
//
// Two invariants that used to be rules here now hold by construction: the
// compiler's -Werror=switch rejects a non-exhaustive switch over an enum
// class (and a case naming a deleted enumerator never compiled), and each
// serialised struct's one fields() list (util/fields.hpp) drives both its
// Json emit and parse.
//
// The analysis is two-pass: pass 1 indexes every file (metric-name literals
// at counter(/gauge(/histogram( registration sites tagged by engine, and a
// per-file preprocessor-conditional map); pass 2 runs the rule over the
// merged ProjectIndex. A registration site under `#if`/`#ifdef` is exempt —
// it cannot be judged from one configuration.
//
// Suppression: the usual `// dtnsim-lint: allow(metric-parity)` on (or
// above) the registration line.
#pragma once

#include <string>
#include <vector>

#include "dtnsim/lint/lint.hpp"

namespace dtnsim::lint {

// One file handed to the project pass. `content` is the full text; `path`
// drives classification and finding locations, as in lint_file.
struct FileContent {
  std::string path;
  std::string content;
};

// ---- pass 1: the index ----------------------------------------------------

struct MetricSite {
  std::string path;
  int line = 0;
  std::string kind;    // "counter" | "gauge" | "histogram"
  std::string name;    // first string-literal argument (the family name)
  std::string engine;  // "fluid" (transfer.cpp) | "packet" (packet_sim.cpp)
                       // | "" for shared/other registration sites
  bool library = false;      // site lives in library code (src/**)
  bool conditional = false;
  bool suppressed = false;   // allow(metric-parity) at the call line
};

struct FileIndex {
  std::string path;
  FileKind kind = FileKind::Other;
  std::vector<MetricSite> metrics;
};

// Index one file. Pure: `path` does not need to exist on disk.
FileIndex index_file(const std::string& path, const std::string& content);

struct ProjectIndex {
  std::vector<FileIndex> files;  // input order
  // docs/OBSERVABILITY.md text for the metric-docs check; empty disables it.
  std::string doc_text;
};

ProjectIndex build_index(const std::vector<FileContent>& files,
                         std::string doc_text = "");

// ---- pass 2: the cross-file rules -----------------------------------------

// Runs metric-parity over the merged index. Findings follow the file order
// of the index.
std::vector<Finding> run_project_rules(const ProjectIndex& index);

// The explained metric-parity allowlist: deliberately engine-asymmetric
// families, each with the one-line reason rendered by `dtnsim-lint
// --explain-allowlist`. Returns the reason, or nullptr when `name` is not
// allowlisted.
const char* metric_parity_allowance(const std::string& name);
std::string format_metric_allowlist();

// ---- parallel driver -------------------------------------------------------

struct ProjectOptions {
  int jobs = 1;              // resolved via sweep::resolve_jobs
  bool project_rules = true; // run the cross-file pass after per-file rules
  std::string doc_text;      // for the metric-docs check
};

// Lint every file — per-file rules and index construction run through
// sweep::parallel_for, results written by index so `jobs = N` output is
// byte-identical to serial — then run the cross-file pass. Findings:
// per-file findings in input order, then project rules.
std::vector<Finding> lint_project(const std::vector<FileContent>& files,
                                  const ProjectOptions& opts);

}  // namespace dtnsim::lint
