// dtnsim-lint CLI: walk the given files/directories, lint every .cpp/.hpp,
// and report findings. Exit 0 when clean, 1 when findings exist, 2 on usage
// or I/O errors. See src/dtnsim/lint/lint.hpp for the rule set.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "dtnsim/lint/lint.hpp"

namespace fs = std::filesystem;

namespace {

bool lintable(const fs::path& p) {
  const auto ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h";
}

// Directories never descended into unless the user names them as a root:
// build trees, VCS metadata, and the lint test fixtures (which are
// violations by design).
bool skip_dir(const fs::path& p) {
  const auto name = p.filename().string();
  return name == "build" || name == ".git" || name == "lint_fixtures" ||
         name == "third_party";
}

bool collect(const fs::path& root, std::vector<fs::path>& files) {
  std::error_code ec;
  const auto st = fs::status(root, ec);
  if (ec) {
    std::fprintf(stderr, "dtnsim-lint: cannot stat %s\n", root.string().c_str());
    return false;
  }
  if (fs::is_regular_file(st)) {
    files.push_back(root);
    return true;
  }
  if (!fs::is_directory(st)) {
    std::fprintf(stderr, "dtnsim-lint: not a file or directory: %s\n",
                 root.string().c_str());
    return false;
  }
  fs::recursive_directory_iterator it(root, fs::directory_options::skip_permission_denied, ec);
  const fs::recursive_directory_iterator end;
  for (; it != end; it.increment(ec)) {
    if (ec) return false;
    if (it->is_directory() && skip_dir(it->path())) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && lintable(it->path())) files.push_back(it->path());
  }
  return true;
}

bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: dtnsim-lint [--json] <file-or-dir>...\n"
      "  --json   machine-readable output\n"
      "Rules: determinism, raw-unit-double, include-hygiene, mutex-guard.\n"
      "Suppress any rule with: // dtnsim-lint: allow(<rule>)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::vector<fs::path> roots;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "dtnsim-lint: unknown option %s\n", arg.c_str());
      return usage();
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) return usage();

  std::vector<fs::path> paths;
  for (const auto& r : roots) {
    if (!collect(r, paths)) return 2;
  }
  // Canonical order: directory iteration order is filesystem-dependent, and
  // the golden story needs a stable finding order.
  std::sort(paths.begin(), paths.end(),
            [](const fs::path& a, const fs::path& b) {
              return a.generic_string() < b.generic_string();
            });
  paths.erase(std::unique(paths.begin(), paths.end()), paths.end());

  std::vector<dtnsim::lint::Finding> findings;
  for (const auto& p : paths) {
    std::string content;
    if (!read_file(p, content)) {
      std::fprintf(stderr, "dtnsim-lint: cannot read %s\n", p.string().c_str());
      return 2;
    }
    const auto found = dtnsim::lint::lint_file(p.generic_string(), content);
    findings.insert(findings.end(), found.begin(), found.end());
  }

  if (json) {
    std::printf("%s\n", dtnsim::lint::to_json(findings).c_str());
  } else if (!findings.empty()) {
    std::printf("%s", dtnsim::lint::to_human(findings).c_str());
    std::printf("dtnsim-lint: %zu finding(s) in %zu file(s) scanned\n",
                findings.size(), paths.size());
  } else {
    std::printf("dtnsim-lint: clean (%zu files scanned)\n", paths.size());
  }
  return findings.empty() ? 0 : 1;
}
