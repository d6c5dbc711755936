#!/usr/bin/env python3
"""One audit of the built dtnsim libraries and the sources they come from.

    python3 tests/link_audit.py BUILD_DIR [PROGRAM_LIST [NM]]

Reads BUILD_DIR/src/libdtnsim_*.a, the programs PROGRAM_LIST names (one
path a line; default BUILD_DIR/link_audit_programs.txt, which CMake writes
with every executable of tools/, bench/ and examples/), and the source tree
this script sits in. Prints one `rule: where: why` line per finding and
exits 1 on any. Checks:

  unlinked         an archive member whose global functions no listed
                   program links: code only the tests reach
  determinism      a member referencing a wall clock or ambient randomness
                   (`nm -u`): runs must be bit-identical for a seed
  iostream         a member referencing std::cout/cerr/clog or
                   std::ios_base::Init: the library prints via util/log
  raw-unit-double  a public header outside src/dtnsim/units/ taking or
                   returning a scaled-unit double (`double rate_gbps`)
  bench-include    a bench/ header included outside bench/
  mutex-guard      a bare lock()/unlock()/try_lock() in src/**/sweep/

The symbol checks see calls made through inline helpers; the three text
checks read source with comments and string literals blanked. ALLOWED
lists the wall-clock reads that are not simulation, by object and symbol;
an entry whose symbol its object no longer references fails as stale.
Programs come from the list, never from a directory scan, so a stale binary
left in a reused build tree cannot make an object count as linked. It needs
every target built: with a listed program or the libraries missing, it
exits 1.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ("src", "tests", "tools", "examples")

# (archive(member), symbol suffix) pairs the symbol checks accept.
ALLOWED = {
    # now_sec(): campaign wall time and worker occupancy, reported only.
    ("libdtnsim_sweep.a(campaign.cpp.o)", "steady_clock::now()"),
    # ResultCache::gc ages entries by file mtime; file_clock::now() is this.
    ("libdtnsim_sweep.a(cache.cpp.o)", "system_clock::now()"),
}

# Undefined symbols (demangled, matched whole) a library object may not use.
BANNED = (
    ("determinism", re.compile(r"clock_gettime|gettimeofday|time|clock|s?rand|drand48|"
                               r"localtime|gmtime|std::.*\bchrono::.*::now\(\)|"
                               r"std::random_device::.*")),
    ("iostream", re.compile(r"std::(?:cout|cerr|clog)|std::ios_base::Init::.*")),
)

UNIT = r"(?:\w+_)?(?:gbps|mbps|kbps|seconds|secs|millis|micros|nanos)\b"
# (rule, applies to the path relative to the tree root, pattern, why).
TEXT_RULES = (
    ("raw-unit-double",
     lambda rel: rel.parts[0] == "src" and rel.suffix in (".hpp", ".h")
     and rel.parts[1:3] != ("dtnsim", "units"),
     re.compile(rf"[(,]\s*(?:const\s+)?double\s+{UNIT}|\bdouble\s+{UNIT}\s*\("),
     "a scaled unit as a raw double in a public header; use a units:: type"),
    ("bench-include", lambda rel: True,
     re.compile(r'^[ \t]*#[ \t]*include[ \t]*["<][^">\n]*\bbench(?:/|_common)', re.M),
     "bench/ headers are for benches only"),
    ("mutex-guard", lambda rel: rel.parts[0] == "src" and "sweep" in rel.parts[:-1],
     re.compile(r"(?:\.|->)\s*(?:try_lock|lock|unlock)\s*\(\s*\)"),
     "bare lock call in sweep/; lock through std::lock_guard or std::unique_lock"),
)

# Leftmost first: #include directives (kept, so the header name survives),
# comments, raw strings, strings and char literals (blanked). A quote after
# an identifier character is a digit separator, as in 1'000'000.
TOKENS = re.compile(r"""^[ \t]*\#[ \t]*include[ \t]*(?:"[^"\n]*"|<[^>\n]*>)
                      |//[^\n]*|/\*.*?\*/|R"([^(\s]*)\(.*?\)\1"
                      |"(?:\\.|[^"\\\n])*"|(?<!\w)'(?:\\.|[^'\\\n])*'""",
                    re.M | re.S | re.X)


def strip(text):
    """`text` with comments and literals blanked; line numbers are kept."""
    def blank(m):
        s = m.group(0)
        return s if s.lstrip().startswith("#") else re.sub(r"[^\n]", " ", s)
    return TOKENS.sub(blank, text)


def nm_members(nm, archive, *flags):
    """{member: [nm lines]} for each object in `archive`."""
    out = subprocess.run([nm, *flags, str(archive)], check=True,
                         capture_output=True, text=True).stdout
    members, member = {}, None
    for line in out.splitlines():
        if line.endswith(":") and line[:1] not in (" ", ""):
            member = line[:-1]
            members[member] = []
        elif member is not None:
            members[member].append(line)
    return members


def text_symbols(lines):
    """Global function names ('T' entries) in nm output lines."""
    return {f[2] for f in (line.split() for line in lines) if len(f) == 3 and f[1] == "T"}


def is_program(path):
    if not path.is_file() or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def read_programs(listing):
    """The paths `listing` names, one a line: (built programs, missing ones)."""
    paths = [Path(line) for line in listing.read_text().splitlines() if line.strip()]
    return [p for p in paths if is_program(p)], [p for p in paths if not is_program(p)]


def unlinked_findings(archives, programs, nm):
    linked = set()
    for program in programs:
        out = subprocess.run([nm, "--defined-only", str(program)], check=True,
                             capture_output=True, text=True).stdout
        linked |= text_symbols(out.splitlines())
    findings = []
    for archive in archives:
        for name, lines in nm_members(nm, archive, "--defined-only").items():
            funcs = text_symbols(lines)
            if funcs and not funcs & linked:
                findings.append(("unlinked", f"{archive.name}({name})",
                                 "defines functions no tool, bench or example uses"))
    return findings


def symbol_findings(archives, nm, allowed):
    """Banned undefined symbols per member, then each allowed entry unused."""
    findings, used = [], set()
    for archive in archives:
        for member, lines in nm_members(nm, archive, "-u", "-C").items():
            where = f"{archive.name}({member})"
            for line in lines:
                kind_sym = line.split(None, 1)
                if len(kind_sym) != 2:
                    continue
                sym = kind_sym[1].split("@")[0].strip()
                for rule, pattern in BANNED:
                    if not pattern.fullmatch(sym):
                        continue
                    entry = next((a for a in allowed if a[0] == where and
                                  (sym == a[1] or sym.endswith("::" + a[1]))), None)
                    if entry:
                        used.add(entry)
                    else:
                        findings.append((rule, where, f"references {sym}"))
    findings += [("allowlist", where, f"no longer references {sym}; drop the entry")
                 for where, sym in sorted(allowed - used)]
    return findings


def text_findings(root):
    """TEXT_RULES over the .cpp/.hpp/.h files under root's SOURCE_DIRS."""
    findings = []
    for top in SOURCE_DIRS:
        for path in sorted((root / top).rglob("*")):
            rel = path.relative_to(root)
            if path.suffix not in (".cpp", ".hpp", ".h") or "audit_fixtures" in rel.parts:
                continue
            code = strip(path.read_text(encoding="utf-8"))
            for rule, applies, pattern, why in TEXT_RULES:
                for m in pattern.finditer(code) if applies(rel) else ():
                    line = code.count("\n", 0, m.end() - 1) + 1
                    findings.append((rule, f"{rel.as_posix()}:{line}", why))
    return findings


def main():
    build = Path(sys.argv[1])
    listing = Path(sys.argv[2]) if len(sys.argv) > 2 else build / "link_audit_programs.txt"
    nm = sys.argv[3] if len(sys.argv) > 3 else "nm"
    programs, missing = read_programs(listing) if listing.is_file() else ([], [])
    archives = sorted((build / "src").glob("libdtnsim_*.a"))
    if missing or not programs or not archives:
        print(f"link_audit: {len(programs)} of the {len(programs) + len(missing)} programs "
              f"{listing} lists are built, and {len(archives)} libraries under {build}; "
              "build every target first", file=sys.stderr)
        return 1

    findings = (unlinked_findings(archives, programs, nm) +
                symbol_findings(archives, nm, ALLOWED) + text_findings(ROOT))
    for rule, where, why in findings:
        print(f"{rule}: {where}: {why}", file=sys.stderr)
    print(f"link_audit: {len(programs)} programs, {len(archives)} libraries, "
          f"{len(findings)} findings")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
