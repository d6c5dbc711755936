#!/usr/bin/env python3
"""Require each link_audit check to flag its seeded fixture.

    python3 tests/link_audit_fixtures.py FIXTURE_ARCHIVE STRAY_PROGRAM [NM]

FIXTURE_ARCHIVE is the audit_fixtures library CMake builds from
tests/audit_fixtures/src/; the text checks read tests/audit_fixtures/.
STRAY_PROGRAM links the archive's wallclock object. Exits 1 naming each
check that missed its fixture, when the allowlist stops passing an allowed
symbol or stops failing a stale entry, or when the stray program makes the
object count as linked without being listed.
"""
import shutil
import sys
import tempfile
from pathlib import Path

import link_audit

FIXTURE_OF = {
    "determinism": "(wallclock.cpp.o)",
    "iostream": "(log_to_cerr.cpp.o)",
    "raw-unit-double": "src/dtnsim/fake/raw_units.hpp:",
    "bench-include": "tests/bench_leak_test.cpp:",
    "mutex-guard": "src/dtnsim/sweep/bare_lock.cpp:",
}


def main():
    archive = Path(sys.argv[1])
    stray = Path(sys.argv[2])
    nm = sys.argv[3] if len(sys.argv) > 3 else "nm"
    found = (link_audit.symbol_findings([archive], nm, set()) +
             link_audit.text_findings(Path(__file__).resolve().parent / "audit_fixtures"))
    errors = [f"{rule} did not flag {fixture}" for rule, fixture in FIXTURE_OF.items()
              if not any(r == rule and fixture in where for r, where, _ in found)]

    wallclock = f"{archive.name}(wallclock.cpp.o)"
    allowed = {(wallclock, "steady_clock::now()"), (wallclock, "system_clock::now()")}
    found = link_audit.symbol_findings([archive], nm, allowed)
    if any("steady_clock::now()" in why for _, _, why in found):
        errors.append("an allowed steady_clock::now() was still reported")
    if ("allowlist", wallclock) not in {(r, where) for r, where, _ in found}:
        errors.append("the stale system_clock::now() entry was not reported")

    # A program left in a build directory, but not in the list, links
    # nothing; listed, the same program does.
    wallclock_unlinked = ("unlinked", wallclock)
    with tempfile.TemporaryDirectory() as tmp:
        tools = Path(tmp) / "tools"
        tools.mkdir()
        shutil.copy2(stray, tools / stray.name)
        listing = Path(tmp) / "link_audit_programs.txt"
        for listed in ([], [tools / stray.name]):
            listing.write_text("".join(f"{p}\n" for p in listed))
            programs, missing = link_audit.read_programs(listing)
            found = {(r, where) for r, where, _ in
                     link_audit.unlinked_findings([archive], programs, nm)}
            if missing or (wallclock_unlinked in found) == bool(listed):
                errors.append(f"with {len(listed)} programs listed, wallclock.cpp.o "
                              f"{'was' if wallclock_unlinked in found else 'was not'} "
                              "reported unlinked")

    for e in errors:
        print(f"link_audit_fixtures: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
