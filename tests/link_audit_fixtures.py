#!/usr/bin/env python3
"""Require each link_audit check to flag its seeded fixture.

    python3 tests/link_audit_fixtures.py FIXTURE_ARCHIVE [NM]

FIXTURE_ARCHIVE is the audit_fixtures library CMake builds from
tests/audit_fixtures/src/; the text checks read tests/audit_fixtures/.
Exits 1 naming each check that missed its fixture, or when the allowlist
stops passing an allowed symbol or stops failing a stale entry.
"""
import sys
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
    nm = sys.argv[2] if len(sys.argv) > 2 else "nm"
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

    for e in errors:
        print(f"link_audit_fixtures: {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
