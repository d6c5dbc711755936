#!/usr/bin/env python3
"""Fail when a dtnsim library object is linked into no shipped program.

    python3 tests/every_object_linked.py BUILD_DIR [NM]

Runs `nm --defined-only` on each member of BUILD_DIR/src/libdtnsim_*.a and on
every executable in BUILD_DIR/{tools,bench,bench/selfperf,examples}. A member
that defines global functions but shares none of them with any of those
executables is code only the tests reach: the script names each such member
and exits 1. It also exits 1 when it finds no executables, because then every
member would look unlinked for want of a full build.
"""
import os
import subprocess
import sys
from pathlib import Path

PROGRAM_DIRS = ("tools", "bench", "bench/selfperf", "examples")


def nm_lines(nm, path):
    out = subprocess.run([nm, "--defined-only", str(path)], check=True,
                         capture_output=True, text=True).stdout
    return out.splitlines()


def text_symbols(lines):
    """Global function names ('T' entries) in nm output lines."""
    return {f[2] for f in (line.split() for line in lines) if len(f) == 3 and f[1] == "T"}


def is_program(path):
    if not path.is_file() or not os.access(path, os.X_OK):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def main():
    build = Path(sys.argv[1])
    nm = sys.argv[2] if len(sys.argv) > 2 else "nm"
    programs = [p for d in PROGRAM_DIRS for p in sorted((build / d).glob("*")) if is_program(p)]
    archives = sorted((build / "src").glob("libdtnsim_*.a"))
    if not programs or not archives:
        print(f"every_object_linked: found {len(programs)} programs and {len(archives)} "
              f"libraries under {build}; build every target first", file=sys.stderr)
        return 1

    linked = set()
    for program in programs:
        linked |= text_symbols(nm_lines(nm, program))

    unlinked = []
    for archive in archives:
        members = {}  # member name -> its nm lines
        member = None
        for line in nm_lines(nm, archive):
            if line.endswith(":") and " " not in line:
                member = line[:-1]
                members[member] = []
            elif member is not None:
                members[member].append(line)
        for name, lines in members.items():
            funcs = text_symbols(lines)
            if funcs and not funcs & linked:
                unlinked.append(f"{archive.name}({name})")

    for entry in unlinked:
        print(f"unlinked: {entry} defines functions no tool, bench or example uses",
              file=sys.stderr)
    print(f"every_object_linked: {len(programs)} programs, {len(archives)} libraries, "
          f"{len(unlinked)} unlinked objects")
    return 1 if unlinked else 0


if __name__ == "__main__":
    sys.exit(main())
