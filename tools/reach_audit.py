#!/usr/bin/env python3
"""List the cumf:: functions that no shipped binary reaches.

Usage: reach_audit.py BUILD_DIR [EXTRA_BINARY...]

Compares the exported functions (nm types T and W) of the libraries
BUILD_DIR/src/*.a with the functions linked into every executable under
BUILD_DIR/tools, BUILD_DIR/bench and BUILD_DIR/examples, plus each
EXTRA_BINARY. Each library function in namespace cumf that no binary
contains is printed, grouped by the object file that defines it. Exits 0
whatever it finds; the count is on the last line.

The comparison means "reached" only in a build that neither inlines nor
keeps dead code. Configure one like this (tsclient, trainserve_bench's
client, is a shipped binary too; it is built from trainserve_bench/ with
the same flags and passed as an extra binary):

  FLAGS='-DCMAKE_BUILD_TYPE=Debug
         -DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections
         -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections'
  cmake -B build-gc -S . $FLAGS && cmake --build build-gc
  cmake -B build-gc-ts -S trainserve_bench $FLAGS
  cmake --build build-gc-ts --target tsclient
  tools/reach_audit.py build-gc build-gc-ts/tsclient

At -O0 nothing is inlined, so every call a binary makes stays a call, and
--gc-sections drops each function section no main() can reach. A function
this script reports is therefore dead code, a test-only helper, or a
test seam.
"""

import pathlib
import re
import subprocess
import sys

SHIPPED_DIRS = ("tools", "bench", "examples")
FUNCTION_TYPES = {"T", "W"}
# Operator names whose angle brackets would unbalance the template scan.
ANGLE_OPERATORS = re.compile(r"operator(<=>|<<=|>>=|<<|>>|<=|>=|->\*|->|<|>)")


def nm_symbols(path):
    """Yields (member, type, demangled name) for each defined symbol."""
    out = subprocess.run(["nm", "-C", "--defined-only", str(path)],
                         capture_output=True, text=True, check=True).stdout
    member = path.name
    for line in out.splitlines():
        if not line:
            continue
        if line.endswith(":") and not line.startswith(" "):
            member = line[:-1]
            continue
        parts = line.split(" ", 2)
        if len(parts) == 3:
            yield member, parts[1], parts[2]


def qualified_name(symbol):
    """The function's qualified name: nm -C prints a function template
    instantiation with its return type first."""
    scan = ANGLE_OPERATORS.sub(lambda m: "operator" + "@" * len(m.group(1)),
                               symbol)
    depth, start = 0, 0
    for i, c in enumerate(scan):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif depth == 0 and c == "(":
            break
        elif depth == 0 and c == " ":
            start = i + 1
    return symbol[start:]


def is_elf_executable(path):
    if not path.is_file() or not path.stat().st_mode & 0o111:
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    build = pathlib.Path(argv[1])
    archives = sorted((build / "src").glob("*.a"))
    binaries = [p for d in SHIPPED_DIRS for p in sorted((build / d).glob("*"))
                if is_elf_executable(p)]
    binaries += [pathlib.Path(p) for p in argv[2:]]
    if not archives or not binaries:
        print(f"reach_audit: no libraries or binaries under {build}",
              file=sys.stderr)
        return 2

    reached = set()
    for binary in binaries:
        reached.update(name for _, _, name in nm_symbols(binary))

    unreached = {}  # symbol -> first object file defining it
    for archive in archives:
        for member, kind, name in nm_symbols(archive):
            if (kind in FUNCTION_TYPES and name not in reached
                    and qualified_name(name).startswith("cumf::")):
                unreached.setdefault(name, f"{archive.name}({member})")

    by_object = {}
    for name, obj in unreached.items():
        by_object.setdefault(obj, []).append(name)
    for obj in sorted(by_object):
        print(obj)
        for name in sorted(by_object[obj]):
            print(f"  {name}")
    print(f"{len(unreached)} unreached cumf:: functions in {len(by_object)} "
          f"object files ({len(binaries)} binaries, {len(archives)} libraries)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
