#!/usr/bin/env python3
"""Linkage check for the per-ISA kernel objects (DESIGN.md §12).

    tools/check_isa_linkage.py [--nm NM] LIBRARY
    tools/check_isa_linkage.py --selftest

kernel_asr_avx2.cpp and kernel_asr_avx512.cpp are compiled with their own
-march and instantiate the templates of kernel_asr_rows.h. A global or weak
symbol in either object is one the linker may merge with another TU's copy
(a COMDAT inline or template instantiation), so code compiled for
x86-64-v4 could end up serving an AVX2-only host. Every symbol they define
must therefore be local, except the two AsrIsaOps entries.

The check runs `nm -A --defined-only` over LIBRARY (the sarbp_bp archive)
and fails when a symbol defined in either kernel object is global
(an uppercase type) or weak or unique (`u`, `v`, `w`), other than
asr_isa_ops_avx2() and asr_isa_ops_avx512() and the compiler's `DW.ref.*`
personality-routine pointers. It also fails when the archive holds neither
object, so a check that reads nothing cannot pass.

Exit status: 0 clean, 1 findings or nothing checked, 2 usage/self-test
failure.
"""

from __future__ import annotations

import argparse
import subprocess
import sys

KERNEL_OBJECTS = ("kernel_asr_avx2.cpp.o", "kernel_asr_avx512.cpp.o")

# The two extern entries, mangled: sarbp::bp::detail::asr_isa_ops_avx2()
# and sarbp::bp::detail::asr_isa_ops_avx512().
ALLOWED = {
    "_ZN5sarbp2bp6detail16asr_isa_ops_avx2Ev",
    "_ZN5sarbp2bp6detail18asr_isa_ops_avx512Ev",
}

# DW.ref.__gxx_personality_v0: the pointer to the C++ personality routine
# that an object with unwind cleanups (a sanitizer build's) refers to from
# its exception tables. The compiler emits it as a weak object in each such
# TU; it is data, the same pointer in every TU, and holds no code.
PERSONALITY_PREFIX = "DW.ref."


def exported(kind: str) -> bool:
    """True for an nm symbol type another object can bind to."""
    return kind.isupper() or kind in "uvw"


def check(nm_lines: list[str]) -> tuple[list[str], int]:
    """The offending lines among `nm -A --defined-only` output, and the
    number of symbols read from the kernel objects."""
    findings: list[str] = []
    seen = 0
    for line in nm_lines:
        # archive:member:value type name
        where, _, rest = line.rpartition(":")
        member = where.rpartition(":")[2]
        fields = rest.split(maxsplit=2)
        if member not in KERNEL_OBJECTS or len(fields) != 3:
            continue
        seen += 1
        _value, kind, name = fields
        if (exported(kind) and name not in ALLOWED
                and not name.startswith(PERSONALITY_PREFIX)):
            findings.append(line)
    return findings, seen


def run(nm: str, library: str) -> int:
    out = subprocess.run([nm, "-A", "--defined-only", library],
                         capture_output=True, text=True, check=True).stdout
    findings, seen = check(out.splitlines())
    for line in findings:
        print(f"exported symbol in a per-ISA kernel object: {line}")
    if seen == 0:
        print(f"no symbols of {', '.join(KERNEL_OBJECTS)} in {library}")
        return 1
    if findings:
        print("every symbol of the per-ISA kernel objects must be local "
              "(anonymous namespace, templates over TU-local traits) "
              "except the two AsrIsaOps entries")
        return 1
    print(f"check_isa_linkage: {seen} kernel symbols, only the entries "
          "exported")
    return 0


SELFTEST_CASES = [
    # (nm lines, expected finding count, expected symbols read)
    (["lib.a:kernel_asr_avx2.cpp.o:0000000000000000 t _ZN5sarbp2bp6detail9"
      "rows_implINS1_12_GLOBAL__N_14Avx2E...",
      "lib.a:kernel_asr_avx2.cpp.o:0000000000000000 r .LC0",
      "lib.a:kernel_asr_avx2.cpp.o:0000000000000000 d _ZZN5sarbp2bp6detail"
      "16asr_isa_ops_avx2EvE3ops",
      "lib.a:kernel_asr_avx2.cpp.o:0000000000000010 T _ZN5sarbp2bp6detail"
      "16asr_isa_ops_avx2Ev"], 0, 4),
    # A weak (COMDAT) definition leaked from a shared inline helper.
    (["lib.a:kernel_asr_avx512.cpp.o:0000000000000000 W _ZN5sarbp2bp6detail"
      "11complex_stepEv",
      "lib.a:kernel_asr_avx512.cpp.o:0000000000000040 T _ZN5sarbp2bp6detail"
      "18asr_isa_ops_avx512Ev"], 1, 2),
    # A global function and a unique global object.
    (["lib.a:kernel_asr_avx2.cpp.o:0000000000000000 T _ZN5sarbp2bp6detail"
      "13rows_aos_avx2Ev",
      "lib.a:kernel_asr_avx2.cpp.o:0000000000000000 u _ZZN5sarbp2bp6detail"
      "4leakEvE1v"], 2, 2),
    # The personality pointer of an object with unwind cleanups.
    (["lib.a:kernel_asr_avx2.cpp.o:0000000000000000 V "
      "DW.ref.__gxx_personality_v0",
      "lib.a:kernel_asr_avx2.cpp.o:0000000000000010 T _ZN5sarbp2bp6detail"
      "16asr_isa_ops_avx2Ev"], 0, 2),
    # Other objects of the archive are not checked.
    (["lib.a:asr_sweep.cpp.o:0000000000000000 W _ZN5sarbp2bp6detail3fooEv",
      "lib.a:asr_sweep.cpp.o:0000000000000000 T _ZN5sarbp2bp3barEv"], 0, 0),
]


def selftest() -> int:
    failures = 0
    for idx, (lines, want, want_seen) in enumerate(SELFTEST_CASES):
        findings, seen = check(lines)
        if len(findings) != want or seen != want_seen:
            failures += 1
            print(f"selftest case {idx}: expected {want} finding(s) of "
                  f"{want_seen} symbols, got {len(findings)} of {seen}",
                  file=sys.stderr)
    if failures:
        print(f"check_isa_linkage selftest: {failures} failure(s)",
              file=sys.stderr)
        return 2
    print(f"check_isa_linkage selftest: {len(SELFTEST_CASES)} cases ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("library", nargs="?",
                        help="the sarbp_bp static library")
    parser.add_argument("--nm", default="nm", help="nm binary (default: nm)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the embedded fixtures and exit")
    ns = parser.parse_args()
    if ns.selftest:
        return selftest()
    if ns.library is None:
        parser.error("LIBRARY is required")
    return run(ns.nm, ns.library)


if __name__ == "__main__":
    sys.exit(main())
