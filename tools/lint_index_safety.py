#!/usr/bin/env python3
"""Index-safety lint for the typed address domain (DESIGN.md section 8).

The strong-id migration is only as good as its edges: a new function
that takes `u32 bank` re-opens the door to transposed-coordinate bugs,
and an unwrap (`.value()` / `.idx()`) sprinkled in policy code silently
drops back into raw-integer arithmetic. This lint keeps both confined.

Rule `raw-coordinate-param`: in `src/`, a function parameter of raw
integer type whose name starts with a coordinate word (stack, channel,
die, bank, row, col, unit, lane) is an error outside the blessed
mapper/mechanism files. New APIs must take typed ids. Locals (detected
by an initializer) and lambda parameters are exempt: tight loops
legitimately iterate raw integers and wrap at the boundary.

Rule `unwrap-outside-blessed`: `.value()` / `.idx()` calls on ids may
appear only in the blessed files -- the places that translate between
coordinate spaces and raw storage offsets by design. Everything else
must stay in the typed domain end to end.

Tests, benches, examples and tools are out of scope: tests in
particular legitimately compare typed values against raw geometry
bounds.

Shared infrastructure (comment skipping, exit protocol, self-test
hooks) lives in tools/lint_common.py; tools/lint.py runs this lint
together with the determinism lint.

Exit status: 0 clean, 1 violations found. Run from the repo root (or
let tools/ paths resolve relative to this file).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from lint_common import (  # noqa: E402
    COMMENT_RE,
    REPO,
    Violation,
    finish,
    scan_tree,
)

NAME = "lint_index_safety"

SCAN_ROOTS = (REPO / "src",)

# Files that are *supposed* to cross between coordinate spaces and raw
# integers: the address/geometry mappers, the bit-true mechanism
# models, and the storage-facing simulator internals. Keep this list
# short and deliberate -- growing it is a design decision, not a fix.
BLESSED = {
    "src/common/strong_id.h",
    "src/stack/address.cc",
    "src/stack/geometry.cc",
    "src/stack/tsv.cc",
    "src/faults/fault.cc",
    "src/faults/injector.cc",
    "src/citadel/parity_engine.cc",
    "src/citadel/remap_tables.cc",
    "src/citadel/tsv_swap.cc",
    "src/citadel/dds.cc",
    "src/sim/memory_system.cc",
    "src/sim/llc.cc",
    "src/sim/llc_match.h",
    "src/sim/workload.cc",
    "src/ras/live_datapath.cc",
    # Retirement/degradation/metadata records pack typed coordinates
    # into raw map keys and serialized bytes -- the same
    # storage-facing translation the remap tables do.
    "src/sim/retirement.cc",
    "src/ras/degradation.cc",
    "src/ras/meta_protect.cc",
    # Run-compressed line-address intervals: interval arithmetic on
    # LineAddr is inherently raw.
    "src/ras/poison_set.h",
    # The checkpoint codec writes a StrongId as its raw value and wraps
    # it back on load: the one place every saved id crosses to bytes.
    "src/common/serialize.h",
}

RAW_TYPES = r"(?:u8|u16|u32|u64|i32|i64|int|unsigned|std::size_t|size_t)"
COORD_WORDS = r"(?:stack|channel|die|bank|row|col|unit|lane)"

# `u32 bank,` / `u64 row)` -- a raw-typed parameter named after a
# coordinate space. Requires the delimiter so `u32 bankBits()` (a
# function name) and `u32 row = ...` (a local) do not match.
PARAM_RE = re.compile(
    rf"\b{RAW_TYPES}\s+&?({COORD_WORDS}\w*)\s*[,)]"
)

UNWRAP_RE = re.compile(r"\.(?:value|idx)\(\)")

# Quantities named after a space are counts, not coordinates: `u64
# rows` (how many) is fine where `u32 row` (which one) is not.
COUNT_NAME_RE = re.compile(r"(?:s|_threshold|_count|_bits|_bytes)$")

RULE_PARAM = "raw-coordinate-param"
RULE_UNWRAP = "unwrap-outside-blessed"


def is_lambda_context(line: str, pos: int) -> bool:
    """True when the match at `pos` sits inside a lambda's parameter
    list -- i.e. a capture-intro `](` appears earlier on the line."""
    return bool(re.search(r"\]\s*\(", line[:pos]))


def lint_lines(
    rel: str, lines: list[str], blessed: bool
) -> list[Violation]:
    """Pure scanning core, shared by the CLI and the self-test."""
    if blessed:
        return []
    violations: list[Violation] = []
    for lineno, line in enumerate(lines, start=1):
        if COMMENT_RE.match(line):
            continue
        for m in PARAM_RE.finditer(line):
            if is_lambda_context(line, m.start()):
                continue
            if COUNT_NAME_RE.search(m.group(1)):
                continue
            violations.append(
                Violation(
                    rel,
                    lineno,
                    RULE_PARAM,
                    f"raw integer coordinate parameter "
                    f"'{m.group(1)}' -- take a typed id "
                    f"(common/strong_id.h) or bless this file in "
                    f"tools/lint_index_safety.py",
                )
            )
        if UNWRAP_RE.search(line):
            violations.append(
                Violation(
                    rel,
                    lineno,
                    RULE_UNWRAP,
                    "id unwrap (.value()/.idx()) outside the blessed "
                    "mapper files -- stay in the typed domain or move "
                    "the conversion into a blessed file",
                )
            )
    return violations


def lint_file(path: Path) -> list[Violation]:
    rel = path.relative_to(REPO).as_posix()
    lines = path.read_text(encoding="utf-8").splitlines()
    return lint_lines(rel, lines, rel in BLESSED)


def main() -> int:
    missing = [f for f in sorted(BLESSED) if not (REPO / f).is_file()]
    if missing:
        print(f"{NAME}: stale blessed entries:", file=sys.stderr)
        for f in missing:
            print(f"  {f}", file=sys.stderr)
        return 1

    violations = scan_tree(SCAN_ROOTS, lint_file)
    return finish(NAME, [v.render() for v in violations])


if __name__ == "__main__":
    sys.exit(main())
