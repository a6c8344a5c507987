#!/usr/bin/env python3
"""Settings lint: every field of a config struct earns its place
(DESIGN.md §13, "Settings").

The rule: a config field stays settable only when a caller outside
tests/ sets it. A field only tests set may stay when a test can reach
its scenario through that field alone, and then its doc comment says
so with a ``test-only:`` reason. Anything else is a constant in the
one file that reads it.

  unset-setting  a data member of a listed config struct that nothing
                 outside tests/ and its own header writes
                 (``.name =``, ``->name =``, or ``.name.sub =`` for a
                 nested struct), and whose doc comment carries no
                 ``test-only:`` reason

Writes are matched by field name, not by type: a same-named field of
another struct written elsewhere also counts as a writer.

Exit status: 0 clean, 1 violations found.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path
from typing import Iterable

sys.path.insert(0, str(Path(__file__).resolve().parent))

from lint_common import (  # noqa: E402
    COMMENT_RE,
    REPO,
    Violation,
    finish,
    iter_source_files,
    strip_string_literals,
)

NAME = "lint_settings"

RULE = "unset-setting"

# (header, struct) pairs the rule covers.
CONFIG_STRUCTS = (
    ("src/sim/dram_timing.h", "SimConfig"),
    ("src/faults/injector.h", "SystemConfig"),
    ("src/citadel/citadel.h", "CitadelOptions"),
    ("src/ras/degradation.h", "DegradationOptions"),
    ("src/ras/live_datapath.h", "LiveRasOptions"),
    ("src/fleet/retry.h", "RetryPolicy"),
    ("src/fleet/coordinator.h", "CoordinatorOptions"),
    ("src/fleet/chaos.h", "ChaosOptions"),
    ("src/fleet/stack_server.h", "ServerConfig"),
    ("src/fleet/fleet_sim.h", "FleetConfig"),
)

# Where writers are looked for; any path with a tests/ component is
# skipped, so a field only tests set has no writer.
WRITER_ROOTS = (
    REPO / "src",
    REPO / "bench",
    REPO / "examples",
    REPO / "perfbench",
)

REASON = "test-only:"

STRUCT_RE = re.compile(r"^\s*struct\s+(\w+)\s*$")
# Self-test fixtures have no struct list: these names count as config.
FIXTURE_CONFIG_RE = re.compile(r"(?:Config|Options|Policy)$")
# `Type name = init;`, `Type name{init};` or `Type name;`; a name
# followed by `(` is a function and never matches.
MEMBER_RE = re.compile(
    r"^\s*(?!return\b|using\b|static\b|friend\b)"
    r"[\w:<>,\s*&]+?[\s*&](\w+)\s*(?:=[^;]*|\{[^;]*\})?;"
)


def struct_members(
    lines: list[str], struct: str
) -> list[tuple[int, str, str]]:
    """(line number, field name, doc comment) for each data member
    declared directly in `struct`'s body."""
    members: list[tuple[int, str, str]] = []
    start = next(
        (
            i
            for i, line in enumerate(lines)
            if (m := STRUCT_RE.match(line)) and m.group(1) == struct
        ),
        None,
    )
    if start is None:
        return members
    depth = 0
    doc: list[str] = []
    for i in range(start + 1, len(lines)):
        line = lines[i]
        code = strip_string_literals(line.split("//")[0])
        if depth == 1 and COMMENT_RE.match(line):
            doc.append(line)
            continue
        if depth == 1 and (m := MEMBER_RE.match(code)):
            members.append((i + 1, m.group(1), "\n".join(doc + [line])))
        doc = []
        depth += code.count("{") - code.count("}")
        if depth <= 0:
            break
    return members


def writes(field: str, texts: Iterable[str]) -> bool:
    # `.field =`, or a write through it: `.field.sub =`.
    pattern = re.compile(
        r"(?:\.|->)" + re.escape(field) + r"(?:\.\w+)*\s*=(?!=)"
    )
    return any(pattern.search(t) for t in texts)


def lint_struct(
    rel: str, lines: list[str], struct: str, writer_texts: list[str]
) -> list[Violation]:
    """The rule's pure core: members of `struct` (declared in `lines`)
    that no writer text sets and no test-only reason keeps."""
    return [
        Violation(
            rel,
            lineno,
            RULE,
            f"{struct}::{field} is set by nothing outside tests/ -- "
            f"make it a constant in the file that reads it, or give "
            f"its doc comment a '{REASON}' reason",
        )
        for lineno, field, doc in struct_members(lines, struct)
        if REASON not in doc and not writes(field, writer_texts)
    ]


def writer_texts(sources: dict[str, str], header: str) -> list[str]:
    """The texts whose writes keep a field of a struct declared in
    `header`: every source but the header itself and anything under a
    tests/ directory."""
    return [
        text
        for rel, text in sources.items()
        if rel != header and "tests" not in rel.split("/")
    ]


def lint_fixture(rel: str, lines: list[str]) -> list[Violation]:
    """Self-test mode: every *Config/*Options/*Policy struct in one
    file, with the file's lines outside that struct as its writers."""
    violations: list[Violation] = []
    for m in filter(None, map(STRUCT_RE.match, lines)):
        struct = m.group(1)
        if not FIXTURE_CONFIG_RE.search(struct):
            continue
        body = {lineno for lineno, _, _ in struct_members(lines, struct)}
        outside = [
            line
            for lineno, line in enumerate(lines, start=1)
            if lineno not in body
        ]
        violations.extend(lint_struct(rel, lines, struct, outside))
    return violations


def main() -> int:
    sources = {
        path.relative_to(REPO).as_posix(): path.read_text(encoding="utf-8")
        for path in iter_source_files(WRITER_ROOTS)
    }
    violations: list[Violation] = []
    for header, struct in CONFIG_STRUCTS:
        if header not in sources:
            violations.append(
                Violation(header, 1, RULE, "listed header is missing")
            )
            continue
        lines = sources[header].splitlines()
        if not struct_members(lines, struct):
            violations.append(
                Violation(
                    header, 1, RULE, f"struct {struct} not found (stale?)"
                )
            )
            continue
        violations.extend(
            lint_struct(
                header, lines, struct, writer_texts(sources, header)
            )
        )
    return finish(NAME, [v.render() for v in violations])


if __name__ == "__main__":
    sys.exit(main())
