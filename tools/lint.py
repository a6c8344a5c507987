#!/usr/bin/env python3
"""Single entry point for the repo's source lints (DESIGN.md §13).

Default mode runs every lint over the tree and fails if any of them
does:

    python3 tools/lint.py            # == cmake --build build --target lint

Self-test mode proves the lints themselves work by scanning the seeded
fixtures in tests/lint_fixtures/ and asserting each rule fires exactly
where its ``// expect-lint: <rule>`` marker says — no more, no less —
and that every rule both lints define is exercised by at least one
fixture:

    python3 tools/lint.py --selftest   # wired into ctest (lint_selftest)

The self-test also exercises the blessing machinery against a live
fixture: a synthetic blessing must suppress the violation it names and
register as used, so the allowlist path cannot rot unnoticed.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import lint_determinism  # noqa: E402
import lint_index_safety  # noqa: E402
import lint_settings  # noqa: E402
from lint_common import REPO, Blessing  # noqa: E402

FIXTURES = REPO / "tests" / "lint_fixtures"

MARKER_RE = re.compile(r"//\s*expect-lint:\s*([\w-]+)")

ALL_RULES = {r.slug for r in lint_determinism.RULES} | {
    lint_index_safety.RULE_PARAM,
    lint_index_safety.RULE_UNWRAP,
    lint_settings.RULE,
}


def scan_fixture(
    rel: str, lines: list[str]
) -> set[tuple[int, str]]:
    """Run every lint's pure core over one fixture, blessings off."""
    fired: set[tuple[int, str]] = set()
    used: set[Blessing] = set()
    for v in lint_determinism.lint_lines(rel, lines, [], used):
        fired.add((v.line, v.rule))
    for v in lint_index_safety.lint_lines(rel, lines, blessed=False):
        fired.add((v.line, v.rule))
    for v in lint_settings.lint_fixture(rel, lines):
        fired.add((v.line, v.rule))
    return fired


def settings_selftest() -> list[str]:
    """Tree mode of the settings rule on a synthetic tree: a write
    under tests/ or in the struct's own header does not keep a field;
    a write anywhere else, or a test-only reason, does."""
    header = "src/demo/demo.h"
    struct = [
        "struct DemoConfig",
        "{",
        "    unsigned ways = 8;",
        "};",
    ]
    reasoned = (
        struct[:2]
        + ["    /** test-only: a test reaches one way. */"]
        + struct[2:]
    )
    cases = [
        ("only tests/ write it", struct, {"tests/t.cc": "c.ways = 1;"}, 1),
        ("only its header writes it", struct + ["d.ways = 2;"], {}, 1),
        ("it is only compared", struct, {"src/a.cc": "c.ways == 1"}, 1),
        ("src/ writes it", struct, {"src/a.cc": "c.ways = 1;"}, 0),
        ("bench/ writes through it", struct, {"bench/b.cc": "o.ways = 2;"}, 0),
        ("it has a test-only reason", reasoned, {}, 0),
    ]
    problems = []
    for what, lines, others, want in cases:
        sources = {header: "\n".join(lines), **others}
        got = len(
            lint_settings.lint_struct(
                header,
                lines,
                "DemoConfig",
                lint_settings.writer_texts(sources, header),
            )
        )
        if got != want:
            problems.append(
                f"settings selftest: when {what}, expected {want} "
                f"violation(s), got {got}"
            )
    return problems


def selftest() -> int:
    fixtures = sorted(FIXTURES.glob("*.cc"))
    if not fixtures:
        print(f"lint selftest: no fixtures in {FIXTURES}", file=sys.stderr)
        return 1

    problems: list[str] = []
    covered: set[str] = set()
    for path in fixtures:
        rel = path.relative_to(REPO).as_posix()
        lines = path.read_text(encoding="utf-8").splitlines()
        expected = {
            (lineno, m.group(1))
            for lineno, line in enumerate(lines, start=1)
            for m in MARKER_RE.finditer(line)
        }
        for _, rule in expected:
            if rule not in ALL_RULES:
                problems.append(
                    f"{rel}: marker names unknown rule '{rule}'"
                )
        actual = scan_fixture(rel, lines)
        for lineno, rule in sorted(expected - actual):
            problems.append(
                f"{rel}:{lineno}: rule '{rule}' was expected to fire "
                f"here but did not"
            )
        for lineno, rule in sorted(actual - expected):
            problems.append(
                f"{rel}:{lineno}: rule '{rule}' fired without an "
                f"expect-lint marker"
                + (
                    " (clean counterpart must scan clean)"
                    if path.name.startswith("clean_")
                    else ""
                )
            )
        covered |= {rule for _, rule in expected}

    for rule in sorted(ALL_RULES - covered):
        problems.append(
            f"no fixture exercises rule '{rule}' -- add a "
            f"viol_*.cc under {FIXTURES.relative_to(REPO)}"
        )

    # Blessing machinery: a synthetic blessing for the wall-clock
    # fixture must suppress exactly the violations it names and be
    # counted as used (the stale-blessing detector's input).
    bless_path = FIXTURES / "viol_wall_clock.cc"
    rel = bless_path.relative_to(REPO).as_posix()
    lines = bless_path.read_text(encoding="utf-8").splitlines()
    blessing = Blessing(
        file=rel,
        rule="wall-clock",
        needle="std::chrono::steady_clock",
        justification=(
            "selftest-only: proves a blessing suppresses the "
            "violation it names and registers as used"
        ),
    )
    used: set[Blessing] = set()
    remaining = [
        v
        for v in lint_determinism.lint_lines(rel, lines, [blessing], used)
        if v.rule == "wall-clock"
    ]
    if remaining:
        problems.append(
            f"{rel}: blessing failed to suppress "
            f"{len(remaining)} wall-clock violation(s)"
        )
    if blessing not in used:
        problems.append(
            f"{rel}: blessing was applied but not marked used -- the "
            f"stale-blessing detector would misfire"
        )

    problems.extend(settings_selftest())

    if problems:
        print("\n".join(problems), file=sys.stderr)
        print(
            f"lint selftest: {len(problems)} problem(s)", file=sys.stderr
        )
        return 1
    print(
        f"lint selftest: {len(fixtures)} fixtures, "
        f"{len(ALL_RULES)} rules covered, blessing machinery ok"
    )
    return 0


def main(argv: list[str]) -> int:
    if "--selftest" in argv:
        return selftest()
    status = 0
    status |= lint_index_safety.main()
    status |= lint_determinism.main()
    status |= lint_settings.main()
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
