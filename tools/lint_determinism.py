#!/usr/bin/env python3
"""Determinism lint: no nondeterminism source may reach seeded code
(DESIGN.md §13).

Every result this repo produces is contractually bit-identical for any
thread count and any checkpoint cut: Monte Carlo failure probabilities,
soak fingerprints, fleet campaign audits. That only holds while every
random draw is counter-derived (src/common/rng.h), every "time" is a
virtual tick, and every container that feeds stats, fingerprints,
serialization, or event ordering iterates in a deterministic order.
This lint scans src/ and bench/ for the escape hatches:

  random-device        std::random_device (entropy: different every run)
  libc-rand            rand()/srand() (hidden global state)
  libc-time            time()/clock()/gettimeofday/clock_gettime
  wall-clock           std::chrono system/steady/high_resolution clock
  locale-date          localtime/gmtime/strftime/ctime/put_time & co.
  std-random           <random> engines/distributions (seeding and
                       stream discipline live in common/rng.h only)
  pointer-keyed        containers keyed by, or hashing, raw pointers
                       (iteration order = allocator behavior)
  unordered-container  std::unordered_map/set (hash iteration order is
                       implementation-defined; the repo uses ordered or
                       flat containers wherever results can flow)
  env-read             getenv outside the knob table's accessors
                       (src/common/knobs.cc): every run-time input is a
                       declared, range-checked row of common/knobs.h

Legitimate uses are *blessed* per (file, rule, needle) with a mandatory
human-readable justification -- see BLESSINGS. A blessing that stops
matching is itself an error (stale allowlist entries are holes).

Exit status: 0 clean, 1 violations found.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from lint_common import (  # noqa: E402
    COMMENT_RE,
    REPO,
    Blessing,
    Violation,
    finish,
    scan_tree,
    strip_string_literals,
    unused_blessings,
    validate_blessings,
)

NAME = "lint_determinism"

SCAN_ROOTS = (REPO / "src", REPO / "bench")


class Rule:
    def __init__(self, slug: str, pattern: str, message: str):
        self.slug = slug
        self.re = re.compile(pattern)
        self.message = message


RULES = [
    Rule(
        "random-device",
        r"random_device",
        "std::random_device is fresh entropy every run -- derive seeds "
        "from the campaign seed via common/rng.h (mix64 of a counter)",
    ),
    Rule(
        "libc-rand",
        r"(?<![\w.:])(?:std::)?s?rand\s*\(",
        "rand()/srand() is hidden global state shared across threads -- "
        "use a counter-derived citadel::Rng stream instead",
    ),
    Rule(
        "libc-time",
        r"(?<![\w.:])(?:std::)?time\s*\(|(?<![\w.:])clock\s*\(\s*\)"
        r"|(?<![\w.:])gettimeofday\s*\(|(?<![\w.:])clock_gettime\s*\(",
        "wall-clock/CPU-clock read -- simulated layers take virtual "
        "ticks; only measurement benches may read real time, under a "
        "blessing",
    ),
    Rule(
        "wall-clock",
        r"std::chrono::(?:system|steady|high_resolution)_clock",
        "std::chrono clock read -- a different value every run; "
        "simulated time is a tick counter, and throughput measurement "
        "needs an explicit blessing",
    ),
    Rule(
        "locale-date",
        r"(?<![\w.:])(?:std::)?(?:localtime|gmtime|strftime|asctime"
        r"|ctime|mktime|put_time|get_time)\s*\(",
        "locale/timezone-dependent date call -- output would differ by "
        "host environment; format integers from virtual time instead",
    ),
    Rule(
        "std-random",
        r"std::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine"
        r"|ranlux\d+\w*|knuth_b|mersenne_twister_engine"
        r"|linear_congruential_engine|subtract_with_carry_engine"
        r"|(?:uniform_int|uniform_real|normal|bernoulli|poisson"
        r"|exponential|geometric|binomial|discrete)_distribution)\b"
        r"|#\s*include\s*<random>",
        "<random> engine/distribution outside common/rng.h -- all "
        "randomness must be counter-derived xoshiro streams so trial t "
        "draws identically on any worker",
    ),
    Rule(
        "pointer-keyed",
        r"std::(?:unordered_)?(?:map|set|multimap|multiset)<\s*"
        r"(?:const\s+)?[\w:]+(?:\s+const)?\s*\*"
        r"|std::hash<\s*(?:const\s+)?[\w:]+(?:\s+const)?\s*\*",
        "pointer-keyed/pointer-hashed container -- iteration order "
        "tracks allocator addresses, which differ every run; key by a "
        "stable index or id instead",
    ),
    Rule(
        "unordered-container",
        r"std::unordered_(?:map|set|multimap|multiset)\b",
        "hash-container iteration order is implementation-defined and "
        "must not reach stats, fingerprints, serialization, or event "
        "ordering -- use std::map/flat vector, or bless with proof the "
        "order cannot escape",
    ),
    Rule(
        "env-read",
        r"(?<![\w.])(?:std::|::)?(?:secure_)?getenv\s*\(",
        "environment read outside the knob table -- declare the knob "
        "as a row of common/knobs.h and read it with knobU64/"
        "knobDouble/knobChoice/knobText",
    ),
]

# ---------------------------------------------------------------------
# Allowlist. One entry blesses lines in `file` that trip `rule` AND
# contain `needle`. Keep justifications specific: they are the audit
# trail a reviewer checks instead of re-deriving the data flow.
BLESSINGS = [
    Blessing(
        file="src/common/knobs.cc",
        rule="env-read",
        needle="std::getenv(s.name)",
        justification=(
            "the knob table's single environment read: every accessor "
            "goes through rawText(), which parses the value against its "
            "declared kKnobs row"
        ),
    ),
    Blessing(
        file="bench/fleet_load_driver.cc",
        rule="wall-clock",
        needle="std::chrono::steady_clock",
        justification=(
            "timedCampaign() is the fleet bench's Kops/s "
            "timing wrapper: steady_clock readings feed only wall-"
            "seconds/throughput report fields, never a seeded result "
            "-- campaign equivalence is asserted separately on integer "
            "fingerprints across the {1, 4 threads} grid"
        ),
    ),
]


def lint_lines(
    rel: str,
    lines: list[str],
    blessings: list[Blessing],
    used: set[Blessing],
) -> list[Violation]:
    """Pure scanning core, shared by the CLI and the self-test."""
    violations: list[Violation] = []
    for lineno, line in enumerate(lines, start=1):
        if COMMENT_RE.match(line):
            continue
        code = strip_string_literals(line)
        for rule in RULES:
            if not rule.re.search(code):
                continue
            blessing = next(
                (
                    b
                    for b in blessings
                    if b.file == rel
                    and b.rule == rule.slug
                    and b.needle in line
                ),
                None,
            )
            if blessing is not None:
                used.add(blessing)
                continue
            violations.append(
                Violation(rel, lineno, rule.slug, rule.message)
            )
    return violations


def lint_file_with(
    path: Path, blessings: list[Blessing], used: set[Blessing]
) -> list[Violation]:
    rel = path.relative_to(REPO).as_posix()
    lines = path.read_text(encoding="utf-8").splitlines()
    return lint_lines(rel, lines, blessings, used)


def main() -> int:
    errors = validate_blessings(NAME, BLESSINGS)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 1

    used: set[Blessing] = set()
    violations = scan_tree(
        SCAN_ROOTS, lambda p: lint_file_with(p, BLESSINGS, used)
    )
    rendered = [v.render() for v in violations]
    rendered.extend(unused_blessings(NAME, BLESSINGS, used))
    return finish(NAME, rendered)


if __name__ == "__main__":
    sys.exit(main())
