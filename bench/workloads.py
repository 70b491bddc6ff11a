"""Workload plans: the CLI invocations each workload runs, generated from a seed.

A plan is a list of Invocations. The program sees only each invocation's
argv; the parameters beside it are what the output checks derive their
expected counts from. Artifact paths are relative to the work directory the
worker runs in, so stdout ("wrote <path>") and the pinned digests do not
depend on where the checkout lives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Sizes keep one pass between about 1 and 3 s, so a run holds a dozen or more
# passes and their median is steady.
DIMENSION_DEPTH = 7
OVERLAY_DEPTH = 9
ZERO_PATTERN_DEPTH = 9
TABLE_DIGITS = 6
MELODY_DEPTH = 11
# the carry values a base-3, 6-digit table can hold with exactly one carry:
# v = 3**(j+1) for carry position j; every one selects 6**5 * 3 cells
VALUE_CHOICES = tuple(3 ** (j + 1) for j in range(TABLE_DIGITS))
SCALE_CHOICES = ("chromatic", "major", "minor", "pentatonic")
BASE_PITCH_CHOICES = (36, 48, 60, 72)


@dataclass(frozen=True)
class Invocation:
    """One CLI call and what its output checks need to know about it."""

    kind: str
    argv: tuple[str, ...]
    params: dict
    outputs: tuple[str, ...]

    @property
    def key(self) -> str:
        """Stable name of the call, used to look up its pinned digests."""
        return " ".join(self.argv)


def _argv(*parts) -> tuple[str, ...]:
    return tuple(str(p) for p in parts)


def dimension_estimate(base: int, depth: int) -> Invocation:
    report = "dimension.csv"
    return Invocation(
        "dimension",
        _argv("dimension", "--base", base, "--estimate", "--depth", depth, "--report", report),
        {"base": base, "depth": depth},
        (report,),
    )


def overlay(small: int, depth: int) -> Invocation:
    report, csv = "overlay.txt", "overlay.csv"
    return Invocation(
        "overlay",
        _argv("overlay", "--small", small, "--depth", depth, "--report", report, "--csv", csv),
        {"small": small, "depth": depth},
        (report, csv),
    )


def zero_pattern(base: int, depth: int, zoom: int) -> Invocation:
    pbm, cells = "zero.pbm", "zero.csv"
    return Invocation(
        "zero_pattern",
        _argv("fractal", "--base", base, "--depth", depth, "--zoom", zoom,
              "--pbm", pbm, "--cells", cells),
        {"base": base, "depth": depth, "zoom": zoom},
        (pbm, cells),
    )


def dense_table(base: int, digits: int) -> Invocation:
    csv, pgm = "table.csv", "table.pgm"
    return Invocation(
        "dense_table",
        _argv("table", "--base", base, "--digits", digits, "--csv", csv, "--pgm", pgm),
        {"base": base, "digits": digits},
        (csv, pgm),
    )


def value_pattern(base: int, depth: int, value: int) -> Invocation:
    pbm = f"value-{value}.pbm"
    return Invocation(
        "value_pattern",
        _argv("fractal", "--base", base, "--depth", depth, "--value", value, "--pbm", pbm),
        {"base": base, "depth": depth, "value": value},
        (pbm,),
    )


def melody(base: int, depth: int, scale: str, base_pitch: int) -> Invocation:
    midi, csv = "music.mid", "music.csv"
    return Invocation(
        "melody",
        _argv("music", "--base", base, "--depth", depth, "--scale", scale,
              "--base-pitch", base_pitch, "--midi", midi, "--csv", csv, "--spectrum"),
        {"base": base, "depth": depth, "scale": scale, "base_pitch": base_pitch},
        (midi, csv),
    )


def dimension_plan(seed: int) -> list[Invocation]:
    # deterministic: the seed is recorded but picks nothing
    return [dimension_estimate(3, DIMENSION_DEPTH), overlay(3, OVERLAY_DEPTH)]


def render_plan(seed: int) -> list[Invocation]:
    rng = random.Random(seed)
    first, second = rng.sample(VALUE_CHOICES, 2)
    return [
        zero_pattern(2, ZERO_PATTERN_DEPTH, 2),
        dense_table(3, TABLE_DIGITS),
        value_pattern(3, TABLE_DIGITS, first),
        value_pattern(3, TABLE_DIGITS, second),
    ]


def music_plan(seed: int) -> list[Invocation]:
    rng = random.Random(seed)
    return [melody(2, MELODY_DEPTH, rng.choice(SCALE_CHOICES), rng.choice(BASE_PITCH_CHOICES))]


WORKLOADS = {
    "dimension": dimension_plan,
    "render": render_plan,
    "music": music_plan,
}


def plan(workload: str, seed: int) -> list[Invocation]:
    return WORKLOADS[workload](seed)
