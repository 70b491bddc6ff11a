"""Output checks: every exit code, stdout and artifact against independent expectations.

Nothing here calls the cvtfractals package. Expected counts come from the
count laws; expected pixels, table values and notes come from the digit-wise
definition of the carry value, recomputed with numpy over the whole grid.
Each check is one operation of the benchmark: a check that fails, or that
cannot run because an artifact is missing or malformed, is one failure.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

DIGESTS_PATH = Path(__file__).with_name("digests.json")

# independent copy of the scale intervals the CLI offers
SCALES = {
    "major": (0, 2, 4, 5, 7, 9, 11),
    "minor": (0, 2, 3, 5, 7, 8, 10),
    "pentatonic": (0, 2, 4, 7, 9),
    "chromatic": tuple(range(12)),
}
TICKS_PER_CELL = 120
VELOCITY = 100
DIVISION = 480
MICROS_PER_QUARTER = 500_000  # 120 bpm


class CheckFailed(Exception):
    """An output differs from what the invocation should have produced."""


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def load_digests() -> dict[str, dict[str, str]]:
    return json.loads(DIGESTS_PATH.read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- oracles ---------------------------------------------------------------


def _digits(extent: int, base: int, count: int) -> list[np.ndarray]:
    q = np.arange(extent, dtype=np.int64)
    out = []
    for _ in range(count):
        out.append(q % base)
        q = q // base
    return out


# the oracles are pure and each pass asks for the same grids again, so they are cached;
# callers must not modify the arrays they return
@functools.lru_cache(maxsize=4)
def carry_values(base: int, digits: int) -> np.ndarray:
    """cvt(a, b) for all a, b < base**digits, as a + b minus the carry-free digit sum."""
    extent = base**digits
    a = np.arange(extent, dtype=np.int64)
    residue = np.zeros((extent, extent), dtype=np.int64)
    place = 1
    for d in _digits(extent, base, digits):
        residue += ((d[:, None] + d[None, :]) % base) * place
        place *= base
    return a[:, None] + a[None, :] - residue


@functools.lru_cache(maxsize=4)
def zero_carry_mask(base: int, depth: int) -> np.ndarray:
    """Cells whose digit pairs all sum below the base, without an int64 grid."""
    extent = base**depth
    mask = np.ones((extent, extent), dtype=bool)
    for d in _digits(extent, base, depth):
        d = d.astype(np.int32)
        mask &= (d[:, None] + d[None, :]) < base
    return mask


def pattern_count(base: int, depth: int, value: int) -> int:
    """Count law: (n(n+1)/2)^(k-p) * (n(n-1)/2)^p, p the 1-digits of v/n; else 0."""
    if value % base:
        return 0
    digits = [(value // base) // base**j % base for j in range(depth)]
    if any(d > 1 for d in digits) or (value // base) >= base**depth:
        return 0
    p = sum(digits)
    return (base * (base + 1) // 2) ** (depth - p) * (base * (base - 1) // 2) ** p


def ols_fit(x: list[float], y: list[float]) -> tuple[float, float]:
    """Least-squares slope and coefficient of determination."""
    xm, ym = sum(x) / len(x), sum(y) / len(y)
    sxx = sum((a - xm) ** 2 for a in x)
    sxy = sum((a - xm) * (b - ym) for a, b in zip(x, y))
    slope = sxy / sxx
    ss_tot = sum((b - ym) ** 2 for b in y)
    ss_res = sum((b - ym - slope * (a - xm)) ** 2 for a, b in zip(x, y))
    return slope, 1.0 - ss_res / ss_tot


# --- artifact readers ----------------------------------------------------------


def read_pbm(path: Path) -> np.ndarray:
    """Pixels of an ASCII P1 file laid out as the CLI writes it: 0/1 with one separator each."""
    data = path.read_bytes()
    magic, size, body = data.split(b"\n", 2)
    expect(magic == b"P1", f"{path.name}: magic {magic!r}")
    width, height = (int(v) for v in size.split())
    expect(len(body) == 2 * width * height, f"{path.name}: body of {len(body)} bytes")
    grid = np.frombuffer(body, dtype=np.uint8).reshape(height, 2 * width)
    expect((grid[:, 1:-1:2] == ord(" ")).all(), f"{path.name}: bad pixel separator")
    expect((grid[:, -1] == ord("\n")).all(), f"{path.name}: bad row terminator")
    pixels = grid[:, 0::2].astype(np.int64) - ord("0")
    expect(((pixels == 0) | (pixels == 1)).all(), f"{path.name}: pixel not 0 or 1")
    return pixels


def read_pgm(path: Path) -> tuple[int, np.ndarray]:
    data = path.read_bytes()
    magic, size, maxval, body = data.split(b"\n", 3)
    expect(magic == b"P2", f"{path.name}: magic {magic!r}")
    width, height = (int(v) for v in size.split())
    expect(body.count(b"\n") == height, f"{path.name}: row count")
    pixels = np.loadtxt(io.BytesIO(body), dtype=np.int64, ndmin=2)
    expect(pixels.shape == (height, width), f"{path.name}: {pixels.shape} pixels")
    return int(maxval), pixels


def read_csv_ints(path: Path, header: str | None, columns: int) -> np.ndarray:
    text = path.read_bytes()
    if header is not None:
        first, text = text.split(b"\n", 1)
        expect(first.decode() == header, f"{path.name}: header {first[:40]!r}")
    expect(text.endswith(b"\n"), f"{path.name}: last row unterminated")
    rows = np.loadtxt(io.BytesIO(text), dtype=np.int64, delimiter=",", ndmin=2)
    expect(rows.shape[1] == columns, f"{path.name}: {rows.shape[1]} columns")
    return rows


def _vlq(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    while True:
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos


def read_midi(path: Path) -> dict:
    """Header fields and event counts of a format-0 file, with every length checked."""
    data = path.read_bytes()
    expect(data[:4] == b"MThd" and int.from_bytes(data[4:8], "big") == 6,
           f"{path.name}: bad MThd chunk")
    fmt, tracks, division = (int.from_bytes(data[i:i + 2], "big") for i in (8, 10, 12))
    expect(data[14:18] == b"MTrk", f"{path.name}: missing MTrk chunk")
    length = int.from_bytes(data[18:22], "big")
    expect(22 + length == len(data), f"{path.name}: MTrk length {length}, file {len(data)}")
    track = data[22:]
    pos, on, off, tempo, last = 0, 0, 0, None, None
    while pos < len(track):
        _, pos = _vlq(track, pos)  # delta time
        status = track[pos]
        if status == 0xFF:
            kind = track[pos + 1]
            size, pos = _vlq(track, pos + 2)
            payload = track[pos:pos + size]
            expect(len(payload) == size, f"{path.name}: meta event cut short")
            pos += size
            if kind == 0x51:
                tempo = int.from_bytes(payload, "big")
            last = kind
        else:
            expect(status in (0x80, 0x90) and pos + 3 <= len(track),
                   f"{path.name}: bad event at byte {pos}")
            on += status == 0x90
            off += status == 0x80
            pos += 3
            last = status
    expect(pos == len(track), f"{path.name}: track overruns its chunk")
    expect(last == 0x2F, f"{path.name}: no end-of-track event")
    return {"format": fmt, "tracks": tracks, "division": division, "tempo": tempo,
            "note_on": on, "note_off": off}


def _line(stdout: str, index: int) -> str:
    lines = stdout.splitlines()
    expect(len(lines) > index, f"stdout has {len(lines)} lines")
    return lines[index]


# --- per-kind checks -------------------------------------------------------------
# each takes (params, workdir, stdout) and raises CheckFailed


def _check_pattern_count(p, workdir, stdout):
    value = p.get("value", 0)
    extent, n = p["base"] ** p["depth"], pattern_count(p["base"], p["depth"], value)
    expected = (f"pattern of carry value {value} in base {p['base']}, depth {p['depth']}:"
                f" {n} cells on a {extent}x{extent} grid")
    expect(_line(stdout, 0) == expected, f"stdout {_line(stdout, 0)!r}")


def _check_zero_pbm(p, workdir, stdout):
    zoom = p["zoom"]
    pixels = read_pbm(workdir / "zero.pbm")
    n = pattern_count(p["base"], p["depth"], 0)
    expect(int(pixels.sum()) == n * zoom * zoom, f"{int(pixels.sum())} ones, want {n * zoom**2}")
    mask = zero_carry_mask(p["base"], p["depth"]).astype(np.int64)
    expected = np.kron(mask, np.ones((zoom, zoom), dtype=np.int64))
    expect(np.array_equal(pixels, expected), "pixels differ from the zero-carry pattern")


def _check_zero_cells(p, workdir, stdout):
    rows = read_csv_ints(workdir / "zero.csv", None, 2)
    n = pattern_count(p["base"], p["depth"], 0)
    expect(len(rows) == n, f"{len(rows)} cell rows, want {n}")
    extent = p["base"] ** p["depth"]
    keys = rows[:, 0] * extent + rows[:, 1]
    expect(bool((np.diff(keys) > 0).all()), "cells not sorted and distinct")
    mask = zero_carry_mask(p["base"], p["depth"])
    expect(bool(mask[rows[:, 0], rows[:, 1]].all()), "a listed cell has a carry")


def _check_value_pbm(p, workdir, stdout):
    pixels = read_pbm(workdir / f"value-{p['value']}.pbm")
    n = pattern_count(p["base"], p["depth"], p["value"])
    expect(int(pixels.sum()) == n, f"{int(pixels.sum())} ones, want {n}")
    expected = carry_values(p["base"], p["depth"]) == p["value"]
    expect(np.array_equal(pixels, expected.astype(np.int64)), "pixels differ from the pattern")


def _table_max(base: int, digits: int) -> int:
    return (base ** (digits + 1) - base) // (base - 1)


def _check_table_count(p, workdir, stdout):
    extent, top = p["base"] ** p["digits"], _table_max(p["base"], p["digits"])
    expected = (f"CV table base {p['base']}, {p['digits']} digit(s):"
                f" extent {extent}, max carry value {top}")
    expect(_line(stdout, 0) == expected, f"stdout {_line(stdout, 0)!r}")


def _check_table_csv(p, workdir, stdout):
    extent = p["base"] ** p["digits"]
    header = "," + ",".join(str(i) for i in range(extent))
    rows = read_csv_ints(workdir / "table.csv", header, extent + 1)
    expect(len(rows) == extent, f"{len(rows)} table rows, want {extent}")
    expect(np.array_equal(rows[:, 0], np.arange(extent)), "row labels out of order")
    expect(np.array_equal(rows[:, 1:], carry_values(p["base"], p["digits"])),
           "table values differ from the carry values")


def _check_table_pgm(p, workdir, stdout):
    extent, top = p["base"] ** p["digits"], _table_max(p["base"], p["digits"])
    maxval, pixels = read_pgm(workdir / "table.pgm")
    expect(maxval == 255, f"maxval {maxval}")
    expect(pixels.shape == (extent, extent), f"{pixels.shape} pixels")
    # 255 * v / top rounded half up, in exact integers
    expected = (510 * carry_values(p["base"], p["digits"]) + top) // (2 * top)
    expect(np.array_equal(pixels, expected), "gray levels differ from the table")


def _check_dimension_stdout(p, workdir, stdout):
    n = p["base"]
    closed = math.log(n * (n + 1) // 2) / math.log(n)
    expect(_line(stdout, 0) == f"similarity dimension (base {n}) = {closed:.6f}",
           f"stdout {_line(stdout, 0)!r}")
    expect(_line(stdout, 2) == f"box-count estimate (depth {p['depth']}) = {closed:.6f}"
           " (fit quality 1.000000)", f"stdout {_line(stdout, 2)!r}")


def _scale_rows(path: Path, header: str, ratio: int, copies: int, depth: int) -> list[list[str]]:
    """Rows of a per-scale CSV whose counts must follow copies**(depth - j) at ratio**j."""
    lines = path.read_text().splitlines()
    expect(lines and lines[0] == header, f"{path.name}: header")
    rows = [line.split(",") for line in lines[1:1 + depth]]
    expect(len(rows) == depth, f"{path.name}: {len(rows)} scale rows, want {depth}")
    for j, row in enumerate(rows):
        expect(int(row[0]) == ratio**j, f"{path.name}: scale {row[0]} at row {j}")
        expect(int(row[1]) == copies ** (depth - j),
               f"{path.name}: count {row[1]} at scale {row[0]}, want {copies ** (depth - j)}")
    return rows


def _check_slope(rows, extent: int, want: float, name: str) -> float:
    x = [math.log(extent / int(r[0])) for r in rows]
    y = [math.log(int(r[1])) for r in rows]
    slope, quality = ols_fit(x, y)
    expect(abs(slope - want) <= 1e-9, f"{name}: slope {slope!r}, want {want!r}")
    expect(abs(quality - 1.0) <= 1e-9, f"{name}: fit quality {quality!r}")
    return slope


def _check_dimension_report(p, workdir, stdout):
    n, depth = p["base"], p["depth"]
    copies = n * (n + 1) // 2
    path = workdir / "dimension.csv"
    rows = _scale_rows(path, "scale,count,log_scale,log_count", n, copies, depth)
    slope = _check_slope(rows, n**depth, math.log(copies) / math.log(n), path.name)
    tail = path.read_text().splitlines()[1 + depth:]
    expect(tail == [f"slope,{slope:.6f}", "fit_quality,1.000000"], f"{path.name}: footer {tail}")


def _overlay_text(p) -> list[str]:
    k = p["small"]
    cells = ", ".join(f"({r}, {k - r})" for r in range(k + 1))
    return [
        f"overlay: base-{k} generator over base-{k + 1} generator",
        f"overflow cells ({k + 1}): {cells}",
    ]


def _check_overlay_stdout(p, workdir, stdout):
    lines = stdout.splitlines()
    expect(lines[:2] == _overlay_text(p), f"stdout {lines[:2]}")
    k = p["small"]
    law = math.log(k + 1) / math.log(k + 1)
    expect(f"measured box-count dimension: {law:.6f} (fit quality 1.000000)" in lines,
           "stdout lacks the measured dimension")


def _check_overlay_report(p, workdir, stdout):
    text = (workdir / "overlay.txt").read_text()
    printed = [line for line in stdout.splitlines() if not line.startswith("wrote ")]
    expect(text == "\n".join(printed) + "\n", "report text differs from stdout")


def _check_overlay_csv(p, workdir, stdout):
    k, depth = p["small"], p["depth"]
    path = workdir / "overlay.csv"
    rows = _scale_rows(path, "scale,count", k + 1, k + 1, depth)
    lines = path.read_text().splitlines()
    expect(len(lines) == depth + 1, f"{path.name}: {len(lines)} lines")
    _check_slope(rows, (k + 1) ** depth, math.log(k + 1) / math.log(k + 1), path.name)


@functools.lru_cache(maxsize=4)
def expected_notes(base: int, depth: int, scale: str, base_pitch: int) -> np.ndarray:
    """(onset, duration, pitch, velocity) of every horizontal run of the zero-carry set."""
    mask = zero_carry_mask(base, depth)
    extent = mask.shape[0]
    pad = np.zeros((extent, 1), dtype=bool)
    starts = mask & ~np.hstack([pad, mask[:, :-1]])
    ends = mask & ~np.hstack([mask[:, 1:], pad])
    rows, first = np.nonzero(starts)
    _, last = np.nonzero(ends)
    intervals = np.array(SCALES[scale])
    octave, degree = np.divmod(extent - 1 - rows, len(intervals))
    pitch = np.clip(base_pitch + 12 * octave + intervals[degree], 0, 127)
    return np.column_stack([
        first * TICKS_PER_CELL,
        (last - first + 1) * TICKS_PER_CELL,
        pitch,
        np.full(rows.size, VELOCITY),
    ]).astype(np.int64)


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    return rows[np.lexsort(rows.T[::-1])]


def _check_melody_stdout(p, workdir, stdout):
    n = len(expected_notes(**p))
    expected = f"zero-carry pattern base {p['base']} depth {p['depth']}: {n} notes"
    expect(_line(stdout, 0) == expected, f"stdout {_line(stdout, 0)!r}")
    expect(any(line.startswith("spectral exponent") for line in stdout.splitlines()),
           "stdout lacks the spectral exponent")


def _check_melody_csv(p, workdir, stdout):
    rows = read_csv_ints(workdir / "music.csv", "onset,duration,pitch,velocity", 4)
    want = expected_notes(**p)
    expect(len(rows) == len(want), f"{len(rows)} note rows, want {len(want)}")
    order = rows[:, 0] * 128 + rows[:, 2]
    expect(bool((np.diff(order) >= 0).all()), "notes not sorted by (onset, pitch)")
    expect(np.array_equal(_sorted_rows(rows), _sorted_rows(want)), "notes differ from the runs")


def _check_melody_midi(p, workdir, stdout):
    midi = read_midi(workdir / "music.mid")
    n = len(expected_notes(**p))
    expect((midi["format"], midi["tracks"], midi["division"]) == (0, 1, DIVISION),
           f"header {midi}")
    expect(midi["tempo"] == MICROS_PER_QUARTER, f"tempo {midi['tempo']}")
    expect(midi["note_on"] == n and midi["note_off"] == n,
           f"{midi['note_on']} on / {midi['note_off']} off events, want {n} each")


CHECKS = {
    "dimension": [("stdout", _check_dimension_stdout), ("report", _check_dimension_report)],
    "overlay": [("stdout", _check_overlay_stdout), ("report", _check_overlay_report),
                ("scales_csv", _check_overlay_csv)],
    "zero_pattern": [("count", _check_pattern_count), ("pbm", _check_zero_pbm),
                     ("cells_csv", _check_zero_cells)],
    "dense_table": [("count", _check_table_count), ("table_csv", _check_table_csv),
                    ("pgm", _check_table_pgm)],
    "value_pattern": [("count", _check_pattern_count), ("pbm", _check_value_pbm)],
    "melody": [("stdout", _check_melody_stdout), ("notes_csv", _check_melody_csv),
               ("midi", _check_melody_midi)],
}


def digests_of(inv, workdir: Path, stdout: str) -> dict[str, str]:
    """sha256 of stdout and of every artifact the invocation names."""
    out = {"stdout": sha256(stdout.encode())}
    for name in inv.outputs:
        path = workdir / name
        out[name] = sha256(path.read_bytes()) if path.exists() else "missing"
    return out


def check_invocation(inv, workdir: Path, exit_code, stdout: str,
                     digests: dict) -> list[tuple[str, str | None]]:
    """Every check of one invocation as (name, failure message or None)."""
    results = [("exit", None if exit_code == 0 else f"exit code {exit_code}")]
    for name, check in CHECKS[inv.kind]:
        try:
            check(inv.params, workdir, stdout)
        except Exception as exc:  # a check that cannot run is a failed check
            results.append((name, f"{type(exc).__name__}: {exc}"))
        else:
            results.append((name, None))
    pinned = digests.get(inv.key)
    if pinned:
        actual = digests_of(inv, workdir, stdout)
        for name, want in sorted(pinned.items()):
            got = actual.get(name, "missing")
            results.append((f"sha256:{name}", None if got == want else f"sha256 {got[:12]}"))
    return [(f"{inv.argv[0]}:{name}", failure) for name, failure in results]
