"""Independent oracles used by the test suite.

Everything here is deliberately written from the format or definition itself,
without reusing any code path from the package under test.
"""

from __future__ import annotations

import itertools

import numpy as np


def digits(value: int, base: int) -> list[int]:
    """Base-`base` digits of a non-negative integer, least significant first; 0 has none."""
    out = []
    while value:
        value, d = divmod(value, base)
        out.append(d)
    return out


def digit_pair_keys(base: int, value: int) -> np.ndarray:
    """Keys x * base + y of the single-digit pairs whose sum x + y has carry value `value`.

    By the digit-sum identity, x + y carries (x + y - s(x + y)) / (base - 1) times,
    s being the base-`base` digit sum, and a carry out of digit 0 is worth base.
    The value of each of the 2 * base - 1 sums comes from `digits`; numpy only
    looks it up for every pair.
    """
    value_of_sum = np.array([(t - sum(digits(t, base))) // (base - 1) * base
                             for t in range(2 * base - 1)])
    return np.flatnonzero(value_of_sum[np.add.outer(np.arange(base), np.arange(base))] == value)


def cell_keys(pairs, extent: int) -> list[int]:
    """Row-major keys row * extent + col of (row, col) cells on an extent-wide grid."""
    return [r * extent + c for r, c in pairs]


def cell_pairs(cells) -> list[tuple[int, int]]:
    """A CellSet's (row, col) cells in key order, each key decoded as divmod(key, extent)."""
    return [divmod(key, cells.extent) for key in cells.keys.tolist()]


def substituted_cells(levels, modulus: int) -> set[tuple[int, int]]:
    """Cells of one generator per level, (x, y) digit pairs below modulus, substituted.

    Every tuple of one cell of each level's generator is one cell; with depth
    levels, level i holds the digits of place value modulus**(depth - 1 - i)
    of its row and its column.
    """
    depth = len(levels)
    places = [modulus ** (depth - 1 - i) for i in range(depth)]
    cells = set()
    for choice in itertools.product(*levels):
        row = sum(x * place for (x, _), place in zip(choice, places))
        col = sum(y * place for (_, y), place in zip(choice, places))
        cells.add((row, col))
    return cells


def brute_force_box_count(cells, extent: int, box_size: int) -> int:
    """Count occupied boxes by scanning every aligned box explicitly."""
    occupied = set(cells)
    count = 0
    for top in range(0, extent, box_size):
        for left in range(0, extent, box_size):
            if any(
                (r, c) in occupied
                for r in range(top, top + box_size)
                for c in range(left, left + box_size)
            ):
                count += 1
    return count


def set_box_count(cells, box_size: int) -> int:
    """Count occupied boxes as the set of each cell's (row, col) box index.

    Unlike brute_force_box_count it costs nothing per empty box, so it counts
    sparse cells on the widest grids.
    """
    return len({(r // box_size, c // box_size) for r, c in cells})


def brute_force_run_count(cells) -> int:
    """Count maximal horizontal runs by probing each cell's left neighbor."""
    occupied = set(cells)
    return sum(1 for (r, c) in occupied if (r, c - 1) not in occupied)


def brute_force_runs(cells) -> list[tuple[int, int, int]]:
    """Maximal horizontal runs as (row, start_col, length), in row-major order.

    Walks right from every cell whose left neighbor is absent.
    """
    occupied = set(cells)
    runs = []
    for r, c in sorted(occupied):
        if (r, c - 1) in occupied:
            continue
        length = 1
        while (r, c + length) in occupied:
            length += 1
        runs.append((r, c, length))
    return runs


def pnm_bytes(pixels, mode: str) -> bytes:
    """ASCII PBM (bilevel) or PGM (gray, maxval 255) bytes of a 2D pixel array.

    Magic line, "width height" line, the maxval line for PGM, then one line
    per pixel row with the decimal values separated by single spaces.
    """
    height, width = pixels.shape
    header = f"P1\n{width} {height}\n" if mode == "bilevel" else f"P2\n{width} {height}\n255\n"
    body = "".join(" ".join(str(v) for v in row) + "\n" for row in pixels.tolist())
    return (header + body).encode("ascii")


def csv_bytes(rows, header=None) -> bytes:
    """CSV bytes: the optional header line, then one line per row, each ending in a newline."""
    lines = [] if header is None else [header]
    lines += [",".join(str(v) for v in row) for row in rows]
    return "".join(line + "\n" for line in lines).encode("ascii")


def parse_pnm(data: bytes):
    """Parse ASCII P1/P2 data into (mode, width, height, rows-of-ints)."""
    tokens = data.decode("ascii").split()
    magic = tokens.pop(0)
    if magic == "P1":
        mode = "bilevel"
        maxval = 1
    elif magic == "P2":
        mode = "gray"
    else:
        raise ValueError(f"unsupported magic {magic!r}")
    width = int(tokens.pop(0))
    height = int(tokens.pop(0))
    if magic == "P2":
        maxval = int(tokens.pop(0))
        assert maxval == 255
    values = [int(t) for t in tokens]
    assert len(values) == width * height
    assert all(0 <= v <= maxval for v in values)
    rows = [values[i * width : (i + 1) * width] for i in range(height)]
    return mode, width, height, rows


def _read_vlq(data: bytes, pos: int) -> tuple[int, int]:
    value = 0
    while True:
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos


def parse_smf(data: bytes):
    """Minimal Standard MIDI File reader.

    Returns (division, tempo_us, notes) where notes is a list of
    (onset, duration, pitch) triples, pairing each note-off with the earliest
    open note-on of the same pitch. Handles running status and treats a
    note-on with velocity 0 as a note-off.
    """
    assert data[:4] == b"MThd"
    header_len = int.from_bytes(data[4:8], "big")
    fmt = int.from_bytes(data[8:10], "big")
    ntrks = int.from_bytes(data[10:12], "big")
    division = int.from_bytes(data[12:14], "big")
    assert fmt == 0 and ntrks == 1
    pos = 8 + header_len
    assert data[pos : pos + 4] == b"MTrk"
    track_len = int.from_bytes(data[pos + 4 : pos + 8], "big")
    track = data[pos + 8 : pos + 8 + track_len]
    assert len(track) == track_len

    tempo_us = None
    notes = []
    open_notes: dict[int, list[int]] = {}
    clock = 0
    status = None
    i = 0
    while i < len(track):
        delta, i = _read_vlq(track, i)
        clock += delta
        byte = track[i]
        if byte == 0xFF:
            meta_type = track[i + 1]
            length, j = _read_vlq(track, i + 2)
            payload = track[j : j + length]
            if meta_type == 0x51:
                tempo_us = int.from_bytes(payload, "big")
            i = j + length
            if meta_type == 0x2F:
                break
            continue
        if byte & 0x80:
            status = byte
            i += 1
        assert status is not None, "running status before any status byte"
        kind = status & 0xF0
        if kind in (0x80, 0x90):
            pitch, velocity = track[i], track[i + 1]
            i += 2
            if kind == 0x90 and velocity > 0:
                open_notes.setdefault(pitch, []).append(clock)
            else:
                onset = open_notes[pitch].pop(0)
                notes.append((onset, clock - onset, pitch))
        else:
            raise ValueError(f"unexpected event status {status:#x}")
    assert not any(open_notes.values()), "unterminated notes"
    return division, tempo_us, notes


def _smf_vlq(value: int) -> bytes:
    """A Standard MIDI variable-length quantity: 7-bit groups, most significant
    first, each group but the last with its high bit set; at most 4 bytes."""
    assert 0 <= value <= 0x0FFFFFFF
    out = [0x80 | (value >> shift) & 0x7F for shift in (21, 14, 7) if value >> shift]
    return bytes(out + [value & 0x7F])


def reference_midi(rows, ticks_per_quarter: int, tempo_bpm) -> bytes:
    """Format-0 Standard MIDI File of (onset, duration, pitch) rows.

    One event at a time: a set-tempo meta event, then a note-on (0x90,
    velocity 100) and a note-off (0x80, velocity 64) per row in time order,
    note-offs first at equal times, then by pitch, then end-of-track.
    """
    events = []
    for onset, duration, pitch in rows:
        events.append((onset, 0x90, pitch, 100))
        events.append((onset + duration, 0x80, pitch, 64))
    events.sort()
    micros = round(60_000_000 / tempo_bpm)
    track = b"\x00\xff\x51\x03" + micros.to_bytes(3, "big")
    clock = 0
    for tick, status, pitch, velocity in events:
        track += _smf_vlq(tick - clock) + bytes([status, pitch, velocity])
        clock = tick
    track += b"\x00\xff\x2f\x00"
    header = b"MThd" + (6).to_bytes(4, "big") + (0).to_bytes(2, "big") + (1).to_bytes(2, "big")
    header += ticks_per_quarter.to_bytes(2, "big")
    return header + b"MTrk" + len(track).to_bytes(4, "big") + track


def top_voice(rows) -> list[float]:
    """Highest pitch struck at each distinct onset of (onset, _, pitch, ...) rows, by onset."""
    top: dict[int, int] = {}
    for row in rows:
        onset, pitch = row[0], row[2]
        top[onset] = max(top.get(onset, pitch), pitch)
    return [float(top[t]) for t in sorted(top)]
