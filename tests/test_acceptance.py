"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line, so `pytest -s tests/test_acceptance.py`
reads as a checklist. Tolerances and runtime bounds are pinned here and are not
meant to be tuned.
"""

import math
import random
import time

import numpy as np

from cvtfractals import (
    CLAIMED_INCREMENT,
    analyze_overlay,
    base_for_target_dimension,
    build_table,
    cells_to_notes,
    cvt,
    dimension_gap,
    estimate_dimension,
    overflow_generator,
    render_cellset,
    similarity_dimension,
    spectral_exponent,
    sum_without_carry,
    value_cells,
    write_midi,
    write_pnm,
    zero_carry_set,
)
from cvtfractals.cli import run
from helpers import brute_force_run_count, parse_smf


def _verdict(number: int, label: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[{status}] criterion {number}: {label}")
    assert not failures, f"criterion {number} ({label}): " + "; ".join(failures)


def test_criterion_01_cvt_worked_examples(capsys):
    failures = []
    start = time.perf_counter()
    assert run(["cvt", "--base", "2", "13", "14"]) == 0
    binary_out = capsys.readouterr().out
    assert run(["cvt", "--base", "3", "13", "14"]) == 0
    ternary_out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    if "= 24" not in binary_out:
        failures.append(f"base-2 output lacks 24: {binary_out!r}")
    if "= 3" not in ternary_out:
        failures.append(f"base-3 output lacks 3: {ternary_out!r}")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    with capsys.disabled():
        _verdict(1, "CVT worked examples report 24 and 3 in under 1s", failures)


def test_criterion_02_carry_decomposition(capsys):
    failures = []
    for base in range(2, 11):
        bad = sum(
            1
            for a in range(256)
            for b in range(256)
            if cvt(a, b, base) + sum_without_carry(a, b, base) != a + b
        )
        if bad:
            failures.append(f"{bad} exhaustive failures in base {base}")
    rng = random.Random(20260808)
    bad_random = 0
    for _ in range(100_000):
        base = rng.randint(2, 16)
        a = rng.randrange(base**32)
        b = rng.randrange(base**32)
        if cvt(a, b, base) + sum_without_carry(a, b, base) != a + b:
            bad_random += 1
    if bad_random:
        failures.append(f"{bad_random} random-sweep failures")
    with capsys.disabled():
        _verdict(2, "a + b = CVT + carry-free sum, exhaustive and randomized", failures)


def test_criterion_03_closed_form_dimensions(capsys):
    failures = []
    start = time.perf_counter()
    expected = [(2, 1.585, 1e-3), (3, 1.630929, 1e-6), (4, 1.6609, 1e-4), (5, 1.682606, 1e-6)]
    for base, value, tol in expected:
        got = similarity_dimension(base)
        if abs(got - value) > tol:
            failures.append(f"base {base}: {got} vs {value} (tol {tol})")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    with capsys.disabled():
        _verdict(3, "closed-form dimensions match printed values", failures)


def test_criterion_04_count_law_and_oracle(capsys):
    failures = []
    for base in range(2, 7):
        for depth in range(1, 5):
            cells = zero_carry_set(base, depth)
            expected = (base * (base + 1) // 2) ** depth
            if len(cells) != expected:
                failures.append(f"count({base},{depth}) = {len(cells)} != {expected}")
            oracle = value_cells(build_table(base, depth), 0)
            if tuple(cells) != tuple(oracle):
                failures.append(f"zero_carry_set({base},{depth}) != table oracle")
    with capsys.disabled():
        _verdict(4, "count law (n(n+1)/2)^k and table-oracle equality", failures)


def test_criterion_05_estimator_agreement(capsys):
    failures = []
    start = time.perf_counter()
    for base, depth in [(2, 8), (3, 5), (4, 4), (5, 4)]:
        est = estimate_dimension(zero_carry_set(base, depth))
        closed = similarity_dimension(base)
        if abs(est.slope - closed) >= 0.01:
            failures.append(f"({base},{depth}): slope {est.slope} vs {closed}")
        if est.fit_quality <= 0.999:
            failures.append(f"({base},{depth}): fit_quality {est.fit_quality}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s >= 30s")
    with capsys.disabled():
        _verdict(5, "box-count slope within 0.01 of closed form, fit > 0.999", failures)


def test_criterion_06_monotone_limit_and_target(capsys):
    failures = []
    previous = similarity_dimension(2)
    for n in range(3, 10_001):
        current = similarity_dimension(n)
        if not previous < current < 2:
            failures.append(f"monotonicity breaks at n={n}")
            break
        previous = current
    for n in (2, 3, 10, 137, 4096, 10_000, 10**6):
        lhs = dimension_gap(n) * math.log(n)
        rhs = math.log(2 * n / (n + 1))
        if abs(lhs - rhs) > 1e-12 * abs(rhs):
            failures.append(f"gap identity off at n={n}: {lhs} vs {rhs}")
    base, _ = base_for_target_dimension(1.68)
    if base != 5:
        failures.append(f"target 1.68 gave base {base}, expected 5")
    with capsys.disabled():
        _verdict(6, "dimension strictly increasing below 2; gap identity; 1.68 -> base 5", failures)


def test_criterion_07_overlay_procedure(capsys):
    failures = []
    gen = overflow_generator(2)
    if tuple(gen) != ((0, 2), (1, 1), (2, 0)):
        failures.append(f"overflow(2,3) = {tuple(gen)}")
    if len(gen) != 3:
        failures.append(f"overflow(2,3) count {len(gen)}")
    for k in range(2, 10):
        if len(overflow_generator(k)) != k + 1:
            failures.append(f"overflow({k},{k+1}) count != {k + 1}")
    for small, depth in [(2, 6), (3, 5)]:
        report = analyze_overlay(small, depth)
        copies = len(report.overflow_cells)
        expected = math.log(copies) / math.log(report.overflow_cells.extent)
        if abs(report.measured.slope - expected) >= 0.02:
            failures.append(
                f"overlay({small}) slope {report.measured.slope} vs log{copies}/log{copies}"
            )
        text = report.to_text()
        if f"{CLAIMED_INCREMENT:.6f}" not in text or f"{report.measured.slope:.6f}" not in text:
            failures.append(f"overlay({small}) report missing claimed or measured value")
    with capsys.disabled():
        _verdict(7, "overflow generators exact; measured slope log N / log extent", failures)


def test_criterion_08_raster_golden(capsys, tmp_path):
    failures = []
    path = tmp_path / "generator.pbm"
    write_pnm(render_cellset(zero_carry_set(2, 1), zoom=1), path)
    data = path.read_bytes()
    if data != b"P1\n2 2\n1 1\n1 0\n":
        failures.append(f"golden bytes differ: {data!r}")
    foreground = int(render_cellset(zero_carry_set(2, 8)).pixels.sum())
    if foreground != 6561:
        failures.append(f"depth-8 foreground {foreground} != 6561")
    with capsys.disabled():
        _verdict(8, "PBM golden bytes and 3^8 foreground pixels", failures)


def test_criterion_09_melody_midi(capsys, tmp_path):
    failures = []
    for base, depth in [(2, 5), (3, 3)]:
        cells = zero_carry_set(base, depth)
        notes = cells_to_notes(cells)
        if len(notes) != brute_force_run_count(cells):
            failures.append(f"({base},{depth}): note count != run oracle")
        first, second = tmp_path / f"{base}a.mid", tmp_path / f"{base}b.mid"
        write_midi(notes, tempo_bpm=120, path=first)
        write_midi(notes, tempo_bpm=120, path=second)
        data = first.read_bytes()
        if data != second.read_bytes():
            failures.append(f"({base},{depth}): MIDI bytes unstable")
        if not data.startswith(b"MThd"):
            failures.append(f"({base},{depth}): missing MThd prefix")
        _, _, parsed = parse_smf(data)
        if sorted(parsed) != sorted(zip(notes.onset.tolist(), notes.duration.tolist(),
                                        notes.pitch.tolist())):
            failures.append(f"({base},{depth}): SMF round trip differs")
    with capsys.disabled():
        _verdict(9, "MIDI byte-stable, MThd prefix, parser round trip, run counts", failures)


def test_criterion_10_spectral_sanity(capsys):
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    white = rng.uniform(size=4096)
    white_beta = spectral_exponent(white).beta
    walk_beta = spectral_exponent(np.cumsum(white)).beta
    if not -0.3 <= white_beta <= 0.3:
        failures.append(f"white-noise beta {white_beta}")
    if not 1.6 <= walk_beta <= 2.4:
        failures.append(f"random-walk beta {walk_beta}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    with capsys.disabled():
        _verdict(10, "seeded white-noise and random-walk exponents in band", failures)
