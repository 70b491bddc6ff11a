"""Self-tests of the benchmark: its checks catch damaged outputs, its tracer cleans up.

    python3 -m pytest -q bench/test_bench.py

They run small invocations in-process, so the whole file takes seconds.
"""

from __future__ import annotations

import importlib
import itertools
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMALL_PLAN = [
    workloads.dimension_estimate(3, 4),
    workloads.overlay(3, 4),
    workloads.zero_pattern(2, 5, 2),
    workloads.dense_table(3, 3),
    workloads.value_pattern(3, 3, 9),
    workloads.melody(2, 6, "minor", 48),
]


def run_and_check(plan, workdir, damage=None, trace=False):
    """Run a plan, optionally damage its artifacts, and return (attempted, failed, result)."""
    result = worker.run_plan([inv.argv for inv in plan], workdir, trace=trace)
    if damage:
        damage(workdir)
    attempted = failed = 0
    for inv, call in zip(plan, result["invocations"]):
        for _, message in checks.check_invocation(inv, workdir, call["exit"], call["stdout"], {}):
            attempted += 1
            failed += message is not None
    return attempted, failed, result


def test_small_plan_passes_every_check(tmp_path):
    attempted, failed, _ = run_and_check(SMALL_PLAN, tmp_path)
    assert attempted > 2 * len(SMALL_PLAN)
    assert failed == 0


def _flip_pbm_byte(workdir):
    path = workdir / "zero.pbm"
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def _truncate_midi(workdir):
    path = workdir / "music.mid"
    path.write_bytes(path.read_bytes()[:-7])


def _drop_csv_row(workdir):
    path = workdir / "zero.csv"
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:3] + lines[4:]))


@pytest.mark.parametrize("damage", [_flip_pbm_byte, _truncate_midi, _drop_csv_row])
def test_damaged_artifact_raises_error_rate(tmp_path, damage):
    attempted, failed, _ = run_and_check(SMALL_PLAN, tmp_path, damage)
    assert failed / attempted > 0


def test_pinned_digest_mismatch_fails(tmp_path):
    inv = workloads.value_pattern(3, 3, 9)
    result = worker.run_plan([inv.argv], tmp_path)
    call = result["invocations"][0]
    good = checks.digests_of(inv, tmp_path, call["stdout"])
    bad = dict(good, stdout="0" * 64)
    passed = checks.check_invocation(inv, tmp_path, 0, call["stdout"], {inv.key: good})
    assert all(message is None for _, message in passed)
    failed = checks.check_invocation(inv, tmp_path, 0, call["stdout"], {inv.key: bad})
    assert [name for name, message in failed if message] == ["fractal:sha256:stdout"]


def _bindings():
    names = {}
    for module in [f"cvtfractals.{m}" for m in tracer.LAYERS] + ["cvtfractals"]:
        namespace = importlib.import_module(module)
        names.update({(module, k): v for k, v in vars(namespace).items()})
    cellset = importlib.import_module("cvtfractals.table").CellSet
    names[("CellSet", "__init__")] = cellset.__dict__["__init__"]
    return names


def test_traced_run_restores_every_wrapped_name(tmp_path):
    before = _bindings()
    _, failed, result = run_and_check(SMALL_PLAN, tmp_path, trace=True)
    after = _bindings()
    assert failed == 0
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    metrics = result["layer_metrics"]
    assert metrics["dimension.box_count.calls"] == 4 + 4
    assert metrics["melody.notes"] > 0 and metrics["raster.pixels"] > 0
    # layer self times plus the benchmark's own time account for the traced wall time
    layers = sum(metrics[f"{layer}.s"] for layer in tracer.LAYERS)
    assert layers + metrics["bench.s"] == pytest.approx(metrics["trace.wall_s"])
    assert 0 <= metrics["bench.s"] < 0.05 * metrics["trace.wall_s"]


def test_every_seeded_invocation_has_pinned_digests():
    digests = checks.load_digests()
    invocations = workloads.dimension_plan(0) + workloads.render_plan(0)
    invocations += [workloads.value_pattern(3, workloads.TABLE_DIGITS, v)
                    for v in workloads.VALUE_CHOICES]
    invocations += [workloads.melody(2, workloads.MELODY_DEPTH, s, b) for s, b in
                    itertools.product(workloads.SCALE_CHOICES, workloads.BASE_PITCH_CHOICES)]
    for inv in invocations:
        assert set(digests.get(inv.key, {})) == {"stdout", *inv.outputs}, inv.key


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_plans_depend_only_on_the_seed(workload):
    for seed in range(20):
        first = [inv.argv for inv in workloads.plan(workload, seed)]
        assert first == [inv.argv for inv in workloads.plan(workload, seed)]


def test_times_are_divided_by_their_own_reference_time():
    result = {"invocations": [{"seconds": 2.0, "reference_s": 0.5},
                              {"seconds": 1.0, "reference_s": 0.25}],
              "setup_wall_s": 0.3, "setup_reference_s": 0.025}
    assert run.wall_ref(result) == 8.0
    assert run.setup_s(result) == pytest.approx(12 * run.REFERENCE_S)
