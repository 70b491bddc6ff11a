"""One pass over a workload plan, in a fresh interpreter.

    python3 bench/worker.py T0 --probe
    python3 bench/worker.py T0 PLAN.json WORKDIR [--trace]

T0 is the starting process's time.perf_counter() just before it started
this one; both read CLOCK_MONOTONIC on Linux, so the difference to the
moment cvtfractals.cli is imported is the set-up time every CLI call pays
(interpreter start plus the package and numpy imports). PYTHONPATH must name
the package sources. The worker runs each argv of the plan through
cvtfractals.cli.run in the work directory, with stdout and stderr captured,
and prints one JSON object: set-up time and the reference time right after
it (see reference_s), wall time (the invocations' times summed), peak RSS,
each invocation's exit code, output, time and reference time, and with
--trace the spans and per-layer metrics.
"""

import time

import cvtfractals.cli  # noqa: E402  the measured set-up ends with this import

IMPORTED_AT = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402

# together 12 to 13 ms on the baseline machine (bench/README.md) at full speed
REFERENCE_ITERATIONS = 100_000
REFERENCE_ROWS = 8_000


def reference_s() -> float:
    """Time of fixed pure-Python work that calls nothing of the package: an
    integer loop, then building, sorting and indexing a list of small tuples.

    The machine's speed changes from second to second with the load of the
    host it shares, so the worker times this work right before and right
    after each invocation, and once right after set-up; run.py divides the
    invocation's and the set-up's time by it. Host load slows interpreter
    loops and object allocation by different shares, and the program does
    both, so the reference does both too.
    """
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    # the keys come in scrambled order, so the sort moves the rows
    rows = [(i * 7919 % 10007, i, str(i)) for i in range(REFERENCE_ROWS)]
    rows.sort()
    index = {row[1]: row for row in rows}
    assert len(index) == REFERENCE_ROWS
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_plan(argvs, workdir, trace: bool = False) -> dict:
    """Run every argv in order; with trace, under a Tracer installed for the whole pass."""
    tracer = Tracer() if trace else None
    invocations = []
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            for run_id, argv in enumerate(argvs):
                if tracer:
                    tracer.run = run_id
                out, err = io.StringIO(), io.StringIO()
                reference_before = reference_s()
                began = time.perf_counter()
                error = None
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cvtfractals.cli.run(list(argv))
                    except Exception as exc:  # an escaped exception is a failed invocation
                        code, error = None, f"{type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - began
                invocations.append({
                    "argv": list(argv), "exit": code, "error": error, "seconds": seconds,
                    "reference_s": (reference_before + reference_s()) / 2,
                    "stdout": out.getvalue(), "stderr": err.getvalue(),
                })
        wall_s = sum(call["seconds"] for call in invocations)
    finally:
        os.chdir(previous)
    result = {"wall_s": wall_s, "invocations": invocations}
    if tracer:
        result["spans"] = tracer.spans
        result["layer_metrics"] = layer_metrics(tracer.spans, tracer.names, wall_s)
    return result


def main(argv: list[str]) -> None:
    setup = {"setup_wall_s": IMPORTED_AT - float(argv[0]), "setup_reference_s": reference_s()}
    if argv[1] == "--probe":
        result = setup
    else:
        with open(argv[1]) as fh:
            argvs = json.load(fh)
        result = {**run_plan(argvs, argv[2], trace="--trace" in argv[3:]), **setup}
    result["peak_rss_mb"] = peak_rss_mb()
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main(sys.argv[1:])
