"""cvtfractals benchmark: real CLI workloads, output checks and layer tracing.

    python3 bench/run.py --workload {dimension,render,music} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The benchmark runs the workload's plan
again and again, each pass in a fresh worker process, as long as one more
pass would end within S seconds of its start (at least one pass; with
--trace 1 at least one untraced and one traced pass, alternating). After each pass it checks every
output against independent expectations and deletes the artifacts. Before
the first pass and after every pass it starts a fresh interpreter that only
imports cvtfractals.cli, to time set-up; one more, uncounted, warms the
caches first.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics BENCHMARK.json lists, the end-to-end ones for --trace 0 and the
per-layer ones for --trace 1. Each is the median over the run's samples.
The full record (environment, the argv of every call, every raw sample,
quartiles, failures, and for traced runs every span) goes to
bench/_out/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import numpy  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# no pass starts after this many seconds, so a run ends well inside 180 s
START_LIMIT_S = 100
WORKER_TIMEOUT_S = 170
# about the reference work's time (worker.reference_s) on the baseline machine
# at full speed; it turns the set-up time's ratio to that work back into seconds
REFERENCE_S = 0.0125


def spawn_worker(*args: str, timeout: float) -> dict:
    """Start worker.py in a fresh interpreter, wait for it, and return its JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(BENCH / "worker.py")]
    t0 = time.perf_counter()
    proc = subprocess.run([*command, repr(t0), *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def wall_ref(result: dict) -> float:
    """One pass's time in units of the reference work: each invocation's time
    divided by the time of the worker's reference work around it, summed over
    the plan.

    The machine's speed changes by up to 2 times with the load of the host it
    shares, in phases of a fraction of a second to many minutes, so the wall
    time of a 40 s run depends on how much of it fell in slow phases. The
    reference work slows down with the program, and the ratio much less.
    """
    return sum(call["seconds"] / call["reference_s"] for call in result["invocations"])


def setup_s(result: dict) -> float:
    """A worker's set-up time at the reference speed: its wall time from
    interpreter start to the end of the import, divided by the time of the
    reference work the worker runs right after, times REFERENCE_S.

    In seconds, as on a machine whose reference work takes REFERENCE_S. The
    machine's phases move the plain set-up time by up to 1.7 times between
    runs of the same code; this ratio moves much less (see wall_ref).
    """
    return result["setup_wall_s"] / result["setup_reference_s"] * REFERENCE_S


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count of raw samples."""
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"median": med, "mean": statistics.fmean(values), "q1": q1, "q3": q3,
            "n": len(values)}


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "seed": seed,
    }


def commit() -> str:
    """HEAD of the checkout's git metadata, read from files; 'unknown' outside git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
            return next(line.split()[0] for line in packed if line.endswith(" " + name))
        return ref
    except (OSError, StopIteration):
        return "unknown"


def clear(directory: Path) -> None:
    for path in directory.iterdir():
        path.unlink()


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    plan = workloads.plan(workload, seed)
    digests = checks.load_digests()
    stamp = f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    workdir = OUT / "work" / stamp
    workdir.mkdir(parents=True, exist_ok=True)
    plan_path = workdir.parent / f"{stamp}.plan.json"
    plan_path.write_text(json.dumps([inv.argv for inv in plan]))
    began = time.perf_counter()
    attempted = failed = 0
    failures: list[dict] = []
    passes: list[dict] = []
    try:
        spawn_worker("--probe", timeout=60)  # fills the bytecode and file caches
        setup = [spawn_worker("--probe", timeout=60)]
        while True:
            cycle_began = time.perf_counter()
            traced = trace and len(passes) % 2 == 1
            args = [str(plan_path), str(workdir)] + (["--trace"] if traced else [])
            timeout = WORKER_TIMEOUT_S - (time.perf_counter() - began)
            try:
                result = spawn_worker(*args, timeout=timeout)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
                attempted += len(plan)
                failed += len(plan)
                failures.append({"pass": len(passes), "check": "worker", "message": str(exc)})
                break
            result["traced"] = traced
            checked_from = time.perf_counter()
            for inv, call in zip(plan, result["invocations"]):
                code = call["exit"] if call["error"] is None else call["error"]
                for name, message in checks.check_invocation(inv, workdir, code,
                                                             call["stdout"], digests):
                    attempted += 1
                    if message is not None:
                        failed += 1
                        failures.append({"pass": len(passes), "check": name, "message": message})
            result["check_s"] = time.perf_counter() - checked_from
            clear(workdir)
            passes.append(result)
            setup.append(spawn_worker("--probe", timeout=60))
            now = time.perf_counter()
            elapsed = now - began
            # stop when one more pass like the last would end after S seconds
            enough = elapsed + (now - cycle_began) > seconds and (not trace or len(passes) >= 2)
            if enough or elapsed >= START_LIMIT_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        plan_path.unlink(missing_ok=True)

    plain = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    samples = {
        "wall_ref": [wall_ref(p) for p in plain],
        "wall_s": [p["wall_s"] for p in plain],
        "peak_rss_mb": [p["peak_rss_mb"] for p in plain],
        "setup_s": [setup_s(r) for r in setup + passes],
        "setup_wall_s": [r["setup_wall_s"] for r in setup + passes],
    }
    if traced_passes:
        for name in traced_passes[0]["layer_metrics"]:
            samples[name] = [p["layer_metrics"][name] for p in traced_passes]
        samples["trace.overhead_s"] = [
            statistics.median(samples["trace.wall_s"]) - statistics.median(samples["wall_s"])]
    return {
        "workload": workload,
        "trace": trace,
        "seconds": seconds,
        "environment": environment(seed),
        "argv": [list(inv.argv) for inv in plan],
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 1.0,
        "failures": failures[:50],
        "samples": samples,
        "summary": {name: summary(values) for name, values in samples.items() if values},
        "computed_metrics": list(tracer.COMPUTED) if traced_passes else [],
        "passes": [{k: v for k, v in p.items() if k not in ("spans", "layer_metrics")}
                   for p in passes],
        "spans": [{**span, "pass": i} for i, p in enumerate(passes)
                  for span in p.get("spans", ())],
    }


def write_record(record: dict) -> Path:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    base = f"{record['workload']}-seed{record['environment']['seed']}-trace{int(record['trace'])}"
    path = results / f"{base}-{stamp}-{os.getpid()}.json"
    spans = record.pop("spans")
    if spans:
        spans_path = path.with_suffix(".spans.jsonl")
        spans_path.write_text("".join(json.dumps(span) + "\n" for span in spans))
        record["spans_file"] = spans_path.name
    path.write_text(json.dumps(record, indent=1))
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "cvtfractals" / "cli.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps the
    # running worker and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    missing = [m["name"] for m in declared if m["name"] not in record["summary"]]
    if missing:
        print(f"error: no pass measured {missing}: {record['failures']}", file=sys.stderr)
        return 1
    path = write_record(record)
    for name, stats in sorted(record["summary"].items()):
        print(f"{name:36s} median {stats['median']:.6g}  mean {stats['mean']:.6g}"
              f"  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  n {stats['n']}")
    print(f"error_rate {record['error_rate']:.6g} ({record['failed']}/{record['attempted']});"
          f" record {path.relative_to(ROOT)}")
    for failure in record["failures"][:10]:
        print(f"FAILED pass {failure['pass']} {failure['check']}: {failure['message']}")
    metrics = {}
    for m in declared:
        metrics[m["name"]] = {"value": record["summary"][m["name"]]["median"], "unit": m["unit"]}
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
