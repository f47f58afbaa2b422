"""Benchmark of the qsodyn CLI: end-to-end timings, or a traced per-layer run.

Run from the checkout root:

    python3 perfbench/run.py --workload verify-continuum --seed 7 --seconds 35 --trace 0

--trace 0 (end to end): one client in a closed loop runs the workload's
invocations one at a time, each as a fresh `python3 -m qsodyn.cli` child
process, and repeats the whole pass while the time budget lasts. Every output
is checked (see workloads.check). Metrics: wall_s (sum over invocations of
the median wall time of that invocation, so one pass as the median pass),
units_per_s, setup_s (median cold start of an interpreter up to an imported
qsodyn.cli) and peak_rss_mb (largest child max RSS).

--trace 1 (per layer): alternates traced and untraced in-process passes
(tracer.py children; traced first, at least two traced and one untraced),
checks that the traced count metrics repeat exactly, and reports the
per-layer metrics with the tracing overhead (median traced wall minus median
untraced wall).

The last stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads as wl

ROOT = Path(__file__).resolve().parents[1]
DEADLINE_S = 170.0  # whole run, so the benchmark exits within 180 s
SETUP_REPEATS = 5  # cold starts timed before and again after the passes
END_TO_END_UNITS = {"wall_s": "s", "units_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
COUNT_UNITS = ("count", "B")


class OutOfTime(Exception):
    pass


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("calls_per_orbit"):
        return "calls/orbit"
    return "count"


def environment() -> dict:
    """nproc, CPU model, Python, numpy and the OpenBLAS thread count of this machine."""
    import ctypes
    import glob

    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS", "default")
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        blas_threads = get()
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "openblas_threads": blas_threads}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], env: dict, deadline: float) -> tuple[int, bytes, bytes, float]:
    """Run one child to completion (killing it at the deadline); returns code, out, err, wall."""
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise OutOfTime
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise OutOfTime from None
    return proc.returncode, out, err, perf_counter() - t0


def command_of(inv: wl.Invocation) -> list[str]:
    if inv.kind == "cli":
        return [sys.executable, "-m", "qsodyn.cli", *inv.argv]
    return [sys.executable, str(wl.HERE / "oracle.py")]


def cold_starts(env: dict, deadline: float, n: int) -> list[float]:
    """Wall times of n fresh interpreters importing qsodyn.cli."""
    cmd = [sys.executable, "-c", "import qsodyn.cli"]
    times = []
    for _ in range(n):
        code, _, err, wall = run_child(cmd, env, deadline)
        if code != 0:
            raise RuntimeError(f"cannot import qsodyn.cli: {err.decode(errors='replace')}")
        times.append(wall)
    return times


def end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    env = child_env()
    golden = wl.load_golden()
    cold_starts(env, deadline, 1)  # the first start compiles bytecode, which users pay once
    setup = cold_starts(env, deadline, SETUP_REPEATS)
    invs = wl.invocations(workload, seed)
    times: dict[str, list[float]] = {inv.key: [] for inv in invs}
    attempted = failed = 0
    errors: list[str] = []
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        units = 0
        for inv in invs:
            wl.prepare(inv)
            attempted += 1
            code, out, err, wall = run_child(command_of(inv), env, deadline)
            times[inv.key].append(wall)
            try:
                units += wl.check(inv, code, wl.output_bytes(out, inv), golden)
            except wl.CheckFailed as exc:
                failed += 1
                errors.append(f"{inv.key}: {exc}; stderr: {err.decode(errors='replace')[-300:]}")
        pass_s = perf_counter() - pass_start
        if failed or perf_counter() - start + pass_s > seconds:
            break
    for key, t in times.items():
        print(f"# {statistics.median(t):8.4f} s  median of {len(t)}  {key}")
    setup += cold_starts(env, deadline, SETUP_REPEATS)  # sample the machine at both ends
    setup_s = statistics.median(setup)
    wall_s = sum(statistics.median(t) for t in times.values())
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {"wall_s": wall_s, "units_per_s": units / wall_s,
               "setup_s": setup_s, "peak_rss_mb": peak_kb / 1024.0}
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {END_TO_END_UNITS[name]}")
    print(f"# failed_frac = {failed / attempted:.6g} (failed {failed} of {attempted} invocations)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "errors": errors,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}}


def traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    env = child_env()
    base = [sys.executable, str(wl.HERE / "tracer.py"),
            "--workload", workload, "--seed", str(seed)]
    plain, runs = [], []
    attempted = failed = 0
    errors: list[str] = []
    start = perf_counter()
    while True:
        sink = runs if len(plain) == len(runs) else plain  # traced, plain, traced, ...
        cmd = base + ["--traced", "--tag", str(len(runs))] if sink is runs else base
        code, out, err, pass_s = run_child(cmd, env, deadline)
        if code != 0:
            raise RuntimeError(f"tracer failed: {err.decode(errors='replace')[-2000:]}")
        result = json.loads(out.decode().splitlines()[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        errors += result["errors"]
        sink.append(result)
        if len(runs) >= 2 and (failed or perf_counter() - start + pass_s > seconds):
            break
    metrics = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name] for r in runs]
        if layer_unit(name) not in COUNT_UNITS:
            metrics[name] = statistics.median(values)
            continue
        metrics[name] = values[0]
        if len(set(values)) != 1:
            errors.append(f"count {name} differs between traced runs: {values}")
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in runs)
    metrics["trace.plain_wall_s"] = plain_wall
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {layer_unit(name)}")
    return {"correct": not errors, "attempted": attempted, "failed": failed, "errors": errors,
            "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    os.chdir(ROOT)
    if not (ROOT / "src" / "qsodyn" / "cli.py").is_file():
        print(f"error: no qsodyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = perf_counter() + DEADLINE_S
    print("# env " + json.dumps(environment()))
    run = traced if args.trace else end_to_end
    try:
        result = run(args.workload, args.seed, args.seconds, deadline)
    except OutOfTime:
        print("error: the run did not finish within its deadline", file=sys.stderr)
        return 3
    for error in result.pop("errors"):
        print(f"# FAILED {error}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
