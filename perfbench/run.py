"""Benchmark of the qdblab CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere in a source checkout; NAME is a workload named in
``BENCHMARK.json`` (defined in ``workloads.py``) or ``all``.  Inputs come
from the seed alone.  With ``--trace 0`` the run reports the end-to-end
metrics named in ``BENCHMARK.json``; with ``--trace 1`` a separate traced
run reports the per-layer metrics and the tracing overhead.  Op times are
scaled to a reference host speed measured next to every op (``calibration.py``);
the plain wall times are printed too.  Before the result it prints one
``{"metadata": ...}`` line and a table of every metric with its unit; the
last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.

Every process this starts has its BLAS thread pools pinned to one thread and
``src`` on its ``PYTHONPATH``; all files go to ``.perfbench_work/`` in the
checkout and are removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

from calibration import IN_PROCESS_REFERENCE_S, COLD_REFERENCE_S, reference_s, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
IMPORT_SAMPLES = 3
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    """Environment of every process this starts, passed on to their children."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def git_revision() -> str | None:
    """HEAD from the checkout's own ``.git``, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def launch_worker(workload: str, seed: int, seconds: float, trace: int, workdir: Path, ready_only: bool):
    """Seconds from launch to ``ready``, and the worker's result (None when ready-only)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(workdir)]
    if ready_only:
        cmd.append("--ready-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} worker did not finish within {WORKER_TIMEOUT_S} s")
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} worker failed (exit code {proc.returncode})")
    return setup, (None if ready_only else json.loads(out.strip().splitlines()[-1]))


def _subtree_self_us(importtime: str, prefix: str) -> int:
    """Self time of every import in a subtree rooted at a module ``prefix``
    or ``prefix.*``, from ``-X importtime`` output (children print first)."""
    entries = []
    for line in importtime.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, _, name = line[len("import time:"):].split("|")
        if own.strip().isdigit():
            entries.append((int(own), len(name) - len(name.lstrip()), name.strip()))
    total, stack = 0, []  # walk parents-first: (indent, inside subtree)
    for own, indent, name in reversed(entries):
        while stack and stack[-1][0] >= indent:
            stack.pop()
        inside = (bool(stack) and stack[-1][1]) or name == prefix or name.startswith(prefix + ".")
        total += own if inside else 0
        stack.append((indent, inside))
    return total


def import_times_ms() -> tuple:
    """Median ``import qdblab.cli`` time and scipy's share, in fresh interpreters."""
    qdblab, scipy = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qdblab.cli"],
                              cwd=ROOT, env=_env(), capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError("import qdblab.cli failed in a fresh interpreter")
        qdblab.append(_subtree_self_us(proc.stderr, "qdblab") / 1e3)
        scipy.append(_subtree_self_us(proc.stderr, "scipy") / 1e3)
    return statistics.median(qdblab), statistics.median(scipy)


def _p90(values: list) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    workdir = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        def launch(ready_only: bool):
            return launch_worker(workload, seed, seconds, trace, workdir, ready_only)

        metrics = {}
        if trace:
            metrics["cli.import_ms"], metrics["cli.import_scipy_ms"] = import_times_ms()
            _, result = launch(False)
        else:
            # Set-up samples: two launches before the measured run, its own,
            # two after, so that they span the run.
            setups = [launch(True)[0], launch(True)[0]]
            setup, result = launch(False)
            setups += [setup, launch(True)[0], launch(True)[0]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            workdir.parent.rmdir()

    ops = result["ops"]
    timed = [op for op in ops if not op["traced"]]
    ms = [op["seconds"] * 1e3 for op in timed]
    failed = sum(1 for op in ops if op["problems"])
    extra, beyond_p90 = {}, None  # extra: printed, not declared
    if trace:
        metrics.update(result["layers"])
        traced_ms = [op["seconds"] * 1e3 for op in ops if op["traced"]]
        metrics["trace.overhead_ms"] = statistics.median(traced_ms) - statistics.median(ms)
    else:
        all_scaled = scaled([op["seconds"] for op in ops], result["calibrations"], result["cold"])
        scaled_ms = [1e3 * s for op, s in zip(ops, all_scaled) if not op["traced"]]
        rows = sum(op["rows"] for op in timed)
        p90 = _p90(scaled_ms)
        beyond_p90 = sum(1 for x in scaled_ms if x > p90)
        metrics.update({
            "setup_s": statistics.median(setups),
            "op_p50_ms_scaled": statistics.median(scaled_ms),
            "op_p90_ms_scaled": p90,
            "rows_per_s_scaled": rows / (sum(scaled_ms) / 1e3),
            "peak_rss_mb": result["peak_rss_mb"],
        })
        extra = {
            "op_p50_ms": (statistics.median(ms), "ms"),
            "op_p90_ms": (_p90(ms), "ms"),
            "rows_per_s": (rows / (sum(ms) / 1e3), "rows/s"),
            "host_speed": (reference_s(result["cold"]) / statistics.median(result["calibrations"]), "x"),
        }
    kinds = {}
    for op in timed:
        kinds.setdefault(op["kind"], []).append(op["seconds"] * 1e3)
    return {
        "workload": workload,
        "description": result["description"],
        "metrics": metrics,
        "extra": extra,
        "attempted": len(ops),
        "failed": failed,
        "timed_ops": len(timed),
        "beyond_p90": beyond_p90,
        "ops_run": {k: {"ops": len(v), "p50_ms": statistics.median(v)} for k, v in kinds.items()},
        "problems": [(op["argv"], op["problems"]) for op in ops if op["problems"]][:5],
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qdblab" / "cli.py").is_file():
        print(f"no qdblab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = workloads if args.workload == "all" else (args.workload,)
    try:
        runs = [run_workload(w, args.seed, args.seconds, args.trace) for w in names]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(json.dumps({"metadata": {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "calibration_reference_s": {"in-process": IN_PROCESS_REFERENCE_S, "cold": COLD_REFERENCE_S},
        "workloads": {r["workload"]: {**r["description"], "timed_ops_run": r["ops_run"],
                                      "unscaled": {k: v for k, (v, _) in r["extra"].items()}} for r in runs},
    }}))
    metrics = {}
    for r in runs:
        prefix = f"{r['workload']}." if args.workload == "all" else ""
        rows = [(d["name"], r["metrics"][d["name"]], d["unit"]) for d in declared]
        extra = [("fail_frac", r["failed"] / r["attempted"], "frac")]
        extra += [(name, value, unit) for name, (value, unit) in r["extra"].items()]
        for name, value, unit in rows + extra:
            print(f"{r['workload']:<13} {name:<38} {value:>14.6g} {unit}")
        print(f"{r['workload']:<13} {r['attempted']} ops, {r['timed_ops']} untraced"
              + ("" if args.trace else f", {r['beyond_p90']} beyond p90"))
        for argv_, problems in r["problems"]:
            print(f"{r['workload']:<13} FAILED {' '.join(argv_)}: {'; '.join(problems)}")
        metrics.update({prefix + name: {"value": value, "unit": unit} for name, value, unit in rows})
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
