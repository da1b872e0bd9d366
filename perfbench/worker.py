"""The workload process: sets up, says ``ready``, then runs ops in a closed loop.

One client issues the next op only after the previous one has finished.  An
op is one ``qdblab.cli.main(argv)`` call in this process, or, for a cold
workload, one fresh interpreter running the CLI.  After every op the worker
checks the exit code, stderr and the report files against the expected
verdict; a seeded twentieth of the ops run a second time, untimed, and must write
the same bytes.  Before every op, and after the last, it times a fixed
calibration (``calibration.py``).

The last line on stdout is a JSON record of every op, which ``run.py`` turns
into metrics.  Started by ``run.py``, which sets ``PYTHONPATH`` and pins the
BLAS thread pools.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from calibration import calibrate
from qdblab.cli import main as cli_main
from tracing import Tracer, install, layer_metrics, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COLD_CMD = "import sys; from qdblab.cli import main; sys.exit(main(sys.argv[1:]))"
RERUN_EVERY = 20


def run_in_process(op, tracer: Tracer | None):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.begin_op()
        t0 = perf_counter()
        try:
            code = cli_main(list(op.argv))
        except Exception:  # an escaped exception is a failed op, not a benchmark crash
            code = None
            traceback.print_exc()
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
    return elapsed, code, err.getvalue()


def run_cold(op, spans: Path | None):
    if spans is None:
        cmd = [sys.executable, "-c", COLD_CMD, *op.argv]
    else:
        cmd = [sys.executable, str(HERE / "child.py"), str(spans), *op.argv]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    return perf_counter() - t0, proc.returncode, proc.stderr


def run_op(op, cold: bool, tracer: Tracer | None, spans: Path | None):
    return run_cold(op, spans) if cold else run_in_process(op, tracer)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--ready-only", action="store_true")
    args = parser.parse_args(argv)

    workdir = Path(args.workdir)
    cold = workloads.WORKLOADS[args.workload].cold
    plan = workloads.ops(args.workload, args.seed, workdir)
    pending = next(plan)  # the first op, with its fixture written
    tracer = None
    if args.trace and not cold:
        tracer = Tracer()
        install(tracer)
    print("ready", flush=True)
    if args.ready_only:
        return 0

    # Traced runs trace every other cycle; the rest give the untraced
    # reference for the tracing overhead.
    records, calibrations, dumps, write_bytes = [], [], [], 0
    start = perf_counter()
    while True:
        cycle, op = pending
        traced = bool(args.trace) and cycle % 2 == 1
        spans = workdir / f"{op.out.name}.spans.npz" if traced and cold else None
        calibrations.append(calibrate(cold))
        elapsed, code, stderr = run_op(op, cold, tracer if traced else None, spans)
        files = workloads.report_files(op.out)
        rows, problems = workloads.check_output(op, files)
        if code != 0:
            problems.append(f"exit code {code}")
        if "Traceback" in stderr:
            problems.append("traceback on stderr: " + stderr.strip().splitlines()[-1])
        if len(records) % RERUN_EVERY == args.seed % RERUN_EVERY:
            again = op.out.with_name(op.out.name + "-again")
            rerun = dataclasses.replace(op, argv=op.argv[:-1] + (str(again),), out=again)
            run_op(rerun, cold, None, None)
            if workloads.report_files(rerun.out) != files:
                problems.append("report bytes differ on a second run")
            shutil.rmtree(rerun.out, ignore_errors=True)
        if traced:
            write_bytes += sum(len(v) for v in files.values())
            if spans is not None and spans.exists():
                dumps.append(spans)
        records.append({"kind": op.kind, "seconds": elapsed, "rows": rows, "traced": traced,
                        "problems": problems, "argv": list(op.argv)})
        shutil.rmtree(op.out, ignore_errors=True)
        pending = next(plan)
        # Stop at the cycle boundary nearest to the deadline, so that a run
        # measures whole cycles for about --seconds.
        ran = perf_counter() - start
        if pending[0] != cycle and ran * (1 + 0.5 / (cycle + 1)) >= args.seconds and (cycle >= 1 or not args.trace):
            break
    calibrations.append(calibrate(cold))

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cold else resource.RUSAGE_SELF)
    result = {"ops": records, "calibrations": calibrations, "cold": cold, "peak_rss_mb": usage.ru_maxrss / 1024.0,
              "description": workloads.describe(args.workload)}
    if args.trace:
        if tracer is not None:
            dumps.append(workdir / "spans.npz")
            tracer.dump(dumps[-1])
        total = {"cli.write.bytes": float(write_bytes)}
        for path in dumps:
            for key, value in summarize(path).items():
                total[key] = total.get(key, 0.0) + value
        result["layers"] = layer_metrics(total)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
