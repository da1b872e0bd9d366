"""Spans and counters around calls into qdblab, for the traced run.

Each wrapped function is replaced in every qdblab namespace that bound it by
name, so calls through ``from .matlin import expm`` are seen as well as
calls through ``matlin.expm``.  A span records name, start, end and parent;
spans stay in memory until the run ends, when they are written out and
reduced to per-layer call counts and self times.  A layer's self time is its
span's duration minus the time its child spans cover.

Only calls made while an op is open are recorded, so the benchmark's own use
of qdblab (building fixtures) does not show.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = "cli.main"  # one root span per op

# layer name -> (module, attribute); timed as spans
SPANS = {
    "matlin.expm": ("qdblab.matlin", "expm"),
    "matlin.herm_eig": ("qdblab.matlin", "herm_eig"),
    "dynamics.lindblad_superop": ("qdblab.dynamics", "lindblad_superop"),
    "dynamics.dual_superop": ("qdblab.dynamics", "dual_superop"),
    "dynamics.evolve": ("qdblab.dynamics", "evolve"),
    "dynamics.heisenberg_dual": ("qdblab.dynamics", "heisenberg_dual"),
    "dynamics.superop_from_channel": ("qdblab.dynamics", "superop_from_channel"),
    "dynamics.is_cptp": ("qdblab.dynamics", "is_cptp"),
    "balance.check_qdb1": ("qdblab.balance", "check_qdb1"),
    "balance.check_qdb2": ("qdblab.balance", "check_qdb2"),
    "fluctuation.exchange_distribution": ("qdblab.fluctuation", "exchange_distribution"),
    "fluctuation.transition_matrix": ("qdblab.fluctuation", "transition_matrix"),
    "fluctuation.classify": ("qdblab.fluctuation", "classify"),
    "states.gibbs": ("qdblab.states", "gibbs"),
    "states.infer_beta": ("qdblab.states", "infer_beta"),
    "examples.example_a_channel": ("qdblab.examples", "example_a_channel"),
    "examples.example_b_generator": ("qdblab.examples", "example_b_generator"),
    "examples.example_c_generator": ("qdblab.examples", "example_c_generator"),
    "cli.build_report": ("qdblab.cli", "build_report"),
    "cli.load_model": ("qdblab.cli", "load_model"),
    "cli.write_rows": ("qdblab.cli", "write_rows"),
    "cli.write_verdict": ("qdblab.cli", "write_verdict"),
    "cli._write_text": ("qdblab.cli", "_write_text"),
}
# Called so often, and so briefly, that only a count is kept.
COUNTED = {
    "matlin.kron": ("qdblab.matlin", "kron"),
    "balance.inner": ("qdblab.balance", "inner"),
}


class Tracer:
    def __init__(self):
        self.names = [ROOT, *SPANS]
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(
            [*(f"{n}.calls" for n in COUNTED), "balance.WeightedSpace.calls",
             "balance.singular_weight.count", "matlin.expm.distinct", "dynamics.sources", "ops"], 0)
        self.on = False
        self._expm_args = set()
        self._generators = {}  # id -> generator, held so ids stay unique within an op

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def begin_op(self) -> None:
        self.on = True
        self.open(0)

    def end_op(self) -> None:
        self.close(self.stack[-1])
        self.on = False
        self.counts["ops"] += 1
        self.counts["matlin.expm.distinct"] += len(self._expm_args)
        self.counts["dynamics.sources"] += len(self._generators)
        self._expm_args.clear()
        self._generators.clear()

    def note_expm(self, args) -> None:
        self._expm_args.add(hash(np.asarray(args[0]).tobytes()))

    def note_generator(self, args) -> None:
        self._generators[id(args[0])] = args[0]

    def dump(self, path: Path) -> None:
        np.savez(path, name=np.frombuffer(self.name, dtype=np.uint16),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 names=np.array(self.names), counts=np.array(json.dumps(self.counts)))


def _span(tracer: Tracer, name_id: int, fn, note=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        if note is not None:
            note(args)
        idx = tracer.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return wrapper


def _counted(tracer: Tracer, name: str, fn, raises=(), raised_name=""):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.on:
            tracer.counts[name] += 1
        try:
            return fn(*args, **kwargs)
        except raises:
            if tracer.on:
                tracer.counts[raised_name] += 1
            raise

    return wrapper


def _rebind(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "qdblab" or mod_name.startswith("qdblab."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every function named in SPANS and COUNTED that qdblab still has."""
    notes = {
        "matlin.expm": tracer.note_expm,
        "dynamics.lindblad_superop": tracer.note_generator,
        "dynamics.dual_superop": tracer.note_generator,
    }
    for name_id, (name, (module, attr)) in enumerate(SPANS.items(), start=1):
        fn = getattr(sys.modules[module], attr, None)
        if fn is not None:
            _rebind(fn, _span(tracer, name_id, fn, notes.get(name)))
    for name, (module, attr) in COUNTED.items():
        fn = getattr(sys.modules[module], attr, None)
        if fn is not None:
            _rebind(fn, _counted(tracer, f"{name}.calls", fn))
    space = getattr(sys.modules["qdblab.balance"], "WeightedSpace", None)
    if space is not None and hasattr(space, "__post_init__"):
        singular = getattr(sys.modules["qdblab.errors"], "SingularWeight", ())
        space.__post_init__ = _counted(
            tracer, "balance.WeightedSpace.calls", space.__post_init__, singular,
            "balance.singular_weight.count",
        )


def summarize(path: Path) -> dict:
    """Calls and self seconds per span name, plus the counters, of one dump."""
    with np.load(path) as z:
        name, parent, names = z["name"], z["parent"], list(z["names"])
        duration = z["end"] - z["start"]
        counts = json.loads(str(z["counts"]))
    inner = parent >= 0
    covered = np.bincount(parent[inner], weights=duration[inner], minlength=len(duration))
    own = duration - covered
    calls = np.bincount(name, minlength=len(names))
    self_s = np.bincount(name, weights=own, minlength=len(names))
    out = {f"{n}.calls": float(c) for n, c in zip(names, calls)}
    out.update({f"{n}.self_s": float(s) for n, s in zip(names, self_s)})
    out.update({k: float(v) for k, v in counts.items()})
    return out


EXAMPLE_BUILDERS = ("examples.example_a_channel", "examples.example_b_generator", "examples.example_c_generator")
WRITERS = ("cli.write_rows", "cli.write_verdict", "cli._write_text")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(total: dict) -> dict:
    """Per-op layer metrics from summed :func:`summarize` results.

    ``total`` also carries ``cli.write.bytes``, the report bytes of the
    traced ops, which the caller measures from the written files.
    """
    ops = total["ops"]
    m = {k: v / ops for k, v in total.items() if k.endswith(".calls")}
    m.update({k[: -len("_s")] + "_ms": v * 1e3 / ops for k, v in total.items() if k.endswith(".self_s")})
    m["matlin.expm.distinct_frac"] = _ratio(total["matlin.expm.distinct"], total["matlin.expm.calls"])
    m["dynamics.builds_per_source"] = _ratio(
        total["dynamics.lindblad_superop.calls"] + total["dynamics.dual_superop.calls"],
        total["dynamics.sources"],
    )
    m["examples.build.self_ms"] = sum(m[f"{n}.self_ms"] for n in EXAMPLE_BUILDERS)
    m["cli.write.self_ms"] = sum(m[f"{n}.self_ms"] for n in WRITERS)
    m["cli.write.bytes"] = total["cli.write.bytes"] / ops
    m["balance.singular_weight.count"] = total["balance.singular_weight.count"]
    return m
