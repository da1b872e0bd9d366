"""Smoke test of the benchmark harness: ``python -m pytest perfbench``.

Runs every workload at minimal length, untraced and traced, and checks that
every metric declared in BENCHMARK.json is emitted with its unit and that no
op fails on the current code.  Takes about two minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import _subtree_self_us

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(root: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload, trace):
    proc = _bench(HERE.parent, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"] is True, "\n".join(lines[-12:])
    assert any(line.split()[1:3] == ["fail_frac", "0"] for line in lines[1:-1])


def test_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "tau-grid", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_importtime_subtree():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |       scipy._lib",
        "import time:        20 |         30 |     scipy",
        "import time:         5 |          5 |       numpy.linalg",
        "import time:        40 |         45 |     scipy.linalg",
        "import time:         7 |         82 |   qdblab.matlin",
        "import time:         3 |         85 | qdblab",
    ])
    assert _subtree_self_us(log, "scipy") == 75
    assert _subtree_self_us(log, "qdblab") == 85
