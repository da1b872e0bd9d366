"""The committed benchmark records against the benchmark they report.

Each ``BENCH_*.json`` at the repository root names only workloads and
end-to-end metrics that ``BENCHMARK.json`` declares, with the declared unit,
direction and bound, and every metric row holds ``n_pairs`` runs of the
parent and of the change with the median of each side's runs.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_names_only_declared_workloads_and_metrics(path):
    workloads = json.loads(path.read_text())["workloads"]
    assert workloads and set(workloads) <= WORKLOADS
    for rows in workloads.values():
        assert rows and set(rows) <= set(METRICS)
        for name, row in rows.items():
            assert {k: row[k] for k in ("unit", "better", "bound")} == {
                k: METRICS[name][k] for k in ("unit", "better", "bound")
            }


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_every_metric_has_n_pairs_runs_and_the_medians_of_both_sides(path):
    for workload, rows in json.loads(path.read_text())["workloads"].items():
        for name, row in rows.items():
            n = row["n_pairs"]
            assert isinstance(n, int) and n >= 1, (workload, name)
            for side in ("parent", "change"):
                runs = row[side]["runs"]
                assert len(runs) == n, (workload, name, side)
                assert row[side]["median"] == pytest.approx(statistics.median(runs), rel=1e-12), (workload, name, side)
