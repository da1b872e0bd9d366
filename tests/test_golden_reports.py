"""Report regression: the CLI's rows and verdicts against committed files.

The expected files under ``golden/`` pin the reports; a change that moves
a report must regenerate them and say why.  Regenerate with

    PYTHONPATH=src python tests/test_golden_reports.py [CASE ...]

which reruns the named cases, or all of them when none is named, and
rewrites only the files whose fresh content fails the comparison that the
test makes, so a rerun that moves no value, or moves one in the last bits
only, leaves the committed files as they are.

Exit codes, headers, the key of every row (``(tau, E)``, or ``(parameter,
value)`` for a sweep), classifications and pass flags must match exactly.  Floats must match to a relative 1e-13:
BLAS builds differ in the last bits, so the files are not compared byte for
byte.  An absolute 1e-15 admits entries that are zero up to roundoff (a
residual or deviation of a few ulp), whose relative error means nothing.
The layout is pinned apart from the values: each written JSON file is the
canonical ``json.dumps(..., sort_keys=True, indent=2)`` of its parse, and
each CSV float cell reads as ``format(x, ".17g")``.

``golden/davies3_circulating.json`` is the d = 3 Davies model with a cyclic
current drawn first from ``numpy.random.default_rng(5)`` by
``perfbench/fixtures.py``: fixed-point thermalizing at beta 1 but failing
both balance checks.  It was written before model files carried a ``basis``,
so it also covers a file that loads in the canonical Gell-Mann basis.
``golden/scenario_a_tau1.json`` is scenario A's default
channel at omega = 1, beta_f = 1 and tau = 1 as a ``kind: kraus`` model, and
``golden/gad_no_tau.json`` a generalized amplitude-damping channel, q = 0.2
and gamma = 0.36, as one without ``tau``, which the CLI tests check too.
"""

import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from qdblab.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
MODEL = GOLDEN / "davies3_circulating.json"
KRAUS_MODEL = GOLDEN / "scenario_a_tau1.json"
GAD_NO_TAU = GOLDEN / "gad_no_tau.json"
KEYS = (("tau", "E"), ("parameter", "value"))

CASES = {
    "example_a": (("example", "a"), EXIT_OK),
    "example_b": (("example", "b"), EXIT_OK),
    "example_c": (("example", "c"), EXIT_OK),
    "example_b_json": (("example", "b", "--format", "json"), EXIT_OK),
    # p_minus underflows to 0 at the large gap, so half the rows have null ratio cells
    "example_b_null_json": (("example", "b", "--beta-i", "800", "--format", "json"), EXIT_OK),
    "check_davies3": (("check", str(MODEL)), EXIT_OK),
    "check_davies3_json": (("check", str(MODEL), "--format", "json"), EXIT_OK),
    "example_a_fpt": (("example", "a", "--q-schedule", "fpt"), EXIT_OK),
    "check_kraus_a": (("check", str(KRAUS_MODEL)), EXIT_OK),
    # a single map without tau: its rows and its qdb2 taus read nan
    "check_gad_no_tau": (("check", str(GAD_NO_TAU)), EXIT_OK),
    "sweep_a_omega": (("sweep", "a", "--parameter", "omega", "--range", "0.8:1.6:4"), EXIT_OK),
    "sweep_b_gamma": (("sweep", "b", "--parameter", "gamma", "--range", "0.5:2:4"), EXIT_OK),
    # the middle point is scenario C's balanced nu = alpha, within roundoff
    "sweep_c_nu": (("sweep", "c", "--parameter", "nu", "--range", "0.3647852285573807:0.7647852285573807:5"), EXIT_OK),
    "sweep_b_beta_f": (("sweep", "b", "--parameter", "beta_f", "--range", "0.5:2:4"), EXIT_OK),
    "sweep_davies3_beta_i": (("sweep", str(MODEL), "--parameter", "beta_i", "--range", "0.5:2.5:3"), EXIT_OK),
}


def _run(name, out: Path) -> int:
    argv, _ = CASES[name]
    code = main([*argv, "--out", str(out)])
    for path in out.glob("*_verdict.json"):
        verdict = json.loads(path.read_text())
        if "model" in verdict:  # the path as given; keep only the file name
            verdict["model"] = Path(verdict["model"]).name
            path.write_text(json.dumps(verdict, sort_keys=True, indent=2) + "\n")
    return code


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _csv_rows(path: Path):
    header, *lines = path.read_text().splitlines()
    return {"columns": header.split(","), "rows": [line.split(",") for line in lines]}


def _assert_close(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for idx, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{idx}]")
    elif isinstance(want, float) and isinstance(got, float):
        same = (math.isnan(got) and math.isnan(want)) or math.isclose(got, want, rel_tol=1e-13, abs_tol=1e-15)
        assert same, f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _assert_rows_match(got: dict, want: dict, where: str) -> None:
    assert got["columns"] == want["columns"], where
    assert len(got["rows"]) == len(want["rows"]), where
    keys = next(k for k in KEYS if set(k) <= set(want["columns"]))
    keyed = [want["columns"].index(key) for key in keys]
    for idx, (g, w) in enumerate(zip(got["rows"], want["rows"])):
        assert [g[k] for k in keyed] == [w[k] for k in keyed], f"{where} row {idx}"
        if isinstance(w[0], str):  # CSV cells
            g, w = [_cell(x) for x in g], [_cell(x) for x in w]
        _assert_close(g, w, f"{where} row {idx}")


def _assert_layout(path: Path) -> None:
    """The file's text is as the writer lays it out, whatever the BLAS build:
    JSON as ``json.dumps(..., sort_keys=True, indent=2)`` of its own parse, and
    each CSV float cell with 17 significant digits."""
    text = path.read_text()
    if path.suffix == ".json":
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", path.name
        return
    for line in text.splitlines()[1:]:
        for cell in line.split(","):
            if isinstance(_cell(cell), float):
                assert cell == format(float(cell), ".17g"), f"{path.name}: {cell!r}"


def _assert_matches(got: Path, want: Path) -> None:
    """The report file ``got`` against the golden file ``want``: a verdict
    value by value, and rows by their keys and values."""
    if got.name.endswith("_verdict.json"):
        _assert_close(json.loads(got.read_text()), json.loads(want.read_text()), got.name)
    elif got.suffix == ".csv":
        _assert_rows_match(_csv_rows(got), _csv_rows(want), got.name)
    else:
        got_rows, want_rows = json.loads(got.read_text()), json.loads(want.read_text())
        assert got_rows["schema"] == want_rows["schema"]
        _assert_rows_match(got_rows, want_rows, got.name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(tmp_path, name):
    _, code = CASES[name]
    assert _run(name, tmp_path) == code
    expected = GOLDEN / name
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in expected.iterdir())
    for file_name in written:
        _assert_layout(tmp_path / file_name)
        _assert_matches(tmp_path / file_name, expected / file_name)


def regenerate(names) -> None:
    """Rerun the cases ``names``, all of them when there are none, and
    write each fresh file over its golden file only where it does not match
    it, removing the golden files that a case no longer writes."""
    unknown = sorted(set(names) - CASES.keys())
    if unknown:
        sys.exit(f"unknown cases: {', '.join(unknown)}; the cases are {', '.join(CASES)}")
    for name in names or CASES:
        with tempfile.TemporaryDirectory() as tmp:
            fresh = Path(tmp)
            if _run(name, fresh) != CASES[name][1]:
                sys.exit(f"{name} did not exit {CASES[name][1]}")
            out = GOLDEN / name
            out.mkdir(exist_ok=True)
            for old in out.iterdir():
                if not (fresh / old.name).exists():
                    old.unlink()
            for new in fresh.iterdir():
                try:
                    _assert_matches(new, out / new.name)
                except (AssertionError, OSError, ValueError):  # a mismatch, or a golden file missing or unreadable
                    shutil.copyfile(new, out / new.name)


if __name__ == "__main__":
    regenerate(sys.argv[1:])
