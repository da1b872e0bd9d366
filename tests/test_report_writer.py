"""The column-wise row writer against the cell-by-cell reference.

``cli.write_rows`` formats a column of finite floats at C level and joins
whole rows; every other column goes cell by cell.  Whatever the cells, its
bytes must equal those of ``reference_rows_text`` (the CSV ``%.17g`` join
and ``json.dumps(payload, sort_keys=True, indent=2)``).  ``cli._emit``
selects the kept records by index arrays; its rows must equal those of the
nested loop in ``reference_emit_rows``, also where a ratio cell is not
finite, which no CLI input reaches.  The verdict and model files are laid
out by ``cli._json``, whose text must equal ``json.dumps(value,
sort_keys=True, indent=2)`` for any nested value.
"""

import argparse
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import reference_emit_rows, reference_rows_text
from qdblab import cli

DERANDOMIZED = settings(
    max_examples=150,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
FORMATS = ("csv", "json")

EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.797e308, -1.797e308, 0.1, 1e16, 1e-7]
NON_FINITE = [math.inf, -math.inf, math.nan]
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS))
FLOATS = st.one_of(FINITE, st.sampled_from(NON_FINITE))
CELLS = st.one_of(FLOATS, st.none(), st.booleans(), st.text(max_size=4))


@st.composite
def tables(draw):
    """``(header, columns, rows)``: the columns in each form ``write_rows``
    takes, and the same table as rows of cells."""
    n = draw(st.integers(0, 5))
    header = draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=4))
    columns, cells = [], []
    for _ in header:
        form = draw(st.sampled_from(["finite array", "array", "list", "indexed"]))
        if form == "indexed":
            values = draw(st.lists(CELLS, max_size=3))
            index = draw(st.lists(st.integers(-1, len(values) - 1), min_size=n, max_size=n))
            columns.append((values, np.array(index, dtype=np.intp)))
            cells.append([None if i == -1 else values[i] for i in index])
        else:
            values = draw(st.lists(FINITE if form == "finite array" else FLOATS if form == "array" else CELLS,
                                   min_size=n, max_size=n))
            columns.append(values if form == "list" else np.array(values, dtype=float))
            cells.append(values)
    return header, columns, [list(row) for row in zip(*cells)]


@DERANDOMIZED
@given(table=tables())
def test_write_rows_matches_the_cell_by_cell_reference(tmp_path, table):
    header, columns, rows = table
    for fmt in FORMATS:
        path = tmp_path / f"rows.{fmt}"
        cli.write_rows(path, header, columns, fmt)
        assert path.read_bytes() == reference_rows_text(header, rows, fmt).encode("utf-8")


@pytest.mark.parametrize("fmt", FORMATS)
def test_an_empty_table_keeps_its_columns(tmp_path, fmt):
    path = tmp_path / f"rows.{fmt}"
    cli.write_rows(path, ["tau", "E"], [[], np.zeros(0)], fmt)
    assert path.read_text() == reference_rows_text(["tau", "E"], [], fmt)
    assert path.read_text().endswith({"csv": "tau,E\n", "json": '"rows": [],\n  "schema": 1\n}\n'}[fmt])


def _emit_text(directory: Path, fmt: str, taus, records, f_factor=None) -> str:
    """The rows file ``cli._emit`` writes for a report of ``records``, with
    the factor column of ``f_factor`` at each tau, as the one point of a
    block's factor ``taus -> (1, t)``."""
    sections = {"classification": {"kind": "fpt", "beta_f": 1.0, "gamma_min": 1.0}, "qdb1": None, "qdb2": None,
                "qfr_max_deviation": None, "qfr_passes": None}
    args = argparse.Namespace(tau_grid=tuple(taus), s_grid=(0.5,), tol_qdb=1e-9, tol_qfr=1e-9, tol_cptp=1e-9,
                              beta_i=2.0, beta_f=1.0, out=directory, format=fmt)
    with mock.patch.object(cli, "analyse", return_value=[None]), \
            mock.patch.object(cli, "build_report", return_value=[(sections, (tuple(taus), *records))]):
        cli._emit("report", None, args, f_factor and (lambda taus: [[f_factor(tau) for tau in taus]]))
    return (directory / f"report_rows.{fmt}").read_text()


def _expected(fmt: str, taus, records, f_factor=None) -> str:
    header = "tau E p_plus p_minus R predicted deviation".split() + ([] if f_factor is None else ["F_tau"])
    return reference_rows_text(header, reference_emit_rows(taus, *records, f_factor), fmt)


@pytest.mark.parametrize("fmt", FORMATS)
def test_emit_writes_non_finite_ratio_cells_as_the_reference(tmp_path, capsys, fmt):
    taus = (0.5, 1.0, 2.0)
    energies, predicted = np.array([0.0, 1.0, 2.0]), np.array([1.0, math.inf, math.nan])
    recorded = np.array([[True, True, True], [True, False, True], [False, True, True]])
    defined = np.array([[True, True, False], [True, False, True], [False, True, True]])
    p_plus = np.array([[0.5, 0.25, 1e-300], [0.5, 0.0, 0.125], [0.0, 0.5, 0.25]])
    p_minus = np.array([[0.5, 0.0, 0.0], [0.5, 0.0, 0.0625], [0.0, 5e-324, 0.5]])
    ratio = np.array([[1.0, math.inf, math.nan], [1.0, math.nan, 2.0], [math.nan, math.inf, 0.5]])
    deviation = np.array([[0.0, math.nan, math.nan], [0.0, math.nan, -math.inf], [math.nan, math.inf, 0.75]])
    records = (energies, predicted, recorded, p_plus, p_minus, defined, ratio, deviation)
    f_factor = {0.5: math.inf, 1.0: 0.75, 2.0: 1.0}.get
    for f in (None, f_factor):
        text = _emit_text(tmp_path, fmt, taus, records, f)
        assert text == _expected(fmt, taus, records, f)
    assert ("" if fmt == "csv" else "null") in text and "inf" in text and "nan" in text


@st.composite
def reports(draw):
    """``(taus, records, f_factor)`` of one report: any masks and any floats."""
    t, g = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    taus = tuple(sorted(draw(st.lists(FINITE.map(abs), min_size=t, max_size=t, unique=True))))
    grid = st.lists(FLOATS, min_size=t * g, max_size=t * g).map(lambda v: np.reshape(v, (t, g)))
    masks = st.lists(st.booleans(), min_size=t * g, max_size=t * g).map(lambda v: np.reshape(v, (t, g)))
    per_gap = st.lists(FLOATS, min_size=g, max_size=g).map(np.array)
    records = (draw(per_gap), draw(per_gap), draw(masks), draw(grid), draw(grid), draw(masks), draw(grid),
               draw(grid))
    factors = draw(st.none() | st.lists(FLOATS, min_size=t, max_size=t))
    return taus, records, None if factors is None else dict(zip(taus, factors)).__getitem__


@DERANDOMIZED
@given(report=reports(), fmt=st.sampled_from(FORMATS))
def test_emit_rows_match_the_nested_loop(tmp_path, capsys, report, fmt):
    taus, records, f_factor = report
    assert _emit_text(tmp_path, fmt, taus, records, f_factor) == _expected(fmt, taus, records, f_factor)


# nested values of every kind json writes: escaped and non-ASCII strings, edge and non-finite floats, ints, bools,
# None, and empty containers
TEXT = st.text(alphabet=st.sampled_from(['a', 'é', '☃', '\U0001f600', '"', '\\', '\n', '\x00', '\x1f', ' ']),
               max_size=5)
SCALARS = st.one_of(FLOATS, st.integers(), st.booleans(), st.none(), TEXT)
NESTED = st.recursive(SCALARS, lambda inner: st.one_of(st.lists(inner, max_size=4),
                                                       st.dictionaries(TEXT, inner, max_size=4)), max_leaves=20)
GOLDEN = Path(__file__).parent / "golden"


@DERANDOMIZED
@given(value=NESTED)
def test_the_json_writer_lays_out_what_json_dumps_does(value):
    assert cli._json(value, "\n") == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [[], {}, [[]], {"a": {}}, [0.5, -0.0, 5e-324], [0.5, math.nan], [1, 2.0],
                                   [True, 1.0], (0.25, 1e300), {"z": 1, "a": [math.inf, -math.inf]}])
def test_the_json_writer_lays_out_edge_values_as_json_dumps(value):
    assert cli._json(value, "\n") == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*/*_verdict.json")), ids=lambda p: p.parent.name)
def test_every_golden_verdict_is_written_back_byte_for_byte(tmp_path, path):
    cli.write_verdict(tmp_path / "verdict.json", json.loads(path.read_text()))
    assert (tmp_path / "verdict.json").read_bytes() == path.read_bytes()


def test_a_saved_model_is_laid_out_as_json_dumps(tmp_path):
    assert cli.main(["example", "b", "--tau-grid", "0.5,1", "--out", str(tmp_path),
                     "--save-model", str(tmp_path / "model.json")]) == cli.EXIT_OK
    text = (tmp_path / "model.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
