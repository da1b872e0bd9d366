"""H's eigenframe, taken once per block, end to end.

``dynamics.maps_of`` takes every generator, map and Kraus operator into H's
eigenframe, and every later stage reads frame matrices.  So a report must
not depend on the basis a model file stores its matrices in, nor on the
zero of energy, and the frame is taken with one Kronecker product per
semigroup block and none per Kraus block beyond the superoperators.

Bounds of the rotation test: over 100 Davies models (20 draws of each case
below), the rotated reports moved E by at most 3.6e-15, p_plus and
p_minus by 1.4e-14 (2.9e-14 relative above 1e-6), R by 1.5e-14 relative,
the deviation by 8.7e-15 and beta_f by 4.3e-15; the test allows 1e-12
relative with 1e-13 absolute, and 1e-13 for the deviation and beta_f.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import davies_generator
from qdblab import cli, matlin
from qdblab.cli import EXIT_OK, main, save_model
from qdblab.dynamics import LindbladGenerator
from qdblab.matlin import dag
from qdblab.states import HamiltonianSpec

GOLDEN_MODEL = Path(__file__).parent / "golden" / "davies3_circulating.json"
U = 2.0**-53  # unit roundoff


def _check(path: Path, out: Path, *flags) -> tuple:
    """The verdict and the CSV rows (header first, cells as text) of ``qdblab check``."""
    assert main(["check", str(path), "--out", str(out), *flags]) == EXIT_OK
    verdict = json.loads((out / f"check_{path.stem}_verdict.json").read_text())
    rows = [line.split(",") for line in (out / f"check_{path.stem}_rows.csv").read_text().splitlines()]
    return verdict, rows


def _flags(verdict: dict) -> tuple:
    return (verdict["classification"]["kind"], *(verdict[q] and verdict[q]["passes"] for q in ("qdb1", "qdb2")),
            verdict["qfr_passes"])


def _floats(rows: list) -> np.ndarray:
    return np.array([[float(x) if x else np.nan for x in row[1:]] for row in rows[1:]])


@pytest.mark.parametrize("d, circulating", [(2, False), (3, False), (3, True), (4, False), (4, True)])
def test_a_rotated_model_keeps_the_report_of_its_eigenbasis(tmp_path, rng, d, circulating):
    # the model with H and its jump basis rotated by a random unitary, against the model as drawn
    gen = davies_generator(rng, d, circulating)
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    h = HamiltonianSpec.from_matrix(u @ gen.hamiltonian.matrix @ dag(u))
    reports = []
    for name, model in (("plain", gen), ("rotated", LindbladGenerator(h, gen.kossakowski, u @ gen.basis @ dag(u)))):
        save_model(model, tmp_path / f"{name}.json")
        reports.append(_check(tmp_path / f"{name}.json", tmp_path / name))
    (want, want_rows), (got, got_rows) = reports
    assert _flags(got) == _flags(want)
    assert got["classification"]["beta_f"] == pytest.approx(want["classification"]["beta_f"], rel=1e-13)
    assert [row[0] for row in got_rows] == [row[0] for row in want_rows]  # the header and every tau
    got_cells, want_cells = _floats(got_rows), _floats(want_rows)
    # E, p_plus, p_minus, R and predicted; then the deviation
    np.testing.assert_allclose(got_cells[:, :5], want_cells[:, :5], rtol=1e-12, atol=1e-13)
    np.testing.assert_allclose(got_cells[:, 5], want_cells[:, 5], rtol=0, atol=1e-13)


def _shifted(path: Path, s: float) -> Path:
    """The golden d = 3 model with H + s I, written to ``path``."""
    model = json.loads(GOLDEN_MODEL.read_text())
    for i, row in enumerate(model["hamiltonian"]):
        row[i][0] += s
    path.write_text(json.dumps(model))
    return path


def test_the_report_does_not_depend_on_the_zero_of_energy(tmp_path):
    # gaps group within 1e-9 (E_max - E_min), so a shift of H by s I, which moves neither the Gibbs
    # state nor the generator, keeps the two clusters 2.35e-3 apart that 1e-9 max|E| merged at s = 3e6
    want, want_rows = _check(_shifted(tmp_path / "s0.json", 0.0), tmp_path / "s0")
    assert len(want_rows) == 161
    for s in (2e6, 3e6):
        got, got_rows = _check(_shifted(tmp_path / f"s{s:g}.json", s), tmp_path / f"s{s:g}")
        assert _flags(got) == _flags(want)
        assert [row[0] for row in got_rows] == [row[0] for row in want_rows]  # the header and every tau
        # the input holds H's levels only to s u, and its gaps to a few times that
        np.testing.assert_allclose(_floats(got_rows)[:, 0], _floats(want_rows)[:, 0], rtol=0, atol=8 * s * U)


def _kron_calls(monkeypatch) -> list:
    """The names of the functions that call ``kron`` inside the
    ``report.analyse`` calls of ``cli`` from now on, one per call, leaving
    out the builders of generator and Kraus superoperators."""
    callers, analysing, kron, analyse = [], [], matlin.kron, cli.analyse

    def counted(*args):
        caller = sys._getframe(1).f_code.co_name
        if analysing and caller not in ("lindblad_superop", "_kraus_superops"):
            callers.append(caller)
        return kron(*args)

    def analysed(*args):
        analysing.append(True)
        try:
            return analyse(*args)
        finally:
            analysing.pop()

    for name, module in list(sys.modules.items()):
        if name.startswith("qdblab") and getattr(module, "kron", None) is kron:
            monkeypatch.setattr(module, "kron", counted)
    monkeypatch.setattr(cli, "analyse", analysed)
    return callers


@pytest.mark.parametrize(
    "argv, calls",
    [
        (("check", str(GOLDEN_MODEL)), ["maps_of"]),
        (("sweep", "b", "--parameter", "gamma", "--range", "0.5:1.5:3"), ["maps_of"]),
        # 40 points are two blocks
        (("sweep", "c", "--parameter", "nu", "--range", "0.5:0.9:40"), ["maps_of"] * 2),
        (("sweep", "a", "--parameter", "omega", "--range", "0.5:1.5:3"), []),
        (("check", str(Path(__file__).parent / "golden" / "scenario_a_tau1.json")), []),
    ],
    ids=["model", "b-gamma", "c-nu-two-blocks", "a-omega", "kraus-map"],
)
def test_the_eigenframe_is_taken_once_per_block(tmp_path, monkeypatch, argv, calls):
    # one kron(conj(V), V) per semigroup block; a Kraus block takes V^dag G V by two products, with no kron
    callers = _kron_calls(monkeypatch)
    assert main([*argv, "--tau-grid", "0.3,1,3", "--out", str(tmp_path)]) == EXIT_OK
    assert callers == calls
