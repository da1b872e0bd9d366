"""The population route of exactly secular semigroups against the full route.

A semigroup whose generator, in H's eigenframe, couples no population unit
to a coherence unit and no two coherence units takes its transition
probabilities from ``exp(tau W)``, the exponential of its d x d Pauli rate
block; every other source keeps the full route, the exponential of its d^2 x
d^2 generator, both in H's eigenframe.  Neither forms a semigroup's maps,
whose qdb2 is a generator identity.  The reference is
``conftest.reference_maps_of``, which puts every source on the full route
in the basis of H's matrix and takes its maps to the eigenframe after.

On secular inputs the transition probabilities agree with the reference
within ``P_RTOL`` of each entry, or ``P_ATOL`` for entries near 0, and every
report keeps the reference's classification, pass flags, beta_f and row
keys.  On other inputs the rows and verdicts are bitwise the reference's
where H is diagonal, so that both frames are one; for a rotated model they
are bitwise those of the full route taken in the eigenframe
(``conftest.reference_frame_route``), and within roundoff of the
reference's.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    TOL_CPTP,
    block,
    davies_generator,
    davies_source,
    expm_shapes,
    reference_frame_route,
    reference_maps_of,
)
from qdblab import cli, report
from qdblab.cli import EXIT_OK, _build_parser, main, save_model
from qdblab.dynamics import Dynamics, LindbladGenerator, lindblad_superop, maps_of
from qdblab.examples import example_c_bloch_matrix, example_c_qdb_point
from qdblab.matlin import dag
from qdblab.states import HamiltonianSpec

# over 1200 random Davies models at d = 2-4 (seeds 0-39) the worst entry read 1.2e-14 past P_ATOL
P_RTOL = 2e-14
P_ATOL = 1e-15
# the default tau grid, then the times at which qdb2 once took a semigroup's maps
GRID = tuple(np.geomspace(0.01, 50.0, 40)) + report.QDB2_TAUS
GOLDEN_MODEL = Path(__file__).parent / "golden" / "davies3_circulating.json"


def _scenario(name, *flags):
    args = _build_parser().parse_args(["example", name, *flags])
    return [cli._scenario(name, args, [{}])[0]]


SECULAR = {
    **{f"davies{d}-{kind}": (d, kind == "circulating") for d in (2, 3, 4) for kind in ("balanced", "circulating")
       if d > 2 or kind == "balanced"},
    "b": ("b",),
    "b-beta-f-5-gamma-0.05": ("b", "--beta-f", "5", "--gamma", "0.05"),
    "c-nu-alpha": ("c", "--nu-scale", "1"),
}


def _secular_sources(rng, case) -> list:
    spec = SECULAR[case]
    if isinstance(spec[0], int):
        return [davies_source(rng, *spec) for _ in range(5)]
    return _scenario(*spec)


@pytest.mark.parametrize("case", sorted(SECULAR))
def test_secular_sources_take_exp_tau_w_within_roundoff_of_the_full_route(rng, monkeypatch, case):
    sources = _secular_sources(rng, case)
    shapes = expm_shapes(monkeypatch)
    generators, maps, probs = maps_of(block(sources), (), GRID, TOL_CPTP)
    d = sources[0].h.dim
    assert shapes == [(len(sources), d, d)]  # the rate blocks only
    want_generators, want_maps, want_probs = reference_maps_of(block(sources), (), GRID, TOL_CPTP)
    assert maps is want_maps is None
    assert np.array_equal(generators, want_generators)  # H is diagonal: its eigenframe is its own basis
    np.testing.assert_allclose(probs, want_probs, rtol=P_RTOL, atol=P_ATOL)


def _model_file(path: Path, gen: LindbladGenerator) -> Path:
    save_model(gen, path)
    return path


def _rotated_davies(rng) -> LindbladGenerator:
    """A Davies model in a random complex eigenbasis: secular in exact
    arithmetic, but its eigenframe couplings are roundoff, not 0."""
    gen = davies_generator(rng, 3, False)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    h = HamiltonianSpec.from_matrix(u @ gen.hamiltonian.matrix @ dag(u))
    return LindbladGenerator(h, gen.kossakowski, u @ gen.basis @ dag(u))


def _bloch4_model(path: Path, nu_scale: float) -> Path:
    p = example_c_qdb_point(0.5, 0.1, 1.0, 1.0)
    l4 = example_c_bloch_matrix(p.replace(nu=p.nu * nu_scale))
    model = {"schema": 1, "kind": "bloch4", "hamiltonian": [[-0.5, 0], [0, 0.5]], "generator": l4.tolist()}
    path.write_text(json.dumps(model))
    return path


def _reports(tmp_path, monkeypatch, argv, reference=None) -> dict:
    """The files one command writes, by name, on the route of the package
    or with ``reference`` in place of ``maps_of``."""
    out = tmp_path / (reference.__name__ if reference else "routed")
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(report, "maps_of", reference)
        assert main([*argv, "--out", str(out)]) == EXIT_OK
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _assert_same_verdicts_and_row_keys(got: dict, want: dict, deviation_atol=1e-13) -> None:
    """The reports ``got`` and ``want`` have the same files, classifications,
    beta_f, pass flags and row keys, and their other cells agree within
    roundoff: p_plus, p_minus, R and predicted within 1e-12 of each entry,
    the deviation within ``deviation_atol``."""
    assert got.keys() == want.keys()
    for name in got:
        if name.endswith("_verdict.json"):
            g, w = json.loads(got[name]), json.loads(want[name])
            assert g["classification"]["kind"] == w["classification"]["kind"]
            assert g["classification"]["beta_f"] == pytest.approx(w["classification"]["beta_f"], rel=1e-13)
            for section in ("qdb1", "qdb2"):
                assert (g[section] and g[section]["passes"]) == (w[section] and w[section]["passes"])
            assert g["qfr_passes"] == w["qfr_passes"]
        else:
            rows = [[line.split(",") for line in files[name].decode().splitlines()] for files in (got, want)]
            assert [r[:2] for r in rows[0]] == [r[:2] for r in rows[1]]  # the header and every (tau, E) key
            cells = [np.array([[float(x) if x else np.nan for x in r[2:]] for r in rs[1:]]) for rs in rows]
            # p_plus, p_minus, R and predicted; a deviation |R / predicted - 1| moves by R's roundoff
            np.testing.assert_allclose(cells[0][:, :4], cells[1][:, :4], rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(cells[0][:, 4:], cells[1][:, 4:], rtol=0, atol=deviation_atol)


def _secular_argv(tmp_path, rng, case):
    if case.startswith("check-d"):
        d, kind = int(case[7]), case[9:]
        return ["check", str(_model_file(tmp_path / f"{case}.json", davies_generator(rng, d, kind == "circulating")))]
    return {"check-golden": ["check", str(GOLDEN_MODEL)], "b": ["example", "b"],
            "b-beta-f-5-gamma-0.05": ["example", "b", "--beta-f", "5", "--gamma", "0.05"],
            "c-nu-alpha": ["example", "c", "--nu-scale", "1"]}[case]


@pytest.mark.parametrize(
    "case",
    ["check-d2-balanced", "check-d3-balanced", "check-d3-circulating", "check-d4-balanced", "check-d4-circulating",
     "check-golden", "b", "b-beta-f-5-gamma-0.05", "c-nu-alpha"],
)
def test_secular_reports_keep_the_full_routes_verdicts_and_row_keys(tmp_path, rng, monkeypatch, case):
    argv = _secular_argv(tmp_path, rng, case)
    got, want = _reports(tmp_path, monkeypatch, argv), _reports(tmp_path, monkeypatch, argv, reference_maps_of)
    for name in got:
        if name.endswith("_verdict.json"):  # H is diagonal: beta_f is read from the same generator
            assert json.loads(got[name])["classification"] == json.loads(want[name])["classification"]
    _assert_same_verdicts_and_row_keys(got, want)


@pytest.mark.parametrize("case", ["example-a", "c-nu-scale-1.1", "check-rotated-davies", "check-bloch4-nu-not-alpha"])
def test_other_sources_write_the_full_routes_bytes(tmp_path, rng, monkeypatch, case):
    argv = {
        "example-a": lambda: ["example", "a"],
        "c-nu-scale-1.1": lambda: ["example", "c"],
        "check-rotated-davies": lambda: ["check", str(_model_file(tmp_path / "rotated.json", _rotated_davies(rng)))],
        "check-bloch4-nu-not-alpha": lambda: ["check", str(_bloch4_model(tmp_path / "bloch4.json", 1.1))],
    }[case]()
    shapes = expm_shapes(monkeypatch)
    got = _reports(tmp_path, monkeypatch, argv)
    d = 2 if case != "check-rotated-davies" else 3
    assert all(shape[-1] == d * d for shape in shapes)  # no rate block took an exponential
    # a rotated model's maps are exp(tau Q^dag L Q), which are Q^dag exp(tau L) Q only up to roundoff
    reference = reference_frame_route if case == "check-rotated-davies" else reference_maps_of
    assert got == _reports(tmp_path, monkeypatch, argv, reference)


@pytest.mark.parametrize("d, circulating", [(3, False), (3, True), (4, False), (4, True)])
def test_rotated_models_keep_the_verdicts_and_row_keys_of_the_original_frame_route(tmp_path, rng, monkeypatch, d,
                                                                                   circulating):
    # the full route in the eigenframe against exp(tau L) in the basis of H's matrix, taken to the frame after;
    # a deviation |R / predicted - 1| near 1 moves by R's relative roundoff, 1e-12
    gen = davies_generator(rng, d, circulating)
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    h = HamiltonianSpec.from_matrix(u @ gen.hamiltonian.matrix @ dag(u))
    model = _model_file(tmp_path / "rotated.json", LindbladGenerator(h, gen.kossakowski, u @ gen.basis @ dag(u)))
    argv = ["check", str(model)]
    _assert_same_verdicts_and_row_keys(_reports(tmp_path, monkeypatch, argv),
                                       _reports(tmp_path, monkeypatch, argv, reference_maps_of), deviation_atol=1e-12)


@pytest.mark.parametrize("coupling, route", [(-0.0, "population"), (1e-300, "full")])
def test_the_secular_test_is_structural(rng, monkeypatch, coupling, route):
    # H is diagonal, so the eigenframe is the column-stacking basis and the entry
    # from |0><0| to the coherence |1><0| (index 1) is the generator's own
    gen = davies_generator(rng, 3, False)
    l = lindblad_superop(gen)
    assert l[1, 0] == 0
    l[1, 0] = coupling
    shapes = expm_shapes(monkeypatch)
    maps_of(Dynamics.semigroup(gen.hamiltonian, l), (), GRID, TOL_CPTP)
    assert shapes == [(1, 3, 3) if route == "population" else (1, 9, 9)]
