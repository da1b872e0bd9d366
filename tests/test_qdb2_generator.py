"""A semigroup's qdb2 is one generator identity, at every tau.

In H's eigenframe, ``check_qdb2`` asks that ``W G#`` be symmetric, with W
the unit weights and G# the trace dual of a map.  For a semigroup, ``W
exp(tau L#)`` is symmetric at every tau >= 0 exactly when ``W L#`` is, its
derivative at tau = 0 (Fagnola & Umanita 2007).  So ``report.analyse``
judges a semigroup's qdb2 by ``check_qdb2`` of its eigenframe generator over
its 1-norm, with no time in it, and takes no maps for it.

The map-level check at sampled tau, ``conftest.reference_map_qdb2``, is the
oracle: on the Davies fixtures and scenarios B and C both pass or both
fail.  A change of units leaves the residual alone, and a semigroup's run
exponentiates nothing but its tau grid.

A channel family has no generator: its qdb2 is ``check_qdb2`` of the maps
that classify reads, at ``FIXED_POINT_TAUS``, and a single map's of its one
map, whatever its tau, stored or not; neither builds a map for qdb2 alone.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from conftest import TOL_CPTP, block, davies_source, reference_map_qdb2, reference_maps_of
from qdblab import cli, dynamics, matlin
from qdblab.balance import check_qdb2
from qdblab.cli import EXIT_OK, _build_parser, main
from qdblab.errors import NotTracePreserving
from qdblab.fluctuation import FIXED_POINT_TAUS
from qdblab.report import analyse

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_MODEL = GOLDEN / "davies3_circulating.json"
TAU_GRID = tuple(np.geomspace(0.01, 50.0, 40))
S_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
TOL_QDB = 1e-9


def _scenario(name, *flags, points=({},)):
    args = _build_parser().parse_args(["example", name, *flags])
    return cli._scenario(name, args, list(points))[0]


# each case's block and whether its dynamics is balanced
CASES = {
    **{f"davies{d}-{kind}": (d, kind == "circulating") for d in (2, 3, 4) for kind in ("balanced", "circulating")
       if d > 2 or kind == "balanced"},
    "b": ("b",),
    "b-beta-f-5": ("b", "--beta-f", "5"),
    "c-nu-alpha": ("c", "--nu-scale", "1"),
    "c-off-balance": ("c",),
}


def _case(rng, case):
    spec = CASES[case]
    if isinstance(spec[0], int):
        return block([davies_source(rng, *spec) for _ in range(5)]), not spec[1]
    return _scenario(*spec), spec[0] == "b" or spec[1:] == ("--nu-scale", "1")


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_generator_identity_agrees_with_map_level_qdb2(rng, case):
    dynamics, balanced = _case(rng, case)
    sections, betas, *_ = analyse(dynamics, TAU_GRID, S_GRID, TOL_QDB, TOL_CPTP)
    oracle = reference_map_qdb2(dynamics, betas, S_GRID).max(axis=1) < TOL_QDB
    for section, map_passes in zip(sections, oracle):
        assert section["qdb2"]["taus"] == "all"
        assert section["qdb2"]["passes"] == map_passes == balanced


def _scaled_model(tmp_path, c) -> Path:
    model = json.loads(GOLDEN_MODEL.read_text())
    for key in ("hamiltonian", "kossakowski"):
        model[key] = (c * np.array(model[key])).tolist()
    path = tmp_path / f"scaled_{c:g}.json"
    path.write_text(json.dumps(model))
    return path


def test_a_change_of_units_leaves_qdb2_alone(tmp_path, capsys):
    # H and L scaled by c: the map-level check at absolute times passed at c = 1e-9 and 1e3 and failed at 1e-3
    # and 1; the identity reads one residual at every c, and fails
    residuals = []
    for c in (1e-9, 1e-3, 1.0, 1e3):
        out = tmp_path / f"out_{c:g}"
        assert main(["check", str(_scaled_model(tmp_path, c)), "--out", str(out)]) == EXIT_OK
        qdb2 = json.loads((out / f"check_scaled_{c:g}_verdict.json").read_text())["qdb2"]
        assert qdb2["passes"] is False and qdb2["taus"] == "all"
        residuals.append(qdb2["max_residual"])
    np.testing.assert_allclose(residuals, residuals[2], rtol=1e-12, atol=0)
    # at 1e6 the absolute STOCHASTIC_ATOL still stops the run (ROADMAP item 2)
    capsys.readouterr()
    assert main(["check", str(_scaled_model(tmp_path, 1e6)), "--out", str(tmp_path / "big")]) == 3
    assert capsys.readouterr().err.startswith(f"{NotTracePreserving.__name__}: ")


def test_a_semigroup_exponentiates_only_its_tau_grid(tmp_path, monkeypatch):
    axes, expm = [], matlin.expm
    monkeypatch.setattr(matlin, "expm", lambda generators, taus: axes.append(len(taus)) or expm(generators, taus))
    assert main(["check", str(GOLDEN_MODEL), "--out", str(tmp_path)]) == EXIT_OK
    assert axes == [len(TAU_GRID)]


def test_qdb2_fails_where_qdb1_fails_once_the_maps_have_relaxed(tmp_path):
    # scenario C off balance at beta_f = 7: its maps at the absolute times 0.1 ... 5 are close to the Gibbs
    # projection, where the map-level check passed
    assert main(["example", "c", "--beta-f", "7", "--out", str(tmp_path)]) == EXIT_OK
    verdict = json.loads((tmp_path / "example_c_verdict.json").read_text())
    assert verdict["qdb1"]["passes"] is False and verdict["qdb2"]["passes"] is False
    assert verdict["qdb2"]["taus"] == "all"


# scenario A's flags and points: either schedule, and a block of three of its points
FAMILIES = {
    "a": ((), [{}]),
    "a-fpt": (("--q-schedule", "fpt"), [{}]),
    "a-omega": ((), [{"omega": 0.8}, {"omega": 1.2}, {"omega": 1.6}]),
}


@pytest.mark.parametrize("case", sorted(FAMILIES))
def test_a_familys_qdb2_reads_the_maps_that_classify_reads(case):
    flags, points = FAMILIES[case]
    family = _scenario("a", *flags, points=points)
    sections, betas, *_ = analyse(family, TAU_GRID, S_GRID, TOL_QDB, TOL_CPTP)
    _, maps, _ = reference_maps_of(family, FIXED_POINT_TAUS, (), TOL_CPTP)
    want = check_qdb2(family.h, betas, S_GRID, maps)
    # H is diagonal, so the reference's maps, taken to the eigenframe after, are the package's bit for bit
    assert len(sections) == len(points)
    for section, residuals in zip(sections, want.tolist()):
        assert section["qdb2"]["taus"] == list(FIXED_POINT_TAUS)
        assert list(section["qdb2"]["per_s"].values()) == residuals


def _circulating_map(path: Path, tau) -> Path:
    """A d = 3 Kraus file, stored at ``tau`` (without one for None), of one
    dephasing map whose level transitions keep the Gibbs state at beta 1
    with a current around the levels: a thermal fixed point, and no detailed
    balance."""
    e, flux = np.array([0.0, 0.7, 1.6]), 0.05
    p = np.exp(-e) / np.exp(-e).sum()
    moves = np.eye(3)
    for m in range(3):  # m -> m + 1 at the rate flux / p[m], so every level's inflow is its outflow
        n = (m + 1) % 3
        moves[n, m] += flux / p[m]
        moves[m, m] -= flux / p[m]
    ops = [(np.sqrt(moves[n, m]) * np.outer(np.eye(3)[n], np.eye(3)[m])).tolist() for n in range(3) for m in range(3)]
    model = {"schema": 1, "kind": "kraus", "hamiltonian": np.diag(e).tolist(), "kraus_ops": ops}
    path.write_text(json.dumps(model if tau is None else {**model, "tau": tau}))
    return path


def test_a_single_maps_qdb2_does_not_depend_on_its_tau(tmp_path):
    verdicts = {}
    for tau in (1.0, 7.0, None):
        model = _circulating_map(tmp_path / f"map_{tau}.json", tau)
        assert main(["check", str(model), "--out", str(tmp_path)]) == EXIT_OK
        verdicts[tau] = json.loads((tmp_path / f"check_map_{tau}_verdict.json").read_text())
    assert [v["qdb2"]["taus"] for v in verdicts.values()] == [[1.0], [7.0], ["nan"]]
    per_s = [v["qdb2"]["per_s"] for v in verdicts.values()]
    assert per_s[0] == per_s[1] == per_s[2] and min(per_s[0].values()) > TOL_QDB
    assert [v["classification"]["beta_f"] for v in verdicts.values()] == pytest.approx([1.0] * 3, rel=1e-12)


@pytest.mark.parametrize(
    "argv, shapes",
    [
        (("example", "a"), [(1, len(FIXED_POINT_TAUS))]),
        (("sweep", "a", "--parameter", "omega", "--range", "0.8:1.6:3"), [(3, len(FIXED_POINT_TAUS))]),
        (("check", str(GOLDEN / "scenario_a_tau1.json")), [(1, 1)]),
        (("check", str(GOLDEN / "gad_no_tau.json")), [(1, 1)]),
    ],
    ids=["example-a", "sweep-a-omega", "check-kraus", "check-kraus-without-tau"],
)
def test_a_map_is_built_once_for_classify_and_qdb2(tmp_path, monkeypatch, argv, shapes):
    # per point, a family's full maps are those at FIXED_POINT_TAUS and a single map's is its one map
    seen, build = [], dynamics._kraus_superops
    monkeypatch.setattr(dynamics, "_kraus_superops", lambda kraus: seen.append(kraus.shape[:2]) or build(kraus))
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_OK
    assert seen == shapes
