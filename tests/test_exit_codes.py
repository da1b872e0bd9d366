"""The exit-code contract under generated input.

Every command line and model file ends in exit code 0, 2, 3 or 4: no
exception escapes ``cli.main`` and, under the suite's warnings-as-errors, no
numpy warning is printed.  The inputs mix ordinary values with 0, the
subnormal range, values near the float range, nan and infinities, malformed
grids and ranges, and model files of the wrong shape or with missing fields.
Hypothesis runs derandomized and without its example database, so the same
inputs run every time.
"""

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qdblab.cli import main

CONTRACT = {0, 2, 3, 4}
FUZZ = settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

ORDINARY = [0.3, 0.5, 1.0, 1.5, 2.0, 3.0, 0.1, 5.0, 10.0, 0.01, -1.0, 20.0]
EXTREMES = [0.0, 1e-300, -1e-300, 1e300, -1e300, 1e308, -1e308]
NON_FINITE = [math.nan, math.inf, -math.inf]
# ordinary values more often than extreme ones, so that most runs get past the first
# check; a model's entries are rarely non-finite, as one such entry rejects the file
NUMBERS = st.sampled_from([*ORDINARY, *EXTREMES, *NON_FINITE])
ENTRIES = st.sampled_from([*ORDINARY, *ORDINARY, *ORDINARY, 0.0, 0.0, 0.0, *EXTREMES, *NON_FINITE[:2]])


def _mostly(good, bad):
    """One of the strings ``good``, five times as often as one of ``bad``."""
    return st.sampled_from([*good * 5, *bad])


# small grids keep a run short
TAU_GRIDS = _mostly(["0.5", "0.3,1", "log:0.1:2:3", "0,1e300"], ["1e308", "1,0.5", "log:1:2", "log:0:1:3", "abc", ""])
S_GRIDS = _mostly(["0,0.5,1", "0.5", "0,1e-300"], ["2", "1,0", "", "nan"])
RANGES = _mostly(["0.5:2:2", "1e300:1e308:2", "1e-300:1e-299:2"], ["nan:1:2", "1:2", "0:1:0", "-1:1:2", "x:1:2"])


def _flag_values(flags):
    """``[flag=value, ...]`` for a subset of ``flags``, each value a number."""
    return st.lists(st.tuples(st.sampled_from(flags), NUMBERS), max_size=3).map(
        lambda pairs: [f"{flag}={value!r}" for flag, value in pairs]
    )


COMMON = _flag_values(["--beta-i", "--beta-f", "--tol-qdb", "--tol-qfr", "--tol-cptp"])
SCENARIO = _flag_values(["--omega", "--gamma", "--mu", "--eta", "--nu-scale"])
GRIDS = st.tuples(TAU_GRIDS, S_GRIDS, st.sampled_from(["csv", "json"])).map(
    lambda g: [f"--tau-grid={g[0]}", f"--s-grid={g[1]}", f"--format={g[2]}"]
)


def _matrix(rows, cols, hermitian=False):
    """A rows x cols matrix of real entries or one of ``[re, im]`` pairs,
    with its lower triangle made the conjugate of its upper one if
    ``hermitian``."""
    pairs = st.tuples(ENTRIES, ENTRIES).map(list)
    matrices = (st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)
                for entry in (ENTRIES, pairs))
    return st.one_of(*matrices).map(lambda m: _conjugate_lower(m) if hermitian and rows == cols else m)


def _conjugate_lower(m):
    for i in range(len(m)):
        for j in range(i):
            m[i][j] = [m[j][i][0], -m[j][i][1]] if isinstance(m[j][i], list) else m[j][i]
        if isinstance(m[i][i], list):
            m[i][i] = [m[i][i][0], 0.0]
    return m


@st.composite
def models(draw):
    """A model file of one of the three kinds, d = 1..4, with entries up to
    the float range, sometimes of the wrong shape or missing a field."""
    d = draw(st.integers(1, 4))
    n = d if draw(st.booleans()) else draw(st.integers(1, 4))  # mostly the right size
    kind = draw(st.sampled_from(["lindblad", "kraus", "bloch4"]))
    obj = {"schema": 1, "kind": kind, "hamiltonian": draw(_matrix(d, d, hermitian=draw(st.booleans())))}
    if kind == "lindblad":
        k = n * n - 1
        obj["kossakowski"] = draw(st.one_of(st.just([]), _matrix(k, k, hermitian=draw(st.booleans()))))
    elif kind == "kraus":
        identity = [[float(i == j) for j in range(n)] for i in range(n)]
        obj["kraus_ops"] = draw(st.one_of(st.just([identity]), st.lists(_matrix(n, n), min_size=1, max_size=2)))
        if draw(st.booleans()):
            obj["tau"] = draw(NUMBERS)
    else:
        obj["generator"] = draw(_matrix(4, 4) if n == d else _matrix(n, n))
    missing = draw(st.sampled_from([None, None, None, "hamiltonian", "kossakowski", "kraus_ops", "generator"]))
    obj.pop(missing, None)
    return obj


def _run(argv, out) -> int:
    code = main([*argv, "--out", str(out)])
    assert code in CONTRACT, (argv, code)
    return code


@FUZZ
@given(name=st.sampled_from(["a", "b", "c"]), grids=GRIDS, common=COMMON, scenario=SCENARIO,
       schedule=st.sampled_from([[], ["--q-schedule", "fpt"]]))
def test_example_keeps_the_exit_code_contract(tmp_path_factory, name, grids, common, scenario, schedule):
    _run(["example", name, *grids, *common, *scenario, *schedule], tmp_path_factory.getbasetemp() / "example")


@FUZZ
@given(model=models(), grids=GRIDS, common=COMMON)
def test_check_keeps_the_exit_code_contract(tmp_path_factory, model, grids, common):
    path = tmp_path_factory.getbasetemp() / "fuzz_model.json"
    path.write_text(json.dumps(model))
    _run(["check", str(path), *grids, *common], tmp_path_factory.getbasetemp() / "check")


@FUZZ
@given(target=st.sampled_from(["a", "b", "c", "model"]), parameter=st.sampled_from(
    ["beta_i", "beta_f", "omega", "gamma", "mu", "eta", "nu", "alpha", "chi", "zeta", "kappa"]),
    values=RANGES, model=models(), grids=GRIDS, scenario=SCENARIO)
def test_sweep_keeps_the_exit_code_contract(tmp_path_factory, target, parameter, values, model, grids, scenario):
    if target == "model":
        target = str(tmp_path_factory.getbasetemp() / "fuzz_sweep_model.json")
        (tmp_path_factory.getbasetemp() / "fuzz_sweep_model.json").write_text(json.dumps(model))
    argv = ["sweep", target, "--parameter", parameter, f"--range={values}", *grids, *scenario]
    _run(argv, tmp_path_factory.getbasetemp() / "sweep")
