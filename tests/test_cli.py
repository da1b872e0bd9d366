import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdblab

from conftest import expm_shapes, inverted_qubit, random_complex, random_lindblad, thermal_circulation_qutrit
from qdblab.cli import EXIT_OK, _build_parser, load_model, main, parse_grid, parse_range, save_model
from qdblab.dynamics import Dynamics, LindbladGenerator, lindblad_superop
from qdblab.errors import ConfigError, InternalCheckError, QdblabError
from qdblab.examples import (
    ExampleBParams,
    example_b_generator,
    example_c_bloch_matrix,
    example_c_qdb_point,
    qubit_hamiltonian,
)
from qdblab.report import analyse, build_report, fmt_float
from qdblab.states import HamiltonianSpec

FAST = ["--tau-grid", "0.3,1,3", "--s-grid", "0,0.5,1"]
# Kraus operators that sum to diag(2.21, 0), not to I, and the line that a model file of them exits with as it loads
NON_TP_OPS = [[[1.1, 0], [0, 0]], [[0, 0], [1, 0]]]
NON_TP_KRAUS = "NotTracePreserving: sum G^dag G differs from identity by 1.210e+00"


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


class TestParsing:
    def test_log_grid(self):
        grid = parse_grid("log:0.01:50:40")
        assert len(grid) == 40
        assert abs(grid[0] - 0.01) < 1e-15 and abs(grid[-1] - 50.0) < 1e-12

    def test_comma_grid(self):
        assert parse_grid("0.5,1,2") == (0.5, 1.0, 2.0)

    def test_bad_grid(self):
        with pytest.raises(ConfigError):
            parse_grid("log:1:2")

    def test_range(self):
        assert parse_range("0:1:3") == (0.0, 0.5, 1.0)
        assert parse_range("0:1:0") == ()

    def test_fmt_float_17_digits(self):
        assert fmt_float(0.1) == "0.10000000000000001"
        assert fmt_float(None) == ""
        assert fmt_float(True) == "true"


class TestExampleCommand:
    def test_b_verdict(self, tmp_path):
        assert run(tmp_path, "example", "b", *FAST) == EXIT_OK
        verdict = json.loads((tmp_path / "example_b_verdict.json").read_text())
        assert verdict["classification"]["kind"] == "fpt"
        assert verdict["qdb1"]["passes"] is True
        assert verdict["qdb2"]["passes"] is True
        assert verdict["qfr_max_deviation"] < 1e-9

    def test_c_verdict(self, tmp_path):
        assert run(tmp_path, "example", "c", *FAST) == EXIT_OK
        verdict = json.loads((tmp_path / "example_c_verdict.json").read_text())
        assert verdict["classification"]["kind"] == "fpt"
        assert verdict["qdb1"]["passes"] is False
        assert verdict["qdb2"]["passes"] is False
        assert verdict["qfr_max_deviation"] < 1e-9

    def test_c_at_very_low_temperature_meets_the_population_floor(self, tmp_path):
        # at nu-scale 1 the generator is CP, but the excited population e^-200
        # lies below the 1e-14 floor of infer_beta: the fixed point reads as
        # the ground state (beta_f inf) and the ratio law as failed.  A
        # log-domain inference would report beta_f 200 instead.
        assert run(tmp_path, "example", "c", "--beta-f", "200", "--nu-scale", "1", *FAST) == EXIT_OK
        verdict = json.loads((tmp_path / "example_c_verdict.json").read_text())
        assert verdict["classification"]["kind"] == "fpt"
        assert verdict["classification"]["beta_f"] == "inf"
        assert verdict["qfr_passes"] is False

    def test_a_rows_have_correction_column(self, tmp_path):
        assert run(tmp_path, "example", "a", *FAST) == EXIT_OK
        header = (tmp_path / "example_a_rows.csv").read_text().splitlines()[0]
        assert header.split(",") == [
            "tau", "E", "p_plus", "p_minus", "R", "predicted", "deviation", "F_tau",
        ]
        verdict = json.loads((tmp_path / "example_a_verdict.json").read_text())
        assert verdict["classification"]["kind"] == "thermalizing"
        assert verdict["qdb1"] is None

    def test_a_constant_bias_correction_is_one(self, tmp_path):
        assert run(tmp_path, "example", "a", "--q-schedule", "fpt", *FAST) == EXIT_OK
        lines = (tmp_path / "example_a_rows.csv").read_text().splitlines()
        f_idx = lines[0].split(",").index("F_tau")
        for line in lines[1:]:
            assert line.split(",")[f_idx] == "1"

    def test_json_row_format(self, tmp_path):
        assert run(tmp_path, "example", "b", "--format", "json", *FAST) == EXIT_OK
        rows = json.loads((tmp_path / "example_b_rows.json").read_text())
        assert rows["columns"][0] == "tau"
        assert len(rows["rows"]) > 0

    def test_byte_determinism(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["example", "b", *FAST, "--out", str(out1)]) == EXIT_OK
        assert main(["example", "b", *FAST, "--out", str(out2)]) == EXIT_OK
        assert (out1 / "example_b_rows.csv").read_bytes() == (out2 / "example_b_rows.csv").read_bytes()
        assert (out1 / "example_b_verdict.json").read_bytes() == (out2 / "example_b_verdict.json").read_bytes()


class TestCheckCommand:
    def test_roundtrip_preserves_verdicts(self, tmp_path):
        # scenario B written by --save-model as a lindblad file, and scenario C at its defaults written as a bloch4
        # file, report what the scenarios report: the rows byte for byte, and every verdict key but the names
        assert run(tmp_path, "example", "b", *FAST, "--save-model", str(tmp_path / "model_b.json")) == EXIT_OK
        assert run(tmp_path, "example", "c", *FAST) == EXIT_OK
        args = _build_parser().parse_args(["example", "c"])
        p = example_c_qdb_point(args.mu, args.eta, args.omega, args.beta_f)
        model = {"schema": 1, "kind": "bloch4", "hamiltonian": qubit_hamiltonian(args.omega).matrix.real.tolist(),
                 "generator": example_c_bloch_matrix(p.replace(nu=p.nu * args.nu_scale)).tolist()}
        (tmp_path / "model_c.json").write_text(json.dumps(model))
        for name in "bc":
            assert run(tmp_path, "check", str(tmp_path / f"model_{name}.json"), *FAST) == EXIT_OK
            scenario, check = tmp_path / f"example_{name}", tmp_path / f"check_model_{name}"
            assert Path(f"{scenario}_rows.csv").read_bytes() == Path(f"{check}_rows.csv").read_bytes()
            v1, v2 = (json.loads(Path(f"{stem}_verdict.json").read_text()) for stem in (scenario, check))
            names = ("source", "example", "model")
            assert {k: v for k, v in v1.items() if k not in names} == {k: v for k, v in v2.items() if k not in names}

    @pytest.mark.parametrize("n_jumps", [0, 2])
    def test_jump_generator_roundtrip_is_bitwise(self, rng, tmp_path, n_jumps):
        # jumps with a trace part: the file keeps the basis, so nothing is re-projected
        h = thermal_circulation_qutrit(rng, 1.0)[1]
        jumps = [random_complex(rng, 3), random_complex(rng, 3) + 0.7 * np.eye(3)][:n_jumps]
        gen = LindbladGenerator.from_jump_operators(h, jumps)
        save_model(gen, tmp_path / "jumps.json")
        loaded = load_model(tmp_path / "jumps.json")
        assert np.array_equal(loaded.generator[0], lindblad_superop(gen))

    def test_model_without_basis_is_canonical(self, rng, tmp_path):
        gen = random_lindblad(rng, 2)
        save_model(gen, tmp_path / "canonical.json")
        obj = json.loads((tmp_path / "canonical.json").read_text())
        del obj["basis"]
        (tmp_path / "canonical.json").write_text(json.dumps(obj))
        loaded = load_model(tmp_path / "canonical.json")
        assert np.array_equal(loaded.generator[0], lindblad_superop(gen))

    @pytest.mark.parametrize(
        "basis, code, message",
        [
            ("not a list", ConfigError.exit_code, "ConfigError: basis must be a list"),
            ([[[1, 0, 0], [0, -1, 0], [0, 0, 0]]] * 2, QdblabError.exit_code, "DimensionMismatch: dissipator basis"),
            ([[[0, 1], [0, 0]]], QdblabError.exit_code, "DimensionMismatch: Kossakowski matrix must be 1x1"),
            ([[[0, 1], [0, 0]], [[1, 0], [0, 0]]], ConfigError.exit_code, "ConfigError: model file"),
            ([[[0, 1], [0, 0]], 5], ConfigError.exit_code, "ConfigError: matrix must be"),
            # matrices of different shapes make no stack
            ([[[0, 1], [0, 0]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]]], QdblabError.exit_code,
             "DimensionMismatch: dissipator basis matrix shape does not match the Hamiltonian\n"),
        ],
        ids=["not-a-list", "wrong-shape", "wrong-count", "traced", "not-a-matrix", "ragged"],
    )
    def test_bad_basis_exits_without_traceback(self, tmp_path, capsys, basis, code, message):
        save_model(example_b_generator(ExampleBParams(1.0, 1.0, 1.0)), tmp_path / "model.json")
        obj = json.loads((tmp_path / "model.json").read_text())
        obj["basis"] = basis
        (tmp_path / "model.json").write_text(json.dumps(obj))
        assert run(tmp_path, "check", str(tmp_path / "model.json")) == code
        err = capsys.readouterr().err
        assert err.startswith(message) and "Traceback" not in err

    @pytest.mark.parametrize(
        "kraus_ops, message",
        [
            # no operator sums to 0, not to I
            ([], "NotTracePreserving: sum G^dag G differs from identity by 1.000e+00"),
            (
                [np.eye(2).tolist(), np.eye(3).tolist()],
                "DimensionMismatch: Kraus operator shape does not match the Hamiltonian",
            ),
            ([[[1, 0, 0], [0, 1, 0]]], "DimensionMismatch: Kraus operator shape does not match the Hamiltonian"),
            ([np.eye(3).tolist()], "DimensionMismatch: Kraus operator shape does not match the Hamiltonian"),
        ],
        ids=["empty", "ragged", "not-square", "wrong-dimension"],
    )
    def test_bad_kraus_ops_exit_without_traceback(self, tmp_path, capsys, kraus_ops, message):
        model = {"schema": 1, "kind": "kraus", "hamiltonian": [[-0.5, 0], [0, 0.5]], "kraus_ops": kraus_ops}
        (tmp_path / "model.json").write_text(json.dumps(model))
        assert run(tmp_path, "check", str(tmp_path / "model.json")) == QdblabError.exit_code
        assert capsys.readouterr().err == f"{message}\n"

    @pytest.mark.parametrize("beta_f",["20", "21.5", "22", "23.5", "26", "27", "28", "30", "32"])
    def test_scenario_b_passes_both_balance_checks_at_low_temperature(self, tmp_path, beta_f):
        # the small rate gamma n_bar stays a jump of its own: no cancellation;
        # from 28 the excited population is below 1e-12, and the checks take
        # its logarithm, so no rank floor makes them n/a
        assert run(tmp_path, "example", "b", "--beta-f", beta_f, *FAST) == EXIT_OK
        verdict = json.loads((tmp_path / "example_b_verdict.json").read_text())
        assert verdict["qdb1"]["passes"] is True
        assert verdict["qdb2"]["passes"] is True

    @pytest.mark.parametrize("beta", ["25", "30", "33"])
    @pytest.mark.parametrize("gamma", ["1e4", "3e4", "1e5", "3e5"])
    def test_scenario_b_at_fast_rates_and_low_temperature_has_a_verdict(self, tmp_path, gamma, beta):
        # on the default grids the rows sum to 1 only within up to 2.3e-10, and a record near 1 reads up to
        # 1 + 1.2e-10 (1 + 7.1e-12 at gamma 1e4, beta 30): the records are judged by their sum, within the rows'
        # own bound STOCHASTIC_ATOL, not each against 1 + 1e-12
        assert run(tmp_path, "example", "b", "--gamma", gamma, "--beta-f", beta, "--beta-i", beta) == EXIT_OK
        verdict = json.loads((tmp_path / "example_b_verdict.json").read_text())
        assert verdict["classification"]["kind"] == "fpt"

    def test_inverted_populations_pass_both_balance_checks(self, tmp_path):
        gen, beta_f = inverted_qubit()
        save_model(gen, tmp_path / "inv.json")
        assert run(tmp_path, "check", str(tmp_path / "inv.json"), *FAST) == EXIT_OK
        verdict = json.loads((tmp_path / "check_inv_verdict.json").read_text())
        assert verdict["classification"]["beta_f"] == pytest.approx(beta_f, rel=1e-12)
        assert verdict["qdb1"]["passes"] is True
        assert verdict["qdb2"]["passes"] is True

    def test_indefinite_kossakowski_exits_3(self, tmp_path, capsys):
        model_path = tmp_path / "bad.json"
        save_model(example_b_generator(ExampleBParams(1.0, 1.0, 1.0)), model_path)
        obj = json.loads(model_path.read_text())
        obj["kossakowski"][0][0] = [-0.5, 0.0]
        model_path.write_text(json.dumps(obj))
        assert run(tmp_path, "check", str(model_path)) == QdblabError.exit_code
        assert "KossakowskiNotPSD" in capsys.readouterr().err

    def test_non_trace_preserving_kraus_exits_3(self, tmp_path, capsys):
        model_path = tmp_path / "bad_kraus.json"
        model_path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "kind": "kraus",
                    "hamiltonian": [[[-0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
                    "kraus_ops": [[[[1, 0], [0, 0]], [[0, 0], [0.8, 0]]]],
                    "tau": 1.0,
                }
            )
        )
        assert run(tmp_path, "check", str(model_path)) == QdblabError.exit_code
        assert "NotTracePreserving" in capsys.readouterr().err

    def test_kraus_model_reports_single_map(self, tmp_path):
        from qdblab.examples import ExampleAParams, example_a_channel

        kraus = example_a_channel(*ExampleAParams(1.0, 1.0).schedules((1.0,)))[0]
        ops = [[[[x.real, x.imag] for x in row] for row in g] for g in kraus]
        model_path = tmp_path / "gad.json"
        model_path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "kind": "kraus",
                    "hamiltonian": [[[-0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
                    "kraus_ops": ops,
                    "tau": 1.0,
                }
            )
        )
        assert run(tmp_path, "check", str(model_path), *FAST) == EXIT_OK
        verdict = json.loads((tmp_path / "check_gad_verdict.json").read_text())
        assert verdict["classification"]["kind"] == "single_map"
        assert verdict["qdb1"] is None
        # the fixed point holds the excited level with probability q(1); omega = 1
        q1 = ExampleAParams(1.0, 1.0).schedules((1.0,))[0][0]
        assert verdict["classification"]["beta_f"] == pytest.approx(math.log((1 - q1) / q1), rel=1e-12)

    def test_identity_kraus_model_has_no_fixed_point_temperature(self, tmp_path):
        model_path = tmp_path / "identity.json"
        model_path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "kind": "kraus",
                    "hamiltonian": [[[-0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
                    "kraus_ops": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
                    "tau": 1.0,
                }
            )
        )
        assert run(tmp_path, "check", str(model_path), *FAST) == EXIT_OK
        verdict = json.loads((tmp_path / "check_identity_verdict.json").read_text())
        assert verdict["classification"]["kind"] == "single_map"
        assert verdict["classification"]["beta_f"] is None
        assert verdict["qdb2"] is None

    def test_bloch4_model_loads(self, tmp_path):
        from qdblab.examples import example_c_bloch_matrix, example_c_qdb_point

        l4 = example_c_bloch_matrix(example_c_qdb_point(0.5, 0.1, 1.0, 1.0))
        model_path = tmp_path / "bloch.json"
        model_path.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "kind": "bloch4",
                    "hamiltonian": [[[-0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
                    "generator": l4.tolist(),
                }
            )
        )
        assert run(tmp_path, "check", str(model_path), *FAST) == EXIT_OK
        verdict = json.loads((tmp_path / "check_bloch_verdict.json").read_text())
        assert verdict["classification"]["kind"] == "fpt"
        assert verdict["qdb1"]["passes"] is True

    def test_complex_bloch4_generator_exits_2(self, tmp_path, capsys):
        # the Bloch generator is real, so an imaginary part is an error, not dropped
        generator = [[[x, 0.0] for x in row] for row in np.diag([0.0, 0.5, 0.5, 1.0]).tolist()]
        generator[1][1] = [0.5, 3.0]
        model_path = tmp_path / "complex.json"
        model_path.write_text(json.dumps(
            {"schema": 1, "kind": "bloch4", "hamiltonian": [[-0.5, 0], [0, 0.5]], "generator": generator}
        ))
        assert run(tmp_path, "check", str(model_path), *FAST) == ConfigError.exit_code
        assert capsys.readouterr().err == "ConfigError: generator must be real: an entry has a nonzero imaginary part\n"
        assert [p.name for p in tmp_path.iterdir()] == ["complex.json"]

    def test_missing_file_exits_2(self, tmp_path):
        assert run(tmp_path, "check", str(tmp_path / "missing.json")) == ConfigError.exit_code

    def test_load_model_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"schema": 1, "kind": "weird"}))
        with pytest.raises(ConfigError):
            load_model(path)


@pytest.mark.parametrize(
    "circulation, balanced", [(0.0, True), (0.4, False)], ids=["balanced", "circulating"]
)
def test_qdb2_reverses_time_in_the_energy_eigenbasis(rng, circulation, balanced):
    # a qutrit model with a non-diagonal H: rotate a diagonal one by a random unitary q
    gen, h = thermal_circulation_qutrit(rng, 1.0, circulation)
    q, _ = np.linalg.qr(random_complex(rng, 3))
    rot = np.kron(q.conj(), q)  # vec(q X q^dag) == rot @ vec(X)
    source = Dynamics.semigroup(
        HamiltonianSpec.from_matrix(q @ h.matrix @ q.conj().T),
        rot @ lindblad_superop(gen) @ rot.conj().T,
    )
    analysis = analyse(source, (0.3, 1.0, 3.0), (0.0, 0.5, 1.0), tol_qdb=1e-9, tol_cptp=1e-9)
    ((verdict, _),) = build_report(analysis, tol_qfr=1e-9, beta_i=2.0, beta_f=1.0)
    assert verdict["classification"]["kind"] == "fpt"
    assert verdict["qdb1"]["passes"] is balanced
    assert verdict["qdb2"]["passes"] is balanced


def _rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def test_rows_carry_the_ratio_of_their_own_gap(tmp_path):
    # scaling H and the rates by 1e-13 and beta and tau by 1e13 leaves every
    # probability and ratio unchanged, but puts the gap within 5e-13 of 0
    assert run(tmp_path / "unit", "example", "b", "--tau-grid", "0.1,1") == EXIT_OK
    assert run(
        tmp_path / "scaled", "example", "b", "--omega", "1e-13", "--gamma", "1e-13",
        "--beta-i", "2e13", "--beta-f", "1e13", "--tau-grid", "1e12,1e13",
    ) == EXIT_OK
    unit = _rows(tmp_path / "unit" / "example_b_rows.csv")
    scaled = _rows(tmp_path / "scaled" / "example_b_rows.csv")
    zero = [(u, s) for u, s in zip(unit, scaled) if u["E"] == "0"]
    assert len(zero) == 2 and all(s["E"] == "0" for _, s in zero)
    for u, s in zero:
        for key in ("R", "predicted", "deviation"):
            assert s[key] == u[key]


def test_underflowing_prediction_reads_as_infinite_deviation(rng, tmp_path):
    # a model without a thermal fixed point takes --beta-f for the ratio law;
    # e^{(beta_i - 1000) E} underflows to 0 on the larger gaps
    model_path = tmp_path / "generic.json"
    save_model(random_lindblad(rng, 3), model_path)
    assert run(tmp_path, "check", str(model_path), "--beta-f", "1000", *FAST) == EXIT_OK
    verdict = json.loads((tmp_path / "check_generic_verdict.json").read_text())
    assert verdict["classification"]["kind"] == "non_thermalizing"
    assert verdict["qfr_max_deviation"] == "inf" and verdict["qfr_passes"] is False
    rows = _rows(tmp_path / "check_generic_rows.csv")
    assert any(row["predicted"] == "0" and row["deviation"] == "inf" for row in rows)


@pytest.mark.parametrize("rate", [1.0, 1e10, 1e12])
def test_kossakowski_bounds_scale_with_the_rates(tmp_path, capsys, rate):
    # C = rate A A^dag / 3 as computed, rate A first: its roundoff asymmetry grows with the rates
    rng = np.random.default_rng(3)
    h = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    c = (rate * a) @ a.conj().T / 3
    w, v = np.linalg.eigh(c)
    w[0] = -1e-6 * np.abs(c).max()
    for name, koss in (("model", c), ("negative", (v * w) @ v.conj().T)):
        h_pairs, c_pairs = (np.stack([m.real, m.imag], axis=-1).tolist() for m in (h + h.conj().T, koss))
        obj = {"schema": 1, "kind": "lindblad", "hamiltonian": h_pairs, "kossakowski": c_pairs}
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    assert run(tmp_path, "check", str(tmp_path / "model.json"), "--tau-grid", "log:1e-12:5e-10:5") == EXIT_OK
    assert capsys.readouterr().err == ""
    # on the default grid the absolute transition-row bound still fails at large rates (ROADMAP item 2)
    assert run(tmp_path, "check", str(tmp_path / "model.json")) == (EXIT_OK if rate == 1 else QdblabError.exit_code)
    assert capsys.readouterr().err.startswith("" if rate == 1 else "NotTracePreserving: transition rows sum to 1")
    assert run(tmp_path, "check", str(tmp_path / "negative.json")) == QdblabError.exit_code
    assert capsys.readouterr().err.startswith("KossakowskiNotPSD: Kossakowski matrix has negative eigenvalue")


def test_overflowing_prediction_reads_as_unit_deviation(rng, tmp_path):
    # e^{(beta_i + 1000) E} overflows on every gap of at least 0.71: the
    # prediction is inf, so the ratio misses it by a relative 1
    model_path = tmp_path / "generic.json"
    save_model(random_lindblad(rng, 3), model_path)
    assert run(tmp_path, "check", str(model_path), "--beta-f=-1000", *FAST) == EXIT_OK
    verdict = json.loads((tmp_path / "check_generic_verdict.json").read_text())
    assert verdict["classification"]["kind"] == "non_thermalizing"
    assert verdict["qfr_max_deviation"] == 1.0 and verdict["qfr_passes"] is False
    rows = _rows(tmp_path / "check_generic_rows.csv")
    assert any(row["predicted"] == "inf" and row["deviation"] == "1" for row in rows)


class TestSweepCommand:
    def test_balance_residual_crosses_at_symmetric_point(self, tmp_path):
        # sweeping nu through alpha: the residual vanishes exactly there
        from qdblab.examples import example_c_qdb_point

        alpha = example_c_qdb_point(0.5, 0.1, 1.0, 1.0).alpha
        lo, hi = alpha - 0.1, alpha + 0.1
        assert run(
            tmp_path, "sweep", "c", "--parameter", "nu",
            "--range", f"{lo}:{hi}:3", *FAST,
        ) == EXIT_OK
        lines = (tmp_path / "sweep_c_nu.csv").read_text().splitlines()
        header = lines[0].split(",")
        idx_pass = header.index("qdb1_passes")
        passes = [line.split(",")[idx_pass] for line in lines[1:]]
        assert passes == ["false", "true", "false"]

    def test_ratio_tracks_initial_temperature(self, tmp_path):
        assert run(
            tmp_path, "sweep", "b", "--parameter", "beta_i",
            "--range", "0.5:2.5:3", *FAST,
        ) == EXIT_OK
        lines = (tmp_path / "sweep_b_beta_i.csv").read_text().splitlines()
        header = lines[0].split(",")
        idx = header.index("qfr_max_deviation")
        for line in lines[1:]:
            assert float(line.split(",")[idx]) < 1e-9

    def test_empty_range_writes_header_only(self, tmp_path):
        assert run(
            tmp_path, "sweep", "b", "--parameter", "gamma", "--range", "0.5:1:0", *FAST,
        ) == EXIT_OK
        lines = (tmp_path / "sweep_b_gamma.csv").read_text().splitlines()
        assert len(lines) == 1

    def test_unknown_parameter_exits_2(self, tmp_path, capsys):
        assert run(
            tmp_path, "sweep", "b", "--parameter", "zeta", "--range", "0:1:2",
        ) == ConfigError.exit_code
        assert "UnknownParameter" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "target, param, values, code, start",
        [
            ("b", "zeta", "0:1:0", ConfigError.exit_code, "UnknownParameter: "),
            ("missing.json", "beta_i", "0:1:0", ConfigError.exit_code, "ConfigError: cannot read model file"),
            # a Kraus file's operators are judged as it loads, before any point of the range
            ("kraus_not_tp.json", "beta_i", "1:0:0", QdblabError.exit_code, NON_TP_KRAUS + "\n"),
        ],
        ids=["unknown-parameter", "missing-model", "kraus-not-tp"],
    )
    def test_empty_range_still_validates_its_target(self, tmp_path, capsys, target, param, values, code, start):
        model = json.loads((Path(__file__).parent / "golden" / "scenario_a_tau1.json").read_text())
        (tmp_path / "kraus_not_tp.json").write_text(json.dumps({**model, "kraus_ops": NON_TP_OPS}))
        argv = ("sweep", str(tmp_path / target) if target.endswith(".json") else target)
        assert run(tmp_path, *argv, "--parameter", param, "--range", values) == code
        err = capsys.readouterr().err
        assert err.startswith(start) and err.count("\n") == 1

    @pytest.mark.parametrize(
        "target, parameter, values, code, message",
        [
            # point 0 fails its transition checks, a late stage, and point 1 cannot be built
            ("b", "beta_f", "1e-12:1e-310:2", QdblabError.exit_code,
             "NotTracePreserving: transition rows sum to 1 only within 2.310e-07"),
            ("b", "beta_f", "1e-310:1e-12:2", ConfigError.exit_code,
             "ConfigError: scenario b: n_bar = 1/(e^(beta_f omega) - 1) overflows at beta_f omega = 1e-310"),
            # only the last of 40 points, in the second block, fails
            ("b", "beta_f", "3:1e-12:40", QdblabError.exit_code,
             "NotTracePreserving: transition rows sum to 1 only within 2.310e-07"),
            # each point's arguments are checked as a run's are
            ("b", "beta_i", "-1:1:3", ConfigError.exit_code, "ConfigError: beta-i must be nonnegative"),
            # the third point fails after two valid ones
            ("b", "beta_i", "1:-1:3", ConfigError.exit_code, "ConfigError: beta-i must be nonnegative"),
            # points 3 and 4 fail the stacked GKLS test, point 3 with the smaller defect
            ("c", "nu", "0.9:0.1:5", QdblabError.exit_code,
             "NotCPTP: the generator is not of GKLS form: cp=2.383e-02, tp=0.000e+00 relative to its 1-norm"),
        ],
        ids=["late-check-first", "construction-first", "second-block", "settings-first", "settings-third",
             "c-nu-mid-block"],
    )
    def test_the_first_failing_point_raises_whatever_its_stage(
        self, tmp_path, capsys, target, parameter, values, code, message
    ):
        assert run(tmp_path, "sweep", target, "--parameter", parameter, f"--range={values}") == code
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / f"sweep_{target}_{parameter}.csv").exists()

    @pytest.mark.parametrize(
        "target, parameter, values",
        [
            ("b", "gamma", "0.5:2:40"),
            ("b", "gamma", "2:2:3"),
            ("a", "beta_i", "0:3:40"),
            ("c", "nu", "0.5:0.9:40"),
            (str(Path(__file__).parent / "golden" / "davies3_circulating.json"), "beta_i", "0.5:2.5:40"),
            # stacked Hamiltonians, Kraus stacks, classify and gap clusters against one point at a time
            ("a", "omega", "0.5:2:40"),
            ("b", "beta_f", "0.5:2:40"),
            # omega = 5e-324 halves to a degenerate H, whose gap clusters no other point of the block shares
            ("c", "omega", "5e-324:1:3"),
            # the middle point is nu = alpha, whose exactly secular generator takes the population route
            ("c", "nu", "0.3647852285573807:0.7647852285573807:5"),
        ],
        ids=["b-gamma-two-blocks", "b-gamma-repeated", "a-beta-i", "c-nu", "model-beta-i", "a-omega", "b-beta-f",
             "c-omega-degenerate-point", "c-nu-both-routes"],
    )
    def test_a_sweep_writes_the_bytes_of_its_points_run_one_at_a_time(
        self, tmp_path, capsys, target, parameter, values
    ):
        name = f"sweep_{Path(target).stem}_{parameter}.csv"
        assert run(tmp_path / "sweep", "sweep", target, "--parameter", parameter, f"--range={values}") == EXIT_OK
        lines = []
        for v in parse_range(values):
            argv = ("sweep", target, "--parameter", parameter, f"--range={v!r}:{v!r}:1")
            assert run(tmp_path / "point", *argv) == EXIT_OK
            header, row = (tmp_path / "point" / name).read_bytes().splitlines(keepends=True)
            lines += [header, row] if not lines else [row]
        assert (tmp_path / "sweep" / name).read_bytes() == b"".join(lines)
        capsys.readouterr()

    def test_a_block_through_nu_alpha_takes_both_routes(self, tmp_path, monkeypatch):
        # one exponential of the four 4 x 4 generators, one of the balanced point's 2 x 2 rate block
        shapes = expm_shapes(monkeypatch)
        argv = ("sweep", "c", "--parameter", "nu", "--range", "0.3647852285573807:0.7647852285573807:5")
        assert run(tmp_path, *argv) == EXIT_OK
        assert sorted(shapes) == [(1, 2, 2), (4, 4, 4)]

    @pytest.mark.parametrize("parameter", ["beta_i", "gamma"])
    def test_a_sweep_checks_its_settings_once(self, tmp_path, monkeypatch, parameter):
        from qdblab import cli

        original, calls = cli.check_settings, []

        def counted(args):
            calls.append(args)
            return original(args)

        monkeypatch.setattr(cli, "check_settings", counted)
        assert run(tmp_path, "sweep", "b", "--parameter", parameter, "--range", "0.5:2:40", *FAST) == EXIT_OK
        assert len((tmp_path / f"sweep_b_{parameter}.csv").read_text().splitlines()) == 41
        assert len(calls) == 1

    def test_json_format_writes_json_with_boolean_flags(self, tmp_path):
        argv = ("sweep", "b", "--parameter", "gamma", "--range", "0.5:1:2", *FAST)
        assert run(tmp_path, *argv, "--format", "json") == EXIT_OK
        assert [p.name for p in tmp_path.iterdir()] == ["sweep_b_gamma.json"]
        report = json.loads((tmp_path / "sweep_b_gamma.json").read_text())
        assert [row[4] for row in report["rows"]] == [True, True]  # qdb1_passes, not 1.0
        # the same cells as the CSV of the same sweep
        assert run(tmp_path, *argv) == EXIT_OK
        csv = [line.split(",") for line in (tmp_path / "sweep_b_gamma.csv").read_text().splitlines()]
        assert [report["columns"], *([fmt_float(x) if not isinstance(x, str) else x for x in row]
                                     for row in report["rows"])] == csv

    def test_a_model_file_of_any_name_writes_its_csv_by_stem(self, tmp_path):
        model = tmp_path / "m" / "davies3"
        model.parent.mkdir()
        model.write_text((Path(__file__).parent / "golden" / "davies3_circulating.json").read_text())
        out = tmp_path / "out"
        argv = ("sweep", str(model), "--parameter", "beta_i", "--range", "0.5:1:2", *FAST)
        assert run(out, *argv) == EXIT_OK
        assert [p.name for p in out.iterdir()] == ["sweep_davies3_beta_i.csv"]


class TestConfigValidation:
    def test_decreasing_grid_rejected(self, tmp_path):
        assert run(tmp_path, "example", "b", "--tau-grid", "2,1") == ConfigError.exit_code

    @pytest.mark.parametrize(
        "argv",
        [
            ("example", "b", "--s-grid", "0,2"),
            ("example", "b", "--beta-f", "inf"),
            ("example", "b", "--beta-i", "nan"),
            ("example", "b", "--gamma", "-1"),
            ("example", "a", "--omega", "-1"),
            ("sweep", "b", "--parameter", "gamma", "--range=-1:1:3"),
            ("check", "LIST_MODEL"),
            ("example", "b", "--tau-grid=-1,1"),
            ("example", "b", "--tau-grid=1,inf"),
            ("example", "b", "--tau-grid=0,nan"),
            ("check", "KRAUS_TAU_NULL"),
            ("check", "KRAUS_TAU_TEXT"),
            ("check", "KRAUS_OPS_NUMBER"),
            ("example", "a", "--beta-f", "40"),
            ("example", "b", "--beta-f", "710"),
            ("example", "c", "--beta-f", "710"),
            ("example", "b", "--tol-qdb", "nan"),
            ("example", "c", "--tol-cptp", "nan"),
            ("example", "b", "--tol-qfr", "inf"),
            ("check", "KRAUS_NAN"),
            ("check", "BLOCH4_NAN"),
            ("check", "LINDBLAD_H_NAN"),
            ("check", "LINDBLAD_C_INF"),
            ("check", "ONE_LEVEL_LINDBLAD"),
            ("check", "ONE_LEVEL_KRAUS"),
            ("check", "OVERFLOW_LINDBLAD_H"),
            ("check", "OVERFLOW_BLOCH4"),
            ("check", "OVERFLOW_LINDBLAD_C"),
            ("check", "BLOCH4_HUGE_NORM"),
            ("example", "a", "--omega", "nan"),
            ("example", "b", "--omega", "nan"),
            ("example", "c", "--omega", "nan"),
            ("example", "b", "--omega", "inf"),
            ("example", "b", "--gamma", "nan"),
            ("example", "b", "--gamma", "inf"),
            ("example", "c", "--mu", "nan"),
            ("example", "c", "--mu", "inf"),
            ("example", "c", "--eta", "nan"),
            ("example", "c", "--nu-scale", "nan"),
            ("sweep", "b", "--parameter", "gamma", "--range", "nan:1:2"),
            ("example", "c", "--mu", "-1"),
            ("example", "c", "--eta", "-0.5"),
            ("example", "b", "--beta-f", "1e-310"),
            ("sweep", "b", "--parameter", "beta_f", "--range", "1e-310:1e-309:2"),
            ("example", "b", "--beta-f", "1e-200", "--omega", "1e-200"),
            ("example", "b", "--gamma", "1e306", "--beta-f", "1e-3"),
            # a count that numpy cannot allocate fails at once, touching no memory
            ("example", "b", "--tau-grid", "log:1:10:1000000000000000"),
            ("sweep", "b", "--parameter", "gamma", "--range", "0:1:1000000000000000"),
            ("example", "b", "--tau-grid", "log:-1:10:3"),
            ("example", "b", "--tau-grid", "log:1:1e400:3"),
            ("sweep", "b", "--parameter", "gamma", "--range", "0:inf:2"),
            ("check", "KRAUS_H_RANGE"),
            ("check", "KRAUS_H_RANGE", "--beta-i", "0"),
            # finite bounds whose step overflows: numpy's linspace gives nan and inf points
            ("sweep", "b", "--parameter", "beta_i", "--range=-1e308:1e308:3"),
            ("sweep", "b", "--parameter", "beta_f", "--range=-1e308:1e308:3"),
            ("sweep", "b", "--parameter", "omega", "--range=-1e308:1e308:3"),
            # scenario c's parameters leave omega to its Hamiltonian, which must be positive
            ("example", "c", "--omega", "-1"),
            ("example", "c", "--omega", "0"),
            ("sweep", "c", "--parameter", "omega", "--range=-1:1:3"),
            # malformed files: each ends in one ConfigError line, not a traceback
            ("check", "NOT_UTF8"),
            ("check", "LINDBLAD_H_INT_BEYOND_FLOAT"),
            ("check", "KRAUS_TAU_INT_BEYOND_FLOAT"),
            ("check", "NESTED_100000_DEEP"),
            ("check", "INT_OF_5001_DIGITS"),
        ],
        ids=["s-outside-unit", "beta-f-inf", "beta-i-nan", "gamma-negative", "omega-negative",
             "sweep-gamma-negative", "model-not-object", "tau-negative", "tau-inf", "tau-nan",
             "kraus-tau-null", "kraus-tau-text", "kraus-ops-number", "a-bias-underflow",
             "b-boltzmann-overflow", "c-boltzmann-overflow", "tol-qdb-nan", "tol-cptp-nan",
             "tol-qfr-inf", "kraus-nan", "bloch4-nan", "lindblad-h-nan", "lindblad-c-inf", "one-level-lindblad",
             "one-level-kraus", "overflow-lindblad-h", "overflow-bloch4", "overflow-lindblad-c",
             "bloch4-huge-norm", "a-omega-nan",
             "b-omega-nan", "c-omega-nan", "b-omega-inf", "b-gamma-nan", "b-gamma-inf", "c-mu-nan", "c-mu-inf",
             "c-eta-nan", "c-nu-scale-nan", "sweep-gamma-nan", "c-mu-negative", "c-eta-negative",
             "b-boltzmann-underflow", "sweep-b-boltzmann-underflow", "b-boltzmann-zero", "b-rate-overflow",
             "tau-grid-count-huge", "sweep-count-huge", "tau-grid-log-negative", "tau-grid-log-inf",
             "sweep-range-inf", "kraus-h-range", "kraus-h-range-beta-i-0", "sweep-beta-i-step-overflow",
             "sweep-beta-f-step-overflow", "sweep-omega-step-overflow", "c-omega-negative", "c-omega-zero",
             "sweep-c-omega-through-zero", "not-utf8", "lindblad-h-int-beyond-float", "kraus-tau-int-beyond-float",
             "nested-100000-deep", "int-of-5001-digits"],
    )
    def test_out_of_range_input_exits_2(self, tmp_path, capsys, argv):
        kraus = {
            "schema": 1,
            "kind": "kraus",
            "hamiltonian": [[[-0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
            "kraus_ops": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
        }
        lindblad = {
            "schema": 1,
            "kind": "lindblad",
            "hamiltonian": [[-0.5, 0], [0, 0.5]],
            "kossakowski": np.diag([0.0, 0.0, 1.0]).tolist(),
        }
        nan, inf = math.nan, math.inf
        models = {
            "LIST_MODEL": [{"schema": 1, "kind": "lindblad"}],
            "KRAUS_TAU_NULL": {**kraus, "tau": None},
            "KRAUS_TAU_TEXT": {**kraus, "tau": "abc"},
            "KRAUS_OPS_NUMBER": {**kraus, "kraus_ops": 5},
            # json reads NaN and Infinity
            "KRAUS_NAN": {**kraus, "kraus_ops": [[[[nan, 0], [0, 0]], [[0, 0], [1, 0]]]]},
            "BLOCH4_NAN": {**kraus, "kind": "bloch4", "generator": [[nan] * 4] * 4},
            "LINDBLAD_H_NAN": {**lindblad, "hamiltonian": [[nan, 0], [0, 0.5]]},
            "LINDBLAD_C_INF": {**lindblad, "kossakowski": np.diag([0.0, 0.0, inf]).tolist()},
            "ONE_LEVEL_LINDBLAD": {**lindblad, "hamiltonian": [[0]], "kossakowski": []},
            "ONE_LEVEL_KRAUS": {**kraus, "hamiltonian": [[0]], "kraus_ops": [[[1]]]},
            # finite entries whose generator overflows
            "OVERFLOW_LINDBLAD_H": {**lindblad, "hamiltonian": [[1e308, 0], [0, -1e308]]},
            "OVERFLOW_BLOCH4": {**kraus, "kind": "bloch4", "generator": [[1e308] * 4] * 4},
            "OVERFLOW_LINDBLAD_C": {**lindblad, "kossakowski": np.diag([1e308] * 3).tolist()},
            # finite generator entries whose 1-norm overflows, so that its maps would be nan
            "BLOCH4_HUGE_NORM": {**kraus, "kind": "bloch4", "generator": [[0] * 4, [0, 1e308, 0, 0], [0] * 4, [0] * 4]},
            # finite energies whose range E_max - E_min overflows
            "KRAUS_H_RANGE": {**kraus, "hamiltonian": [[-1e308, 0], [0, 1e308]]},
            # integers that json reads exactly, but that no float holds
            "LINDBLAD_H_INT_BEYOND_FLOAT": {**lindblad, "hamiltonian": [[10**400, 0], [0, 0.5]]},
            "KRAUS_TAU_INT_BEYOND_FLOAT": {**kraus, "tau": 10**400},
        }
        for name, obj in models.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        # files that json.dumps does not write
        files = {
            "NOT_UTF8": b'{"schema": 1, "kind": "lindblad\xff"}',
            "NESTED_100000_DEEP": b"[" * 100000 + b"]" * 100000,
            # past the digit limit of int(str), where it has one
            "INT_OF_5001_DIGITS": b'{"schema": 1, "kind": "lindblad", "hamiltonian": [[' + b"1" * 5001 + b"]]}",
        }
        for name, data in files.items():
            (tmp_path / f"{name}.json").write_bytes(data)
        argv = [str(tmp_path / f"{a}.json") if a in models or a in files else a for a in argv]
        assert run(tmp_path, *argv) == ConfigError.exit_code
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        # scenario c's errors name the flag, not a derived coefficient
        flag = next((a[2:] for a in argv if a in ("--mu", "--eta", "--nu-scale")), None)
        if flag is not None:
            assert err.startswith(f"ConfigError: scenario c: {flag} must be finite")
        if "ONE_LEVEL" in argv[-1]:
            assert err == "ConfigError: the Hamiltonian has 1 level; a model needs at least 2\n"
        if "OVERFLOW" in argv[-1]:
            assert err == "ConfigError: the model overflows: its generator has a non-finite entry\n"
        if "HUGE_NORM" in argv[-1]:
            assert err == "ConfigError: the model overflows: its generator's 1-norm is not finite\n"
        if "KRAUS_H_RANGE" in argv[1]:
            assert err == "ConfigError: the model overflows: the Hamiltonian's energy range is not finite\n"
        if "--range=-1e308:1e308:3" in argv:
            assert err == "ConfigError: cannot parse range spec '-1e308:1e308:3': its points must be finite\n"
        if argv[1] == "c" and "omega" in argv:
            assert err == "ConfigError: scenario c: omega must be positive\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            # judged by Dynamics.semigroup, as every generator is
            (("example", "c", "--eta", "1e308"), "the model overflows: its generator has a non-finite entry"),
            (("sweep", "c", "--parameter", "eta", "--range", "1e308:1e308:1"),
             "the model overflows: its generator has a non-finite entry"),
            # finite entries, but the 1-norm overflows
            (("sweep", "c", "--parameter", "nu", "--range", "1e308:1e308:1"),
             "the model overflows: its generator's 1-norm is not finite"),
            (("example", "c", "--mu", "1e308"), "scenario c: mu = 1e+308 overflows the rates at beta_f omega = 1"),
        ],
        ids=["example-eta", "sweep-eta", "sweep-nu", "example-mu"],
    )
    def test_scenario_c_overflow_exits_2_before_its_cptp_check(self, tmp_path, capsys, argv, message):
        assert run(tmp_path, *argv) == ConfigError.exit_code
        assert capsys.readouterr().err == f"ConfigError: {message}\n"

    @pytest.mark.parametrize("name", ["a", "c"])
    def test_save_model_writes_only_scenario_b(self, tmp_path, capsys, name):
        model = tmp_path / "model.json"
        assert run(tmp_path / "reports", "example", name, "--save-model", str(model)) == ConfigError.exit_code
        assert capsys.readouterr().err == f"ConfigError: --save-model writes only scenario b, not scenario {name}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "flag, target, written",
        [
            ("--out", "file", "file/example_b_rows.csv"),
            ("--out", "file/sub", "file/sub/example_b_rows.csv"),
            ("--save-model", "file/model.json", "file/model.json"),
        ],
        ids=["out-a-file", "out-below-a-file", "save-model-below-a-file"],
    )
    def test_an_unwritable_path_exits_2(self, tmp_path, capsys, flag, target, written):
        (tmp_path / "file").write_text("")
        argv = ["example", "b", *FAST, "--out", str(tmp_path / "reports"), flag, str(tmp_path / target)]
        assert main(argv) == ConfigError.exit_code
        err = capsys.readouterr().err
        assert err.startswith(f"ConfigError: cannot write {tmp_path / written}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]

    def test_scenario_c_at_low_temperature_is_not_cptp(self, tmp_path, capsys):
        # e^(beta omega) and the generator's 1-norm, 8.2e307, are finite; the generator's CP defect is 3.1e-4 of that
        assert run(tmp_path, "example", "c", "--beta-f", "709") == QdblabError.exit_code
        assert capsys.readouterr().err.startswith("NotCPTP: ")

    @pytest.mark.parametrize(
        "argv, cp",
        [
            (("check", "SLOW_DEPHASING"), "4.900e-01"),
            (("example", "c", "--beta-f", "8"), "1.451e-04"),
            (("example", "c", "--beta-f", "5", "--nu-scale", "3"), "1.028e-01"),
            (("example", "c", "--nu-scale", "0.62"), "5.378e-03"),
            (("sweep", "c", "--parameter", "nu", "--range", "0.35:0.36:2"), "5.439e-03"),
        ],
        ids=["bloch4-t2-above-2t1", "c-beta-f-8", "c-beta-f-5-nu-scale-3", "c-nu-scale-0.62", "c-nu-sweep"],
    )
    def test_a_generator_that_is_not_cp_exits_3(self, tmp_path, capsys, argv, cp):
        # only the generator shows the defect: these maps look CPTP once they have relaxed
        model = tmp_path / "SLOW_DEPHASING.json"
        generator = [[0, 0, 0, 0], [0, 0.01, -0.5, 0], [0, 0.5, 0.01, 0], [0, 0, 0, 1]]  # T2 > 2 T1
        model.write_text(json.dumps({"schema": 1, "kind": "bloch4", "hamiltonian": [[-0.5, 0], [0, 0.5]],
                                     "generator": generator}))
        argv = [str(model) if a == "SLOW_DEPHASING" else a for a in argv]
        assert run(tmp_path / "out", *argv) == QdblabError.exit_code
        assert capsys.readouterr().err == (
            f"NotCPTP: the generator is not of GKLS form: cp={cp}, tp=0.000e+00 relative to its 1-norm\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name", ["b", "c"])
    @pytest.mark.parametrize("tau", ["1e200", "1e308"])
    def test_huge_tau_fails_a_check_without_traceback(self, tmp_path, capsys, name, tau):
        # the maps overflow to nan, and the rows fail their probability checks,
        # except scenario b's at 1e200, whose squarings stay finite
        codes = (EXIT_OK,) if (name, tau) == ("b", "1e200") else (QdblabError.exit_code, InternalCheckError.exit_code)
        assert run(tmp_path, "example", name, "--tau-grid", tau) in codes
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code, first_line",
        [
            (("example", "b", "--tau-grid", "1e200"), EXIT_OK, None),
            (("example", "b", "--tau-grid", "0.1,1e200"), EXIT_OK, None),
            # the map at 1e308 overflows to nan, which the first check at each map rejects
            (("example", "c", "--tau-grid", "1e308"), InternalCheckError.exit_code,
             "InternalCheckError: a map has a non-finite entry"),
            (("example", "b", "--gamma", "1e6"), QdblabError.exit_code,
             "NotTracePreserving: transition rows sum to 1 only within 1.250e-09"),
            # its maps' trace defect is roundoff, but its generator is not CP
            (("example", "c", "--beta-f", "16"), QdblabError.exit_code,
             "NotCPTP: the generator is not of GKLS form: cp=3.122e-04, tp=0.000e+00 relative to its 1-norm"),
            # some maps of the grid have inf entries; their transition probabilities are nan, without a warning
            (("example", "b", "--beta-f", "1e-20"), QdblabError.exit_code,
             "NotTracePreserving: transition rows sum to 1 only within 8.886e+06"),
            # a valid input, but n_bar = 1/expm1(beta_f omega) is about 1e300, and the squarings of rates
            # that large overflow: a known defect, pinned here until huge rates are handled
            (("example", "b", "--omega", "1e-300"), InternalCheckError.exit_code,
             "InternalCheckError: a map has a non-finite entry"),
            # model entries near the float range fail their checks without a warning
            (("check", "KRAUS_HUGE_OP"), QdblabError.exit_code, "NotTracePreserving: sum G^dag G differs from identity by inf"),
            (("check", "LINDBLAD_H_SKEW"), QdblabError.exit_code, "NotHermitian: max |m - m^dag| entry exceeds 1e-12"),
            # beta_i (E_1 - E_0) overflows, and the excited level's weight is 0
            (("check", "KRAUS_H_1E303", "--beta-i", "1e6"), EXIT_OK, None),
            # model files that fail before any check
            (("check", "SCHEMA_2"), ConfigError.exit_code, "ConfigError: unsupported model schema 2"),
            (("check", "BLOCH4_3X3"), QdblabError.exit_code,
             "DimensionMismatch: Bloch generator must be 4x4, got (3, 3)"),
            # a Kraus file's operators are judged before its tau, which is no number here
            (("check", "KRAUS_TWO_FAULTS"), QdblabError.exit_code, NON_TP_KRAUS),
            # each check at the boundary where a value enters the package: a model file's kind, its generator's
            # dimension against its H, its H's shape and its Kossakowski matrix, and a swept coefficient of C
            (("check", "QUTIP"), ConfigError.exit_code, "ConfigError: unknown model kind 'qutip'"),
            (("check", "BLOCH4_QUTRIT_H"), QdblabError.exit_code,
             "DimensionMismatch: superoperator dimension does not match the Hamiltonian"),
            (("check", "LINDBLAD_H_3X2"), QdblabError.exit_code,
             "DimensionMismatch: herm_eig: expected a square matrix, got shape (3, 2)"),
            (("check", "LINDBLAD_C_SKEW"), QdblabError.exit_code,
             "KossakowskiNotPSD: Kossakowski matrix is not Hermitian"),
            (("sweep", "c", "--parameter", "zeta", "--range=-1:0:2"), ConfigError.exit_code,
             "ConfigError: scenario c: zeta must be positive"),
            (("sweep", "c", "--parameter", "chi", "--range", "10:10:1"), ConfigError.exit_code,
             "ConfigError: scenario c: asymptotic Bloch vector would leave the ball"),
        ],
        ids=["b-tau-1e200", "b-tau-0.1-and-1e200", "c-tau-1e308", "b-gamma-1e6", "c-beta-f-16", "b-beta-f-1e-20",
             "b-omega-1e-300", "kraus-huge-op", "lindblad-h-skew", "kraus-h-1e303", "schema-2", "bloch4-3x3",
             "kraus-two-faults", "unknown-kind", "bloch4-qutrit-h", "lindblad-h-3x2", "lindblad-c-skew",
             "c-zeta-negative", "c-chi-outside-the-ball"],
    )
    def test_failing_checks_keep_their_exit_code_and_message(self, tmp_path, capsys, argv, code, first_line):
        # a map with a non-finite entry fails the first transition check that
        # maps_of runs at each map; a run that passes (first_line None) writes
        # nothing to stderr
        kraus = {"schema": 1, "kind": "kraus", "hamiltonian": [[-0.5, 0], [0, 0.5]], "kraus_ops": [np.eye(2).tolist()]}
        skew = [[0, 1e308], [-1e308, 0]]
        models = {
            "KRAUS_HUGE_OP": {**kraus, "kraus_ops": [[[1e200, 0], [0, 1]]]},
            "LINDBLAD_H_SKEW": {"schema": 1, "kind": "lindblad", "hamiltonian": skew, "kossakowski": []},
            "KRAUS_H_1E303": {**kraus, "hamiltonian": [[-1e303, 0], [0, 1e303]]},
            "SCHEMA_2": {**kraus, "schema": 2},
            "BLOCH4_3X3": {**kraus, "kind": "bloch4", "generator": np.zeros((3, 3)).tolist()},
            "KRAUS_TWO_FAULTS": {**kraus, "kraus_ops": NON_TP_OPS, "tau": "x"},
            "QUTIP": {**kraus, "kind": "qutip"},
            "BLOCH4_QUTRIT_H": {**kraus, "kind": "bloch4", "hamiltonian": np.diag([0.0, 1.0, 2.0]).tolist(),
                                "generator": np.zeros((4, 4)).tolist()},
            "LINDBLAD_H_3X2": {"schema": 1, "kind": "lindblad", "hamiltonian": [[0, 0], [0, 1], [1, 0]],
                               "kossakowski": []},
            "LINDBLAD_C_SKEW": {"schema": 1, "kind": "lindblad", "hamiltonian": [[-0.5, 0], [0, 0.5]],
                                "kossakowski": [[1, 1], [0, 1]], "basis": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]},
        }
        for name, obj in models.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        argv = [str(tmp_path / f"{a}.json") if a in models else a for a in argv]
        assert run(tmp_path, *argv) == code
        assert next(iter(capsys.readouterr().err.splitlines()), None) == first_line

    def test_huge_tau_rows_obey_the_ratio_law(self, tmp_path):
        # the map at tau = 1e200 is the projection onto the Gibbs state at beta_f = 1
        assert run(tmp_path, "example", "b", "--tau-grid", "0.1,1e200") == EXIT_OK
        last = [r for r in _rows(tmp_path / "example_b_rows.csv") if float(r["tau"]) == 1e200 and r["E"] == "1"]
        assert len(last) == 1
        assert float(last[0]["R"]) == pytest.approx(math.e, rel=1e-15)

    def test_bad_tolerance_rejected(self, tmp_path):
        assert run(tmp_path, "example", "b", "--tol-qdb", "0") == ConfigError.exit_code

    def test_usage_error_exits_2(self, tmp_path, capsys):
        assert main(["example", "zzz"]) == ConfigError.exit_code
        capsys.readouterr()
        # argparse's choices reject a format, before any report is written
        assert run(tmp_path, "example", "b", "--format", "xml") == ConfigError.exit_code
        assert "invalid choice: 'xml'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def test_model_sweep_loads_its_model_once(tmp_path, monkeypatch):
    from qdblab import cli

    model_path = tmp_path / "model_b.json"
    save_model(example_b_generator(ExampleBParams(1.0, 1.0, 1.0)), model_path)
    calls = []

    def counted(path):
        calls.append(path)
        return load_model(path)

    monkeypatch.setattr(cli, "load_model", counted)
    argv = ("sweep", str(model_path), "--parameter", "beta_i", "--range", "0.5:2.5:3", *FAST)
    assert run(tmp_path, *argv) == EXIT_OK
    assert len((tmp_path / "sweep_model_b_beta_i.csv").read_text().splitlines()) == 4
    assert len(calls) == 1


def test_example_b_builds_its_generator_once(tmp_path, monkeypatch):
    from qdblab import dynamics

    original = dynamics.lindblad_superop
    calls = []

    def counted(gen):
        calls.append(gen)
        return original(gen)

    for name, module in list(sys.modules.items()):
        if name.startswith("qdblab") and getattr(module, "lindblad_superop", None) is original:
            monkeypatch.setattr(module, "lindblad_superop", counted)
    assert run(tmp_path, "example", "b") == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, blocks",
    [
        (("example", "b"), 1),
        (("sweep", "b", "--parameter", "gamma", "--range", "0.5:1.5:3"), 1),
        (("sweep", "b", "--parameter", "omega", "--range", "0.5:1.5:40"), 2),
    ],
    ids=["example", "sweep", "sweep-two-blocks"],
)
def test_scenario_b_takes_one_eigendecomposition_per_source(tmp_path, monkeypatch, argv, blocks):
    # a block's Hamiltonians are one stack, so its sources share one eigendecomposition
    from qdblab import matlin

    original = matlin.herm_eig
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(matlin, "herm_eig", counted)
    assert run(tmp_path, *argv, *FAST) == EXIT_OK
    assert len(calls) == blocks


_SEMIGROUP_BLOCK = {"gkls_defects": 1, "expm": 1, "classify": 1, "check_qdb1": 1, "check_qdb2": 1, "exchange_grid": 1,
                    "_kraus_stacks": 0}
# channel families: no generator, so no GKLS test, no exponential and no qdb1
_FAMILY_BLOCK = {"gkls_defects": 0, "expm": 0, "classify": 1, "check_qdb1": 0, "check_qdb2": 1, "exchange_grid": 1,
                 "_kraus_stacks": 1}


@pytest.mark.parametrize(
    "argv, calls",
    [
        (("sweep", str(Path(__file__).parent / "golden" / "davies3_circulating.json"), "--parameter", "beta_i",
          "--range", "0.5:2.5:3"), _SEMIGROUP_BLOCK),
        (("sweep", "b", "--parameter", "gamma", "--range", "0.5:1.5:3"), _SEMIGROUP_BLOCK),
        (("sweep", "b", "--parameter", "beta_i", "--range", "0.5:2.5:3"), _SEMIGROUP_BLOCK),
        # 40 points span two blocks, which share the one analysis of their source
        (("sweep", str(Path(__file__).parent / "golden" / "davies3_circulating.json"), "--parameter", "beta_i",
          "--range", "0.5:2.5:40"), {**_SEMIGROUP_BLOCK, "exchange_grid": 2}),
        (("sweep", "c", "--parameter", "nu", "--range", "0.5:0.9:3"), _SEMIGROUP_BLOCK),
        # 40 sources in two blocks: each block analyses its own
        (("sweep", "c", "--parameter", "nu", "--range", "0.5:0.9:40"),
         {stage: 2 * n for stage, n in _SEMIGROUP_BLOCK.items()}),
        # the block's families are built once each, at the probe, grid and qdb2 times together, and checked as one stack
        (("sweep", "a", "--parameter", "omega", "--range", "0.5:1.5:3"), _FAMILY_BLOCK),
        (("sweep", "a", "--parameter", "beta_i", "--range", "0:3:3"), _FAMILY_BLOCK),
        # one family shared by two blocks is analysed once
        (("sweep", "a", "--parameter", "beta_i", "--range", "0:3:40"), {**_FAMILY_BLOCK, "exchange_grid": 2}),
        # a single map's stack is judged once, when the model loads; its family repeats the judged stack
        (("check", str(Path(__file__).parent / "golden" / "scenario_a_tau1.json")), _FAMILY_BLOCK),
    ],
    ids=["model-beta-i", "b-gamma", "b-beta-i", "model-beta-i-two-blocks", "c-nu", "c-nu-two-blocks", "a-omega",
         "a-beta-i", "a-beta-i-two-blocks", "check-kraus"],
)
def test_a_sweep_takes_each_stage_once_per_block(tmp_path, monkeypatch, argv, calls):
    # a beta_i sweep builds and checks its one source once; a sweep of sources stacks
    # their GKLS tests, exponentials, spectra and checks; every block takes one exchange grid
    from qdblab import balance, dynamics, fluctuation, matlin

    counts = dict.fromkeys(calls, 0)
    for module in (matlin, dynamics, fluctuation, balance):
        for name in calls:
            original = getattr(module, name, None)
            if original is None:
                continue

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("qdblab") and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counted)
    assert run(tmp_path, *argv, *FAST) == EXIT_OK
    assert counts == calls


def test_a_map_that_is_not_finite_stops_the_run_before_classify(tmp_path, capsys, monkeypatch):
    # maps_of judges the transitions it makes: the map at tau = 1e308 overflows to nan, and the run stops there,
    # before any later stage reads the block
    from qdblab import fluctuation, report

    calls, original = [], fluctuation.classify
    for module in (fluctuation, report):
        monkeypatch.setattr(module, "classify", lambda *args: calls.append(args) or original(*args))
    assert run(tmp_path, "example", "c", "--tau-grid", "1e308") == InternalCheckError.exit_code
    assert capsys.readouterr().err == "InternalCheckError: a map has a non-finite entry\n"
    assert calls == []


def test_a_generator_that_fails_the_gkls_test_is_never_exponentiated(tmp_path, capsys, monkeypatch):
    # the block of 5 points fails its GKLS test before its exponential, and so do the halves that hold point 3,
    # the first failing one: of the replays, only the left half (2 points) and point 2 take an exponential
    from qdblab import matlin

    sources = []
    original = matlin.expm
    monkeypatch.setattr(matlin, "expm", lambda *args: sources.append(len(args[0])) or original(*args))
    assert run(tmp_path, "sweep", "c", "--parameter", "nu", "--range=0.9:0.1:5") == QdblabError.exit_code
    assert capsys.readouterr().err.startswith("NotCPTP: ")
    assert sources == [2, 1]


@pytest.mark.parametrize("values", ["0.9:0.35:32", "0.35:0.9:32"], ids=["bad-last", "bad-first"])
def test_a_failing_block_replays_by_halves(tmp_path, capsys, monkeypatch, values):
    # one point of 32 (nu = 0.35) is not CP: the block and then, per level, the two halves, left first, run again
    # until the one point raises, which costs 1 + 2 log2 32 = 11 analyses at most, not 33
    import qdblab.cli

    sizes, original = [], qdblab.cli.analyse
    monkeypatch.setattr(qdblab.cli, "analyse", lambda block, *args: sizes.append(len(block.h.matrix))
                        or original(block, *args))
    assert run(tmp_path, "sweep", "c", "--parameter", "nu", f"--range={values}") == QdblabError.exit_code
    err = capsys.readouterr().err
    assert len(sizes) <= 11 and sizes[0] == 32 and sizes[-1] == 1
    assert run(tmp_path, "sweep", "c", "--parameter", "nu", "--range=0.35:0.35:1") == QdblabError.exit_code
    assert err == capsys.readouterr().err and err.count("\n") == 1
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("omega, beta_f, beta_i", [("1e-11", "1e11", "2e11"), ("1e-12", "1e12", "2e12")])
def test_a_level_spacing_alone_does_not_make_a_degeneracy(tmp_path, omega, beta_f, beta_i):
    # beta_f omega = 1 at both spacings, so the same thermal populations: the degeneracy cut is relative to H's
    # spectral range, so neither gap reads as a degeneracy
    assert run(tmp_path, "example", "b", "--omega", omega, "--beta-f", beta_f, "--beta-i", beta_i,
               "--tau-grid", "1") == EXIT_OK
    verdict = json.loads((tmp_path / "example_b_verdict.json").read_text())
    assert verdict["classification"]["kind"] == "fpt"
    assert verdict["qdb1"]["passes"] is True and verdict["qdb2"]["passes"] is True


def _fresh_interpreter(*args, stdout=subprocess.PIPE, **env):
    """``python *args`` in a new process, with this checkout's ``src`` on the
    path and ``env`` added to the environment."""
    src = str(Path(qdblab.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60
    )


def test_module_entry_point_runs_without_warnings():
    proc = _fresh_interpreter("-m", "qdblab.cli", "--help")
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_package_import_imports_no_module():
    proc = _fresh_interpreter("-c", "import sys, qdblab; print(*sorted(m for m in sys.modules if 'qdblab.' in m))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_cli_import_leaves_scipy_out():
    proc = _fresh_interpreter("-c", "import sys, qdblab.cli; sys.exit(int('scipy' in sys.modules))")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("argv", [("check", str(Path(__file__).parent / "golden" / "davies3_circulating.json")),
                                  ("example", "b")], ids=["check", "example"])
def test_a_run_leaves_dataclasses_out(tmp_path, argv):
    # the package's value classes are plain classes, so a cold run never imports dataclasses
    run = f"import sys; from qdblab.cli import main; code = main({[*argv, '--out', str(tmp_path)]!r})"
    proc = _fresh_interpreter("-c", run + "; print(code, 'dataclasses' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{EXIT_OK} False"


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv, written",
    [
        (("sweep", "b", "--parameter", "gamma", "--range", "0.5:1:2"), ["sweep_b_gamma.csv"]),
        (("example", "b"), ["example_b_rows.csv", "example_b_verdict.json"]),
        (("--help",), []),
    ],
    ids=["sweep", "example", "help"],
)
def test_closed_stdout_ends_without_traceback(tmp_path, argv, written, unbuffered):
    # stdout is a pipe whose read end is closed, as in ``qdblab ... | true``
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _fresh_interpreter(
            "-m", "qdblab.cli", *argv, "--out", str(tmp_path), stdout=write_end, PYTHONUNBUFFERED=unbuffered
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_OK
    assert proc.stderr == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == written
