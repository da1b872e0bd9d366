import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qdblab

from conftest import inverted_qubit, random_complex, random_lindblad, thermal_circulation_qutrit
from qdblab.cli import (
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_MODEL,
    EXIT_OK,
    RunConfig,
    analyse,
    build_report,
    fmt_float,
    load_model,
    main,
    parse_grid,
    parse_range,
    save_model,
)
from qdblab.dynamics import Dynamics, LindbladGenerator, lindblad_superop
from qdblab.errors import ConfigError
from qdblab.examples import ExampleBParams, example_b_generator
from qdblab.states import HamiltonianSpec

FAST = ["--tau-grid", "0.3,1,3", "--s-grid", "0,0.5,1"]


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
        # the maps are finite and CPTP, but the excited population e^-200 lies
        # below the 1e-14 floor of infer_beta: the fixed point reads as the
        # ground state (beta_f inf) and the ratio law as failed.  A log-domain
        # inference would report beta_f 200 instead.
        assert run(tmp_path, "example", "c", "--beta-f", "200", *FAST) == EXIT_OK
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
        model_path = tmp_path / "model_b.json"
        save_model(example_b_generator(ExampleBParams(1.0, 1.0, 1.0)), model_path)
        assert run(tmp_path, "example", "b", *FAST) == EXIT_OK
        assert run(tmp_path, "check", str(model_path), *FAST) == EXIT_OK
        v1 = json.loads((tmp_path / "example_b_verdict.json").read_text())
        v2 = json.loads((tmp_path / "check_model_b_verdict.json").read_text())
        for key in ("classification", "qdb1", "qdb2", "qfr_max_deviation"):
            assert v1[key] == v2[key]

    @pytest.mark.parametrize("n_jumps", [0, 2])
    def test_jump_generator_roundtrip_is_bitwise(self, rng, tmp_path, n_jumps):
        # jumps with a trace part: the file keeps the basis, so nothing is re-projected
        h = thermal_circulation_qutrit(rng, 1.0)[1]
        jumps = [random_complex(rng, 3), random_complex(rng, 3) + 0.7 * np.eye(3)][:n_jumps]
        gen = LindbladGenerator.from_jump_operators(h, jumps)
        save_model(gen, tmp_path / "jumps.json")
        loaded = load_model(tmp_path / "jumps.json")
        assert np.array_equal(loaded.generator, lindblad_superop(gen))

    def test_model_without_basis_is_canonical(self, rng, tmp_path):
        gen = random_lindblad(rng, 2)
        save_model(gen, tmp_path / "canonical.json")
        obj = json.loads((tmp_path / "canonical.json").read_text())
        del obj["basis"]
        (tmp_path / "canonical.json").write_text(json.dumps(obj))
        loaded = load_model(tmp_path / "canonical.json")
        assert np.array_equal(loaded.generator, lindblad_superop(gen))

    @pytest.mark.parametrize(
        "basis, code, message",
        [
            ("not a list", EXIT_CONFIG, "ConfigError: basis must be a list"),
            ([[[1, 0, 0], [0, -1, 0], [0, 0, 0]]] * 2, EXIT_MODEL, "DimensionMismatch: dissipator basis"),
            ([[[0, 1], [0, 0]]], EXIT_MODEL, "DimensionMismatch: Kossakowski matrix must be 1x1"),
            ([[[0, 1], [0, 0]], [[1, 0], [0, 0]]], EXIT_CONFIG, "ConfigError: model file"),
            ([[[0, 1], [0, 0]], 5], EXIT_CONFIG, "ConfigError: matrix must be"),
        ],
        ids=["not-a-list", "wrong-shape", "wrong-count", "traced", "not-a-matrix"],
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
            ([], "NotTracePreserving: empty Kraus family cannot preserve the trace"),
            (
                [np.eye(2).tolist(), np.eye(3).tolist()],
                "DimensionMismatch: all Kraus operators must be square with equal size",
            ),
            ([[[1, 0, 0], [0, 1, 0]]], "DimensionMismatch: all Kraus operators must be square with equal size"),
            ([np.eye(3).tolist()], "DimensionMismatch: channel dimension does not match the Hamiltonian"),
        ],
        ids=["empty", "ragged", "not-square", "wrong-dimension"],
    )
    def test_bad_kraus_ops_exit_without_traceback(self, tmp_path, capsys, kraus_ops, message):
        model = {"schema": 1, "kind": "kraus", "hamiltonian": [[-0.5, 0], [0, 0.5]], "kraus_ops": kraus_ops}
        (tmp_path / "model.json").write_text(json.dumps(model))
        assert run(tmp_path, "check", str(tmp_path / "model.json")) == EXIT_MODEL
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
        assert run(tmp_path, "check", str(model_path)) == EXIT_MODEL
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
        assert run(tmp_path, "check", str(model_path)) == EXIT_MODEL
        assert "NotTracePreserving" in capsys.readouterr().err

    def test_kraus_model_reports_single_map(self, tmp_path):
        from qdblab.examples import ExampleAParams, example_a_channel

        kraus = example_a_channel(ExampleAParams.default(1.0, 1.0), (1.0,))[0]
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
        q1 = ExampleAParams.default(1.0, 1.0).q_schedule(1.0)
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

    def test_missing_file_exits_2(self, tmp_path):
        assert run(tmp_path, "check", str(tmp_path / "missing.json")) == EXIT_CONFIG

    def test_load_model_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"schema": 1, "kind": "weird"}))
        with pytest.raises(ConfigError):
            load_model(path)


@pytest.mark.parametrize(
    "circulation, balanced", [(0.0, True), (0.4, False)], ids=["balanced", "circulating"]
)
def test_qdb2_reverses_time_in_the_energy_eigenbasis(rng, tmp_path, circulation, balanced):
    # a qutrit model with a non-diagonal H: rotate a diagonal one by a random unitary q
    gen, h = thermal_circulation_qutrit(rng, 1.0, circulation)
    q, _ = np.linalg.qr(random_complex(rng, 3))
    rot = np.kron(q.conj(), q)  # vec(q X q^dag) == rot @ vec(X)
    source = Dynamics.semigroup(
        HamiltonianSpec.from_matrix(q @ h.matrix @ q.conj().T),
        rot @ lindblad_superop(gen) @ rot.conj().T,
    )
    config = RunConfig((0.3, 1.0, 3.0), (0.0, 0.5, 1.0), 2.0, 1.0, 1e-9, 1e-9, 1e-9, tmp_path, "csv")
    (analysis,), failure = analyse([source], config)
    ((verdict, _),) = build_report(analysis, [config])
    assert failure is None
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
        ) == EXIT_CONFIG
        assert "UnknownParameter" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "target, param", [("b", "zeta"), ("missing.json", "beta_i")], ids=["unknown-parameter", "missing-model"]
    )
    def test_empty_range_still_validates_its_target(self, tmp_path, capsys, target, param):
        argv = ("sweep", str(tmp_path / target) if target.endswith(".json") else target)
        assert run(tmp_path, *argv, "--parameter", param, "--range", "0:1:0") == EXIT_CONFIG
        capsys.readouterr()

    @pytest.mark.parametrize(
        "values, code, message",
        [
            # point 0 fails its transition checks, a late stage, and point 1 cannot be built
            ("1e-12:1e-310:2", EXIT_MODEL, "NotTracePreserving: transition rows sum to 1 only within 4.024e-07"),
            ("1e-310:1e-12:2", EXIT_CONFIG,
             "ConfigError: scenario b: n_bar = 1/(e^(beta_f omega) - 1) overflows at beta_f omega = 1e-310"),
            # only the last of 40 points, in the second block, fails
            ("3:1e-12:40", EXIT_MODEL, "NotTracePreserving: transition rows sum to 1 only within 4.024e-07"),
        ],
        ids=["late-check-first", "construction-first", "second-block"],
    )
    def test_the_first_failing_point_raises_whatever_its_stage(self, tmp_path, capsys, values, code, message):
        assert run(tmp_path, "sweep", "b", "--parameter", "beta_f", "--range", values) == code
        assert capsys.readouterr().err == message + "\n"
        assert not (tmp_path / "sweep_b_beta_f.csv").exists()


class TestConfigValidation:
    def test_decreasing_grid_rejected(self, tmp_path):
        assert run(tmp_path, "example", "b", "--tau-grid", "2,1") == EXIT_CONFIG

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
             "sweep-range-inf", "kraus-h-range", "kraus-h-range-beta-i-0"],
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
        }
        for name, obj in models.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        argv = [str(tmp_path / f"{a}.json") if a in models else a for a in argv]
        assert run(tmp_path, *argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("ConfigError: ")
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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("example", "c", "--eta", "1e308"), "scenario c: the generator overflows: its 1-norm is not finite"),
            (("sweep", "c", "--parameter", "eta", "--range", "1e308:1e308:1"),
             "scenario c: the generator overflows: its 1-norm is not finite"),
            # finite entries, but the 1-norm overflows
            (("sweep", "c", "--parameter", "nu", "--range", "1e308:1e308:1"),
             "scenario c: the generator overflows: its 1-norm is not finite"),
            (("example", "c", "--mu", "1e308"), "scenario c: mu = 1e+308 overflows the rates at beta_f omega = 1"),
        ],
        ids=["example-eta", "sweep-eta", "sweep-nu", "example-mu"],
    )
    def test_scenario_c_overflow_exits_2_before_its_cptp_check(self, tmp_path, capsys, argv, message):
        assert run(tmp_path, *argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"ConfigError: {message}\n"

    @pytest.mark.parametrize("name", ["a", "c"])
    def test_save_model_writes_only_scenario_b(self, tmp_path, capsys, name):
        model = tmp_path / "model.json"
        assert run(tmp_path / "reports", "example", name, "--save-model", str(model)) == EXIT_CONFIG
        assert capsys.readouterr().err == f"ConfigError: --save-model writes only scenario b, not scenario {name}\n"
        assert list(tmp_path.iterdir()) == []

    def test_scenario_c_at_low_temperature_is_not_cptp(self, tmp_path, capsys):
        # e^(beta omega) is finite but tau L overflows, so the map at tau = 10 is nan
        assert run(tmp_path, "example", "c", "--beta-f", "709") == EXIT_MODEL
        assert capsys.readouterr().err.startswith("NotCPTP: ")

    @pytest.mark.parametrize("name", ["b", "c"])
    @pytest.mark.parametrize("tau", ["1e200", "1e308"])
    def test_huge_tau_fails_a_check_without_traceback(self, tmp_path, capsys, name, tau):
        # the maps overflow to nan, and the rows fail their probability checks,
        # except scenario b's at 1e200, whose squarings stay finite
        codes = (EXIT_OK,) if (name, tau) == ("b", "1e200") else (EXIT_MODEL, EXIT_INTERNAL)
        assert run(tmp_path, "example", name, "--tau-grid", tau) in codes
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, code, first_line",
        [
            (("example", "b", "--tau-grid", "1e200"), EXIT_OK, None),
            (("example", "b", "--tau-grid", "0.1,1e200"), EXIT_OK, None),
            (("example", "c", "--tau-grid", "1e308"), EXIT_INTERNAL,
             "InternalCheckError: exchange probabilities sum to 0"),
            (("example", "b", "--gamma", "1e6"), EXIT_MODEL,
             "NotTracePreserving: transition rows sum to 1 only within 1.837e-09"),
            (("example", "c", "--beta-f", "16"), EXIT_MODEL,
             "NotCPTP: induced map at tau=10 fails CPTP: cp=0.000e+00, tp=2.305e-09, herm=0.000e+00"),
            # some maps of the grid have inf entries; their transition probabilities are nan, without a warning
            (("example", "b", "--beta-f", "1e-20"), EXIT_MODEL,
             "NotTracePreserving: transition rows sum to 1 only within 8.886e+06"),
            # model entries near the float range fail their checks without a warning
            (("check", "KRAUS_HUGE_OP"), EXIT_MODEL, "NotTracePreserving: sum G^dag G differs from identity by inf"),
            (("check", "LINDBLAD_H_SKEW"), EXIT_MODEL, "NotHermitian: max |m - m^dag| entry exceeds 1e-12"),
            # beta_i (E_1 - E_0) overflows, and the excited level's weight is 0
            (("check", "KRAUS_H_1E303", "--beta-i", "1e6"), EXIT_OK, None),
        ],
        ids=["b-tau-1e200", "b-tau-0.1-and-1e200", "c-tau-1e308", "b-gamma-1e6", "c-beta-f-16", "b-beta-f-1e-20",
             "kraus-huge-op", "lindblad-h-skew", "kraus-h-1e303"],
    )
    def test_failing_checks_keep_their_exit_code_and_message(self, tmp_path, capsys, argv, code, first_line):
        # non-finite maps pass the transition checks (every comparison with nan
        # is false) and leave no gap record, so the records sum to 0; a run
        # that passes (first_line None) writes nothing to stderr
        kraus = {"schema": 1, "kind": "kraus", "hamiltonian": [[-0.5, 0], [0, 0.5]], "kraus_ops": [np.eye(2).tolist()]}
        skew = [[0, 1e308], [-1e308, 0]]
        models = {
            "KRAUS_HUGE_OP": {**kraus, "kraus_ops": [[[1e200, 0], [0, 1]]]},
            "LINDBLAD_H_SKEW": {"schema": 1, "kind": "lindblad", "hamiltonian": skew, "kossakowski": []},
            "KRAUS_H_1E303": {**kraus, "hamiltonian": [[-1e303, 0], [0, 1e303]]},
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
        assert run(tmp_path, "example", "b", "--tol-qdb", "0") == EXIT_CONFIG

    def test_usage_error_exits_2(self, tmp_path, capsys):
        assert main(["example", "zzz"]) == EXIT_CONFIG
        capsys.readouterr()


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
    "argv, sources",
    [(("example", "b"), 1), (("sweep", "b", "--parameter", "gamma", "--range", "0.5:1.5:3"), 3)],
    ids=["example", "sweep"],
)
def test_scenario_b_takes_one_eigendecomposition_per_source(tmp_path, monkeypatch, argv, sources):
    from qdblab import matlin

    original = matlin.herm_eig
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(matlin, "herm_eig", counted)
    assert run(tmp_path, *argv, *FAST) == EXIT_OK
    assert len(calls) == sources


@pytest.mark.parametrize(
    "argv, calls",
    [
        (("sweep", str(Path(__file__).parent / "golden" / "davies3_circulating.json"), "--parameter", "beta_i",
          "--range", "0.5:2.5:3"), {"expm": 1, "classify": 1, "check_qdb1": 1, "check_qdb2": 1, "exchange_grid": 1}),
        (("sweep", "b", "--parameter", "gamma", "--range", "0.5:1.5:3"),
         {"expm": 1, "classify": 1, "check_qdb1": 1, "check_qdb2": 1, "exchange_grid": 3}),
    ],
    ids=["model-beta-i", "b-gamma"],
)
def test_a_sweep_takes_each_stage_once_per_block(tmp_path, monkeypatch, argv, calls):
    # a beta_i sweep builds and checks its one source once, with one exchange grid over
    # its points; a sweep of sources stacks their exponentials, spectra and checks
    from qdblab import balance, fluctuation, matlin

    counts = dict.fromkeys(calls, 0)
    for module in (matlin, fluctuation, balance):
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
