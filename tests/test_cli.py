import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdblab

from qdblab.cli import (
    EXIT_CONFIG,
    EXIT_MODEL,
    EXIT_OK,
    fmt_float,
    load_model,
    main,
    parse_grid,
    parse_range,
    save_model,
)
from qdblab.errors import ConfigError
from qdblab.examples import ExampleBParams, example_b_generator

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

        channel = example_a_channel(ExampleAParams.default(1.0, 1.0), 1.0)
        ops = [
            [[[x.real, x.imag] for x in row] for row in g] for g in channel.kraus_ops
        ]
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
        ],
        ids=["s-outside-unit", "beta-f-inf", "beta-i-nan", "gamma-negative", "omega-negative",
             "sweep-gamma-negative", "model-not-object", "tau-negative", "tau-inf", "tau-nan",
             "kraus-tau-null", "kraus-tau-text", "kraus-ops-number", "a-bias-underflow",
             "b-boltzmann-overflow", "c-boltzmann-overflow"],
    )
    def test_out_of_range_input_exits_2(self, tmp_path, capsys, argv):
        kraus = {
            "schema": 1,
            "kind": "kraus",
            "hamiltonian": [[[-0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]],
            "kraus_ops": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]],
        }
        models = {
            "LIST_MODEL": [{"schema": 1, "kind": "lindblad"}],
            "KRAUS_TAU_NULL": {**kraus, "tau": None},
            "KRAUS_TAU_TEXT": {**kraus, "tau": "abc"},
            "KRAUS_OPS_NUMBER": {**kraus, "kraus_ops": 5},
        }
        for name, obj in models.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        argv = [str(tmp_path / f"{a}.json") if a in models else a for a in argv]
        assert run(tmp_path, *argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("ConfigError: ")

    def test_scenario_c_at_low_temperature_is_not_cptp(self, tmp_path, capsys):
        # e^(beta omega) is finite but the induced maps overflow to inf/nan
        assert run(tmp_path, "example", "c", "--beta-f", "200") == EXIT_MODEL
        assert capsys.readouterr().err.startswith("NotCPTP: ")

    def test_bad_tolerance_rejected(self, tmp_path):
        assert run(tmp_path, "example", "b", "--tol-qdb", "0") == EXIT_CONFIG

    def test_usage_error_exits_2(self, tmp_path, capsys):
        assert main(["example", "zzz"]) == EXIT_CONFIG
        capsys.readouterr()


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


def test_module_entry_point_runs_without_warnings():
    src = str(Path(qdblab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "qdblab.cli", "--help"], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
