"""Command-line interface: dispatch, exit codes, report determinism, CSV."""

import json
import math
from pathlib import Path

import numpy as np

from symind.cli import EXIT_ERROR, EXIT_OK, EXIT_UNDETERMINED, main
from symind.report import UNDETERMINED


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestMorseCommand:
    def test_harmonic_oracle(self, capsys):
        code, out, _ = run_cli(["morse", "--problem", "harmonic", "--omega", "10",
                                "--interval", "0", "1", "--bc", "dirichlet"], capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["verdict"] == 3
        assert len(rep["conjugate_points"]) == 3

    def test_infinite_verdict_exits_zero(self, capsys, tmp_path):
        csv = tmp_path / "points.csv"
        code, out, _ = run_cli(["morse", "--problem", "bessel", "--q",
                                str(-0.25 - math.pi ** 2), "--csv", str(csv)], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "Infinite"
        assert csv.exists()

    def test_schedule_too_short_is_error(self, capsys):
        code, _, err = run_cli(["morse", "--problem", "free",
                                "--delta-schedule", "0.01", "0.001"], capsys)
        assert code == EXIT_ERROR
        assert "ScheduleTooShort" in err


class TestBesselCommand:
    def test_zero_sequence_csv(self, capsys, tmp_path):
        csv = tmp_path / "zeros.csv"
        code, out, _ = run_cli(["bessel", "--q", str(-0.25 - math.pi ** 2),
                                "--window", str(math.exp(-4.0) * (1 + 1e-12)), "1",
                                "--csv", str(csv)], capsys)
        assert code == EXIT_OK
        rows = np.loadtxt(csv, delimiter=",", skiprows=1)
        assert np.allclose(np.sort(rows), [math.exp(-3), math.exp(-2), math.exp(-1)])

    def test_needs_coupling(self, capsys):
        code, _, err = run_cli(["bessel"], capsys)
        assert code == EXIT_ERROR and "ConfigInvalid" in err


class TestIndexCommands:
    def test_maslov_rotating_line(self, capsys):
        code, out, _ = run_cli(["maslov", "--angles", str(-np.pi / 4), str(np.pi / 4)],
                               capsys)
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == 1

    def test_triple_lines(self, capsys):
        code, out, _ = run_cli(["triple", "--alpha", "1", "0", "--beta", "0", "1",
                                "--gamma", "1", "-1"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == 1

    def test_hormander_lines(self, capsys):
        code, out, _ = run_cli(["hormander", "--l1", "1", "0", "--l2", "1", "1",
                                "--m1", "0", "1", "--m2", "1", "-1"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == 0


class TestSpectralFlowCommand:
    def test_harmonic_ramp(self, capsys):
        code, out, _ = run_cli(["spectral-flow", "--problem", "free",
                                "--ramp", "-100", "--N", "128"], capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["verdict"] == -3
        assert rep["diagnostics"]["maslov"] == 3
        assert rep["diagnostics"]["agree"] is True

    def test_fast_ramp_counts_every_crossing(self, capsys):
        # -u'' - 300 s u has k pi < sqrt(300) for k = 1..5; its eigenvalues
        # pass the spectral margin inside cells, so both routes must see 5
        code, out, _ = run_cli(["spectral-flow", "--problem", "free",
                                "--ramp", "-300", "--N", "512"], capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["verdict"] == -5
        assert rep["diagnostics"]["maslov"] == 5
        assert rep["diagnostics"]["agree"] is True

    def test_route_disagreement_is_undetermined(self, capsys, monkeypatch):
        # a spectral-flow count of -1 against the Maslov route's 3 must give
        # neither count as the verdict
        import symind.spectral

        monkeypatch.setattr(symind.spectral, "spectral_flow", lambda *args, **kwargs: -1)
        code, out, _ = run_cli(["spectral-flow", "--problem", "free",
                                "--ramp", "-100", "--N", "128"], capsys)
        assert code == EXIT_UNDETERMINED
        rep = json.loads(out)
        assert rep["verdict"] == UNDETERMINED
        assert rep["diagnostics"]["maslov"] == 3
        assert rep["diagnostics"]["agree"] is False
        assert "spectral flow -1" in rep["reason"] and "Maslov index 3" in rep["reason"]


    def test_two_dimensional_coefficient_table(self, capsys, tmp_path):
        # -(P x')' - 30 s x with P = diag(1, 2) on (0, 1), Dirichlet: pi^2 < 30
        # and 2 pi^2 < 30, one crossing in each component
        t = np.linspace(0.0, 1.0, 11)
        one, zero = np.ones_like(t), np.zeros_like(t)
        columns = {"t": t, "P_11": one, "P_12": zero, "P_21": zero, "P_22": 2.0 * one}
        columns.update({f"{X}_{i}{j}": zero for X in "QR" for i in (1, 2) for j in (1, 2)})
        table = tmp_path / "coefficients.csv"
        np.savetxt(table, np.column_stack(list(columns.values())), delimiter=",",
                   header=",".join(columns), comments="")
        code, out, _ = run_cli(["spectral-flow", "--problem", str(table), "--dim", "2",
                                "--ramp", "-30", "--N", "128"], capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["verdict"] == -2
        assert rep["diagnostics"]["maslov"] == 2


class TestRellichCommand:
    def test_scan(self, capsys):
        code, out, _ = run_cli(["rellich", "--q", "0", "--N", "256",
                                "--u-values", "0.3", "0.1", "0.02", "--M", "100"],
                               capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["verdict"] == 1
        assert rep["diagnostics"]["counts_below_minus_M"]["100.0"][-1] == 1


class TestNbodyCommand:
    def test_two_body_collision(self, capsys, tmp_path):
        csv = tmp_path / "spectrum.csv"
        code, out, _ = run_cli(["nbody", "--config", "two-body",
                                "--motion", "total-collision", "--csv", str(csv)],
                               capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert isinstance(rep["verdict"], int)
        spectrum = np.loadtxt(csv, delimiter=",", skiprows=1)
        assert np.min(np.abs(spectrum - 4.0 / 9.0)) < 1e-9

    def test_json_configuration(self, capsys, tmp_path):
        cfg = tmp_path / "pair.json"
        cfg.write_text('{"masses": [1, 1], "positions": [[0.6, 0, 0], '
                       '[-0.6, 0, 0]], "dimension": 3}')
        code, out, _ = run_cli(["nbody", "--config", str(cfg),
                                "--motion", "hyperbolic"], capsys)
        assert code == EXIT_OK
        assert isinstance(json.loads(out)["verdict"], int)


class TestCatalogCommand:
    def test_list(self, capsys):
        code, out, _ = run_cli(["catalog", "list"], capsys)
        assert code == EXIT_OK
        names = out.split()
        for expected in ("free", "harmonic", "bessel", "mathieu", "nbody-asymptotic"):
            assert expected in names

    def test_describe(self, capsys):
        code, out, _ = run_cli(["catalog", "describe", "bessel"], capsys)
        assert code == EXIT_OK
        assert "t^(1/2+r)" in out and "limit circle" in out.lower()

    def test_unknown_entry(self, capsys):
        code, _, err = run_cli(["catalog", "describe", "nosuch"], capsys)
        assert code == EXIT_ERROR
        assert "UnknownCatalogEntry" in err


class TestRunConfig:
    def test_missing_file_is_config_invalid(self, capsys):
        code, _, err = run_cli(["run", "--config", "/nonexistent/config.json"], capsys)
        assert code == EXIT_ERROR
        assert "ConfigInvalid" in err

    def test_missing_problem_file(self, capsys):
        code, _, err = run_cli(["morse", "--problem", "/nonexistent/coeffs.csv"],
                               capsys)
        assert code == EXIT_ERROR
        assert "ConfigInvalid" in err

    def test_dispatch_from_json(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "command": "morse",
            "problem": {"name": "harmonic",
                        "params": {"omega": 10, "interval": [0, 1]}},
            "bc": "dirichlet",
            "output": {"report": str(report)},
        }))
        code = main(["run", "--config", str(cfg)])
        assert code == EXIT_OK
        assert json.loads(report.read_text())["verdict"] == 3

    def test_every_schema_field_reaches_its_option(self, monkeypatch, tmp_path):
        import symind.cli as cli

        schema = json.loads((Path(cli.__file__).parent / "schemas"
                             / "runconfig.schema.json").read_text())["properties"]
        fields = [f"{key}.{sub}" if sub else key for key, spec in schema.items()
                  for sub in (spec.get("properties") or [None]) if key != "command"]
        # field -> (a command that takes it, the field's value, parsed options)
        cases = {
            "problem.name": ("morse", "harmonic", {"problem": "harmonic"}),
            "problem.params": ("morse", {"omega": 3, "q": 0.5, "r": 0.2, "a": 1,
                                         "interval": [0, 2]},
                               {"omega": 3.0, "q": 0.5, "r": 0.2, "a": 1.0,
                                "interval": [0.0, 2.0]}),
            "problem.dim": ("morse", 2, {"dim": 2}),
            "bc": ("morse", "neumann", {"bc": "neumann"}),
            "numeric.N": ("spectral-flow", 256, {"N": 256}),
            "numeric.delta_schedule": ("morse", [1e-2, 1e-3, 1e-4, 1e-5],
                                       {"delta_schedule": [1e-2, 1e-3, 1e-4, 1e-5]}),
            "numeric.window": ("bessel", [1e-3, 1.0], {"window": [1e-3, 1.0]}),
            "numeric.s_range": ("spectral-flow", [0.0, 0.5], {"s_range": [0.0, 0.5]}),
            "output.report": ("morse", "r.json", {"report": "r.json"}),
            "output.csv": ("morse", "t.csv", {"csv": "t.csv"}),
        }
        assert sorted(fields) == sorted(cases)

        seen = {}
        for handler in ("cmd_morse", "cmd_spectral_flow", "cmd_bessel"):
            monkeypatch.setattr(cli, handler, lambda args: seen.update(vars(args)) or EXIT_OK)
        for field, (command, value, parsed) in cases.items():
            cfg = {"command": command}
            if command != "bessel":
                cfg["problem"] = {"name": "free"}
            section, _, key = field.partition(".")
            if key:
                cfg.setdefault(section, {})[key] = value
            else:
                cfg[section] = value
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            seen.clear()
            assert main(["run", "--config", str(path)]) == EXIT_OK, field
            assert {k: seen[k] for k in parsed} == parsed, field

    def test_field_without_option_is_config_invalid(self, capsys, tmp_path):
        configs = [
            {"command": "morse", "problem": {"name": "harmonic", "params": {"omega": 2}},
             "numeric": {"N": 256}},
            # --window would prefix spectral-flow's --window-gap
            {"command": "spectral-flow", "problem": {"name": "free"},
             "numeric": {"window": [0.0, 1.0]}},
            {"command": "bessel", "problem": {"name": "bessel", "params": {"q": -10}}},
            {"command": "morse", "problem": {"name": "free"}, "numeric": {"jobs": 2}},
            {"command": "morse", "problem": {"name": "free"}, "bc": {"frame": [[1], [0]]}},
        ]
        for cfg in configs:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(cfg))
            code, _, err = run_cli(["run", "--config", str(path)], capsys)
            assert code == EXIT_ERROR, cfg
            assert "ConfigInvalid" in err, cfg


class TestDeterminismAndExitCodes:
    def test_byte_identical_reports(self, capsys, tmp_path):
        r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
        for path in (r1, r2):
            code = main(["morse", "--problem", "harmonic", "--omega", "5",
                         "--interval", "0", "1", "--report", str(path)])
            assert code == EXIT_OK
        assert r1.read_bytes() == r2.read_bytes()

    def test_undetermined_maps_to_exit_two(self, tmp_path):
        import argparse

        from symind.cli import _emit
        from symind.report import IndexReport

        rep = IndexReport(command="morse", verdict=UNDETERMINED, reason="test stub")
        args = argparse.Namespace(report=str(tmp_path / "r.json"), csv=None)
        assert _emit(rep, args) == EXIT_UNDETERMINED

    def test_conjugate_command_counts(self, capsys):
        code, out, _ = run_cli(["conjugate", "--problem", "harmonic", "--omega", "10",
                                "--interval", "0", "1"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == 3
