"""Command-line interface: dispatch, exit codes, report determinism, CSV."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

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

    @pytest.mark.parametrize("q,code,verdict", [(-10.1196, EXIT_OK, "Infinite"),
                                                (-1.0, EXIT_UNDETERMINED, UNDETERMINED)])
    def test_neumann_below_the_threshold_keeps_the_friedrichs_verdict(self, capsys, q, code,
                                                                      verdict):
        # below q = -1/4 the chart has no Friedrichs frame, and a verdict that
        # is not finite holds for every boundary condition
        _, dirichlet, _ = run_cli(["morse", "--problem", "bessel", "--q", str(q),
                                   "--bc", "dirichlet"], capsys)
        got, out, _ = run_cli(["morse", "--problem", "bessel", "--q", str(q),
                               "--bc", "neumann"], capsys)
        rep = json.loads(out)
        assert got == code and rep["verdict"] == verdict
        assert rep["reason"] == json.loads(dirichlet)["reason"]
        assert rep["diagnostics"]["friedrichs_index"] == verdict

    @pytest.mark.parametrize("problem", [["nbody-asymptotic"], ["bessel", "--q", "2"]])
    def test_neumann_at_a_declared_end(self, capsys, problem):
        # the chart is a direct sum over the directions of the limit matrix:
        # six limit-circle directions for two-body at d = 3, and for q = 2
        # one limit-point direction, which keeps only the data at 1.  Both
        # exited 1 before, with KernelBasisUnavailable and LimitPointNoCondition
        code, out, err = run_cli(["morse", "--problem"] + problem + ["--bc", "neumann"], capsys)
        assert code == EXIT_OK, err
        rep = json.loads(out)
        assert rep["verdict"] == 0 and rep["diagnostics"]["triple_index_correction"] == 0

    def test_schedule_too_short_is_error(self, capsys):
        code, _, err = run_cli(["morse", "--problem", "free",
                                "--delta-schedule", "0.01", "0.001"], capsys)
        assert code == EXIT_ERROR
        assert "ScheduleTooShort" in err

    @pytest.mark.parametrize("problem,param", [("bessel", "'q'"), ("bessel_r", "'r'")])
    def test_missing_catalog_parameter_is_config_invalid(self, capsys, problem, param):
        code, _, err = run_cli(["morse", "--problem", problem], capsys)
        assert code == EXIT_ERROR
        assert "symind.ConfigInvalid" in err and param in err
        assert "Traceback" not in err


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

    def test_triple_at_the_intersection_tolerance_is_an_error(self, capsys):
        # beta at principal sine 1e-9 from alpha: the parity guard fires
        code, out, err = run_cli(["triple", "--alpha", "1", "0", "--beta", "1", "1e-9",
                                  "--gamma", "0", "1"], capsys)
        assert code == EXIT_ERROR and out == ""
        assert "error [symind.Inconclusive]" in err

    def test_hormander_lines(self, capsys):
        code, out, _ = run_cli(["hormander", "--l1", "1", "0", "--l2", "1", "1",
                                "--m1", "0", "1", "--m2", "1", "-1"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == 0


class TestConjugateCommand:
    @pytest.mark.parametrize("q", [-2.0, 0.5])
    def test_singular_end_defaults_to_the_finest_truncation(self, capsys, q):
        # the catalog interval (0, 1) starts at the singular end; the span
        # used is that of the Morse schedule's finest truncation, anchored
        # at the regular end
        from symind.bessel import zero_sequence

        code, out, _ = run_cli(["conjugate", "--problem", "bessel", "--q", str(q)], capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["diagnostics"]["span"] == [1e-7, 1.0]
        zeros = sorted(zero_sequence(q, (1e-7, 1.0))) if q < -0.25 else []
        assert rep["verdict"] == len(zeros)
        pts = sorted(t for t, _ in rep["conjugate_points"])
        assert len(pts) == len(zeros)
        for t, z in zip(pts, zeros):
            assert abs(t - z) / z < 1e-8

    @pytest.mark.parametrize("extra", [["--span", "1", "0.5"], ["--anchor", "5"]])
    def test_span_and_anchor_are_checked(self, capsys, extra):
        code, _, err = run_cli(["conjugate", "--problem", "harmonic", "--omega", "10"] + extra,
                               capsys)
        assert code == EXIT_ERROR
        assert "symind.ConfigInvalid" in err


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
        # -u'' - 300 s u has k pi < sqrt(300) for k = 1..5, so both routes
        # must see 5
        code, out, _ = run_cli(["spectral-flow", "--problem", "free",
                                "--ramp", "-300", "--N", "512"], capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["verdict"] == -5
        assert rep["diagnostics"]["maslov"] == 5
        assert rep["diagnostics"]["agree"] is True

    @pytest.mark.parametrize("R", [13.0 + 21.0 * ((0.5 + i * (math.sqrt(5.0) - 1.0) / 2.0) % 1.0)
                                   for i in range(8)])
    def test_one_crossing_ramp(self, capsys, R):
        # -u'' - R s u, Dirichlet on (0, 1), pi^2 < R < 4 pi^2: the lowest
        # eigenvalue crosses zero once, upward in the Maslov count, at s = pi^2 / R
        code, out, _ = run_cli(["spectral-flow", "--problem", "free",
                                "--ramp", repr(-R), "--N", "512"], capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["verdict"] == -1
        assert rep["diagnostics"]["maslov"] == 1
        [crossing] = rep["crossings"]
        assert crossing["multiplicity"] == 1 and crossing["inertia"] == [1, 0, 0]
        assert crossing["s"] == pytest.approx(math.pi ** 2 / R, rel=1e-12)

    @pytest.mark.parametrize("shift, verdict", [(-1e-4, -1), (1e-3, -2)])
    def test_ramp_next_to_the_second_eigenvalue(self, capsys, shift, verdict):
        # R = 4 pi^2 + shift: the second eigenvalue at s = 1 is -shift, which
        # the scheme puts 4.9e-4 lower; each end's own Morse count takes
        # +1e-4 as zero and keeps -1e-3 negative, as the Maslov route does
        R = 4.0 * math.pi ** 2 + shift
        code, out, _ = run_cli(["spectral-flow", "--problem", "free",
                                "--ramp", repr(-R), "--N", "512"], capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["verdict"] == verdict
        assert rep["diagnostics"]["maslov"] == -verdict

    def test_standing_kernel_is_no_flow(self, capsys):
        # -u'' - 4 u on (0, pi) with no ramp: sin 2t stays in the kernel for
        # every s, so nothing crosses; both ends record a stationary crossing
        code, out, _ = run_cli(["spectral-flow", "--problem", "harmonic", "--omega", "2",
                                "--interval", "0", str(math.pi), "--ramp", "0",
                                "--N", "256"], capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["verdict"] == 0
        assert rep["diagnostics"]["maslov"] == 0
        assert [(c["s"], c["inertia"]) for c in rep["crossings"]] == [(0.0, [0, 1, 0]),
                                                                      (1.0, [0, 1, 0])]

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

    @pytest.mark.parametrize("ramp", ["200", "400"])
    def test_stiff_monodromy_is_symplectic(self, capsys, ramp):
        # -u'' + ramp s u has no eigenvalue below zero; its monodromy reaches
        # max|M| ~ 1e7 at ramp 200, where the absolute residual of M^T J M - J
        # is 1e-4 but relative to |M|^2 it is roundoff
        code, out, _ = run_cli(["spectral-flow", "--problem", "free",
                                "--ramp", ramp, "--N", "512"], capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["verdict"] == 0
        assert rep["diagnostics"]["maslov"] == 0

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

    @pytest.mark.parametrize("u_values", [["-0.1", "-0.05"], ["0.3", "0"]])
    def test_non_positive_u_is_config_invalid(self, capsys, u_values):
        # an untyped ValueError ("need b > a") from the Maslov path before
        code, out, err = run_cli(["rellich", "--q", "0.3", "--u-values"] + u_values, capsys)
        assert code == EXIT_ERROR and out == ""
        assert "symind.ConfigInvalid" in err
        assert all(str(float(u)) in err for u in u_values if float(u) <= 0)


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

    def test_hyperbolic_labels_agree_with_the_verdict(self, capsys):
        # the -1/4 rule labelled two directions Infinite next to verdict 0
        code, out, _ = run_cli(["nbody", "--config", "euler3", "--motion", "hyperbolic",
                                "--dimension", "3"], capsys)
        assert code == EXIT_OK
        rep = json.loads(out)
        assert rep["verdict"] == 0
        assert rep["diagnostics"]["per_direction"] == ["Finite"] * 9

    def test_json_configuration(self, capsys, tmp_path):
        cfg = tmp_path / "pair.json"
        cfg.write_text('{"masses": [1, 1], "positions": [[0.6, 0, 0], '
                       '[-0.6, 0, 0]], "dimension": 3}')
        code, out, _ = run_cli(["nbody", "--config", str(cfg),
                                "--motion", "hyperbolic"], capsys)
        assert code == EXIT_OK
        assert isinstance(json.loads(out)["verdict"], int)

    def test_off_line_euler3_configuration(self, capsys, tmp_path):
        # euler3 at d = 2 moved 1e-2 N(0, 1) off its line (seed 1): the
        # undamped Newton solver exited 1 here with SolverDiverged
        q = np.array([[-math.sqrt(0.5), 0.0], [0.0, 0.0], [math.sqrt(0.5), 0.0]])
        q += 1e-2 * np.random.default_rng(1).standard_normal((3, 2))
        cfg = tmp_path / "euler3.json"
        cfg.write_text(json.dumps({"masses": [1, 1, 1], "positions": q.tolist(),
                                   "dimension": 2}))
        code, out, _ = run_cli(["nbody", "--config", str(cfg)], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["verdict"] == "Infinite"

    def test_positions_not_matching_masses_are_config_invalid(self, capsys, tmp_path):
        # 3 masses, 2 positions: an untyped ValueError from a reshape before
        cfg = tmp_path / "short.json"
        cfg.write_text('{"masses": [1, 1, 1], "positions": [[0.6, 0], [-0.6, 0]], '
                       '"dimension": 2}')
        code, _, err = run_cli(["nbody", "--config", str(cfg)], capsys)
        assert code == EXIT_ERROR
        assert "ConfigInvalid" in err

    def test_nan_coordinate_is_config_invalid(self, capsys, tmp_path):
        # json accepts NaN, and NaN passes the collision check; the solver
        # ended in a LinAlgError from lstsq before
        cfg = tmp_path / "nan.json"
        cfg.write_text('{"masses": [1, 1], "positions": [[NaN, 0, 0], [-0.6, 0, 0]], '
                       '"dimension": 3}')
        code, _, err = run_cli(["nbody", "--config", str(cfg)], capsys)
        assert code == EXIT_ERROR
        assert "ConfigInvalid" in err

    @pytest.mark.parametrize("argv, data", [
        (["--config", "two-body", "--motion", "bogus"], None),
        (["--config", "{path}"], {"masses": [1, -1], "positions": [[0.6, 0, 0], [-0.6, 0, 0]],
                                  "dimension": 3}),
        (["--config", "{path}"], {"masses": [1, 1], "positions": [[0.6, 0, 0, 0],
                                                                  [-0.6, 0, 0, 0]],
                                  "dimension": 4}),
        (["--config", "two-body", "--dimension", "4"], None)])
    def test_invalid_input_is_config_invalid(self, capsys, tmp_path, argv, data):
        # each exited 1 with an untyped ValueError before
        cfg = tmp_path / "config.json"
        if data is not None:
            cfg.write_text(json.dumps(data))
        code, _, err = run_cli(["nbody"] + [a.format(path=cfg) for a in argv], capsys)
        assert code == EXIT_ERROR
        assert "symind.ConfigInvalid" in err


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

    def test_json_problem_file_is_config_invalid(self, capsys, tmp_path):
        # only CSV coefficient tables are read
        path = tmp_path / "x.json"
        path.write_text("{}")
        code, _, err = run_cli(["morse", "--problem", str(path)], capsys)
        assert code == EXIT_ERROR
        assert "symind.ConfigInvalid" in err

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
            "numeric.s_range": ("spectral-flow", [0.0, 0.5], {"s_range": [0.0, 0.5]}),
            "output.report": ("morse", "r.json", {"report": "r.json"}),
            "output.csv": ("morse", "t.csv", {"csv": "t.csv"}),
        }
        assert sorted(fields) == sorted(cases)

        seen = {}
        for handler in ("cmd_morse", "cmd_spectral_flow"):
            monkeypatch.setattr(cli, handler, lambda args: seen.update(vars(args)) or EXIT_OK)
        for field, (command, value, parsed) in cases.items():
            cfg = {"command": command, "problem": {"name": "free"}}
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

    def test_every_schema_command_runs(self, monkeypatch, tmp_path):
        import symind.cli as cli

        schema = json.loads((Path(cli.__file__).parent / "schemas"
                             / "runconfig.schema.json").read_text())["properties"]
        configs = {"conjugate": {"problem": {"name": "free"}},
                   "morse": {"problem": {"name": "free"}},
                   "spectral-flow": {"problem": {"name": "free"}},
                   "rellich": {"numeric": {"N": 256}}}
        assert sorted(schema["command"]["enum"]) == sorted(configs)
        ran = []
        for handler in ("cmd_conjugate", "cmd_morse", "cmd_spectral_flow", "cmd_rellich"):
            monkeypatch.setattr(cli, handler, lambda args: ran.append(args.command) or EXIT_OK)
        for command, cfg in configs.items():
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps({"command": command, **cfg}))
            assert main(["run", "--config", str(path)]) == EXIT_OK, command
        assert ran == list(configs)

    def test_field_without_option_is_config_invalid(self, capsys, tmp_path):
        configs = [
            {"command": "morse", "problem": {"name": "harmonic", "params": {"omega": 2}},
             "numeric": {"N": 256}},
            # numeric.window is no run-config field
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
    @pytest.mark.parametrize("argv", [["morse", "--problem", "harmonic", "--N", "5"],
                                      ["catalog", "describe"]])
    def test_usage_error_exits_one(self, capsys, argv):
        # exit 2 is reserved for Undetermined
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_ERROR
        assert "usage" in err

    def test_version_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("argv", [["--help"], ["spectral-flow", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: symind" in capsys.readouterr().out

    def test_consecutive_commands_share_no_state(self, capsys):
        # the parser is built once per process; each command line still parses
        # into a fresh namespace, so options of one command never reach the
        # next and the provenance hash of a report is the same either way
        from symind.cli import build_parser

        assert build_parser() is build_parser()
        morse = ["morse", "--problem", "harmonic", "--omega", "5", "--interval", "0", "1"]
        code, alone, _ = run_cli(morse, capsys)
        assert code == EXIT_OK
        code, _, _ = run_cli(["spectral-flow", "--problem", "free", "--bc", "neumann",
                              "--ramp", "-30", "--N", "128"], capsys)
        assert code == EXIT_OK
        code, after, _ = run_cli(morse, capsys)
        assert code == EXIT_OK
        assert after == alone

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
