"""Command-line front end: problem ingestion, dispatch, report and CSV
emission.

Exit codes: 0 for a computed verdict (including Infinite), 2 for an
Undetermined verdict, 1 for any error.  Reports are deterministic JSON
(no timestamps); identical configurations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigInvalid, SymindError
from .report import INFINITE, UNDETERMINED, IndexReport, config_hash

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDETERMINED = 2

_CATALOG_NAMES = ("free", "harmonic", "bessel", "bessel_r", "mathieu", "nbody-asymptotic")


def _resolve_problem(name: str, params: dict, dim: int | None = None):
    from .catalog import load_problem_csv, make_problem

    if name in _CATALOG_NAMES:
        return make_problem(name, **params)
    path = Path(name)
    if not path.exists():
        raise ConfigInvalid(f"problem {name!r} is neither a catalog entry nor an existing file")
    if path.suffix == ".csv":
        if dim is None:
            raise ConfigInvalid("CSV coefficient tables need --dim")
        return load_problem_csv(str(path), dim)
    raise ConfigInvalid(f"unsupported problem file type {path.suffix!r}")


def _line_frame_2d(vec):
    from .core import SymplecticSpace, line_frame
    return line_frame(SymplecticSpace.standard(1), vec)


def _emit(report: IndexReport, args, csv_rows=None, csv_header=None) -> int:
    text = report.to_json()
    if getattr(args, "report", None):
        Path(args.report).write_text(text + "\n")
    else:
        print(text)
    if getattr(args, "csv", None) and csv_rows is not None:
        arr = np.atleast_2d(np.asarray(csv_rows, dtype=float))
        if arr.size:
            np.savetxt(args.csv, arr, delimiter=",", header=csv_header or "", comments="")
        else:
            Path(args.csv).write_text((csv_header + "\n") if csv_header else "")
    if report.verdict == UNDETERMINED:
        return EXIT_UNDETERMINED
    return EXIT_OK


def _provenance(args) -> dict:
    # output destinations do not affect results, so they stay out of the
    # hash: identical computations give byte-identical reports
    skip = ("func", "report", "csv")
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in skip and v is not None}
    return {"toolkit_version": __version__, "config_hash": config_hash(cfg)}


def _problem_params(args) -> dict:
    params = {}
    for key in ("omega", "q", "r", "a"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    if getattr(args, "interval", None) is not None:
        params["interval"] = tuple(args.interval)
    return params


# -- command handlers ----------------------------------------------------------


def cmd_morse(args) -> int:
    from .sturm import BoundaryCondition, morse_index_dirichlet, morse_index_general

    problem = _resolve_problem(args.problem, _problem_params(args), args.dim)
    schedule = tuple(args.delta_schedule) if args.delta_schedule else None
    kwargs = {} if schedule is None else {"delta_schedule": schedule}
    if args.bc in (None, "dirichlet", "friedrichs"):
        rep = morse_index_dirichlet(problem, **kwargs)
    else:
        rep = morse_index_general(problem, BoundaryCondition(args.bc), **kwargs)
    rep.provenance.update(_provenance(args))
    rows = [[t, m] for t, m in rep.conjugate_points]
    return _emit(rep, args, rows, "t,multiplicity")


def cmd_conjugate(args) -> int:
    from .core import dirichlet_frame
    from .sturm import conjugate_points

    problem = _resolve_problem(args.problem, _problem_params(args), args.dim)
    span = tuple(args.span) if args.span else problem.interval
    LD = dirichlet_frame(problem.space)
    pts = conjugate_points(problem, LD, LD, span, anchor=args.anchor)
    rep = IndexReport(command="conjugate", verdict=int(sum(m for _, m in pts)),
                      conjugate_points=list(pts), provenance=_provenance(args))
    return _emit(rep, args, [[t, m] for t, m in pts], "t,multiplicity")


def cmd_bessel(args) -> int:
    from .bessel import q_of_r, zero_sequence

    q = args.q if args.q is not None else (q_of_r(args.r) if args.r is not None else None)
    if q is None:
        raise ConfigInvalid("bessel needs --q or --r")
    window = tuple(args.window) if args.window else (1e-4, 1.0)
    if q < -0.25:
        zeros = zero_sequence(q, window)
        verdict = INFINITE
    else:
        zeros = []
        verdict = 0
    rep = IndexReport(command="bessel", verdict=verdict,
                      conjugate_points=[(t, 1) for t in zeros],
                      diagnostics={"q": q, "window": list(window),
                                   "count_in_window": len(zeros)},
                      provenance=_provenance(args))
    return _emit(rep, args, [[t] for t in zeros], "t")


def cmd_maslov(args) -> int:
    from .core import SymplecticSpace, line_frame
    from .maslov import LagrangianPath, maslov_clm

    space = SymplecticSpace.standard(1)
    ref = line_frame(space, args.reference)
    base = line_frame(space, args.line)
    t0, t1 = args.angles
    path = LagrangianPath.rotation(base, lambda t: -t, t0, t1)  # counterclockwise
    mu, recs = maslov_clm(LagrangianPath.constant(ref, t0, t1), path)
    rep = IndexReport(command="maslov", verdict=int(mu),
                      crossings=[{"t": r.t, "multiplicity": r.multiplicity,
                                  "inertia": [r.inertia.n_plus, r.inertia.n_zero,
                                              r.inertia.n_minus]} for r in recs],
                      provenance=_provenance(args))
    rows = [[r.t, r.multiplicity, r.inertia.signature] for r in recs]
    return _emit(rep, args, rows, "t,multiplicity,signature")


def cmd_triple(args) -> int:
    from .maslov import triple_index

    iota = triple_index(_line_frame_2d(args.alpha), _line_frame_2d(args.beta),
                        _line_frame_2d(args.gamma))
    rep = IndexReport(command="triple", verdict=int(iota), provenance=_provenance(args))
    return _emit(rep, args)


def cmd_hormander(args) -> int:
    from .maslov import hormander_index

    s = hormander_index(_line_frame_2d(args.l1), _line_frame_2d(args.l2),
                        _line_frame_2d(args.m1), _line_frame_2d(args.m2))
    rep = IndexReport(command="hormander", verdict=int(s), provenance=_provenance(args))
    return _emit(rep, args)


def cmd_spectral_flow(args) -> int:
    from .spectral import EigenTrace, discretized_family, verify_sf_formula

    base = _resolve_problem(args.problem, _problem_params(args), args.dim)
    ramp = args.ramp

    def c(s, t):
        return ramp * s * np.eye(base.dim)

    problem = replace(base, c=c)
    out = verify_sf_formula(problem, args.bc or "dirichlet",
                            tuple(args.s_range), N=args.N)
    verdict, reason = int(out["sf"]), None
    if not out["agree"]:
        verdict = UNDETERMINED
        reason = (f"spectral flow {out['sf']} disagrees with the Maslov index "
                  f"{out['maslov']}; the formula requires sf = -maslov")
    rep = IndexReport(command="spectral-flow", verdict=verdict, reason=reason,
                      crossings=[{"s": t, "multiplicity": m, "inertia": list(i)}
                                 for t, m, i in out["crossings"]],
                      diagnostics={"maslov": out["maslov"], "agree": out["agree"],
                                   "N": out["N"]},
                      provenance=_provenance(args))
    rows = None
    header = None
    if args.csv:
        fam = discretized_family(problem, args.bc or "dirichlet", args.N)
        trace = EigenTrace.collect(fam, np.linspace(*args.s_range, 33), m=6)
        rows = np.column_stack([trace.s_grid, trace.eigenvalues])
        header = "s," + ",".join(f"lambda_{i+1}" for i in range(trace.eigenvalues.shape[1]))
    return _emit(rep, args, rows, header)


def cmd_rellich(args) -> int:
    from .core import SymplecticSpace, line_frame, rotation_matrix
    from .spectral import rellich_ghosts

    delta = args.delta
    problem = _resolve_problem("bessel", {"q": args.q, "interval": (delta, 1.0)}, None)
    from .bessel import r_of_q
    r = r_of_q(args.q)
    principal_value = delta ** (0.5 + r)
    principal_quasi = (0.5 + r) * delta ** (r - 0.5)
    left_space = SymplecticSpace.minus_plus(1, 0)
    fr = line_frame(left_space, [principal_quasi, principal_value])

    def bc_path(u):
        return rotation_matrix(left_space, -u) @ fr.frame

    out = rellich_ghosts(problem, bc_path, fr, M_values=tuple(args.M), N=args.N,
                         u_values=tuple(args.u_values))
    rep = IndexReport(command="rellich", verdict=int(out["maslov_prediction"]),
                      diagnostics={"counts_below_minus_M":
                                   {str(k): v for k, v in out["counts_below_minus_M"].items()},
                                   "u_values": out["u_values"],
                                   "lambda_min_trace": out["lambda_min_trace"],
                                   "N": out["N"]},
                      provenance=_provenance(args))
    rows = np.column_stack([out["u_values"], out["lambda_min_trace"]])
    return _emit(rep, args, rows, "u,lambda_min")


def cmd_nbody(args) -> int:
    from .nbody import (asymptotic_morse, central_configuration,
                        load_configuration, seed_central_config)

    if args.config in ("two-body", "lagrange3", "euler3"):
        cc = seed_central_config(args.config, d=args.dimension)
    else:
        path = Path(args.config)
        if not path.exists():
            raise ConfigInvalid(f"no such configuration file: {args.config}")
        cfg = load_configuration(str(path))
        cc = central_configuration(cfg.system, cfg)
    rep = asymptotic_morse(cc, args.motion)
    rep.command = "nbody"
    rep.diagnostics["cc_residual"] = cc.residual
    rep.provenance.update(_provenance(args))
    spectrum = rep.diagnostics["bbar_spectrum"]
    return _emit(rep, args, [[v] for v in spectrum], "bbar_eigenvalue")


def cmd_catalog(args) -> int:
    from .catalog import catalog_describe, catalog_list

    if args.action == "list":
        for name in catalog_list():
            print(name)
        return EXIT_OK
    print(catalog_describe(args.name))
    return EXIT_OK


# run-config field -> the option it becomes; a catalog parameter in
# problem.params becomes the option of its own name
_RUN_OPTIONS = {
    "problem.name": "--problem",
    "problem.dim": "--dim",
    "bc": "--bc",
    "numeric.N": "--N",
    "numeric.delta_schedule": "--delta-schedule",
    "numeric.s_range": "--s-range",
    "output.report": "--report",
    "output.csv": "--csv",
}


def _run_argv(cfg: dict) -> list:
    """The command line of a run configuration; ConfigInvalid for a field
    that has no option."""
    if "command" not in cfg:
        raise ConfigInvalid("config must name a command")
    fields = {}
    for key, val in cfg.items():
        if isinstance(val, dict):
            fields.update({f"{key}.{k}": v for k, v in val.items()})
        else:
            fields[key] = val
    argv = [str(fields.pop("command"))]
    params = fields.pop("problem.params", {})
    if not isinstance(params, dict):
        raise ConfigInvalid("problem.params must be an object")
    options = {f"--{key}": val for key, val in params.items()}
    for name, val in fields.items():
        if name not in _RUN_OPTIONS:
            raise ConfigInvalid(f"{name} is not a run-config field")
        options[_RUN_OPTIONS[name]] = val
    for flag, val in options.items():
        argv += [flag] + [str(v) for v in (val if isinstance(val, list) else [val])]
    return argv


def cmd_run(args) -> int:
    """Dispatch a JSON run configuration (schema in symind/schemas/)."""
    path = Path(args.config)
    if not path.exists():
        raise ConfigInvalid(f"no such config file: {args.config}")
    try:
        cfg = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"config is not valid JSON: {exc}") from exc
    argv = _run_argv(cfg)
    try:
        run_args = build_parser().parse_args(argv)
    except SystemExit:
        # argparse has printed which option the command lacks or rejects
        raise ConfigInvalid(f"config does not fit the {argv[0]} command: {' '.join(argv)}") from None
    return run_args.func(run_args)


# -- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symind",
        description="symplectic intersection indices and Morse indices of "
                    "singular Sturm-Liouville operators")
    parser.add_argument("--version", action="version", version=__version__)
    # exact option names only, so that no run-config field lands on an
    # option it merely prefixes
    sub = parser.add_subparsers(dest="command", required=True, parser_class=partial(
        argparse.ArgumentParser, allow_abbrev=False))

    def common(p):
        p.add_argument("--report", help="write the JSON report here (default: stdout)")
        p.add_argument("--csv", help="write CSV trace data here")

    def problem_args(p):
        p.add_argument("--problem", required=True,
                       help="catalog name or coefficient file path")
        p.add_argument("--omega", type=float)
        p.add_argument("--q", type=float)
        p.add_argument("--r", type=float)
        p.add_argument("--a", type=float)
        p.add_argument("--interval", nargs=2, type=float)
        p.add_argument("--dim", type=int)

    p = sub.add_parser("morse", help="Morse index of a boundary value problem")
    problem_args(p)
    p.add_argument("--bc", choices=("dirichlet", "neumann", "friedrichs"))
    p.add_argument("--delta-schedule", nargs="+", type=float)
    common(p)
    p.set_defaults(func=cmd_morse)

    p = sub.add_parser("conjugate", help="conjugate points of a problem")
    problem_args(p)
    p.add_argument("--span", nargs=2, type=float)
    p.add_argument("--anchor", type=float)
    common(p)
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser("bessel", help="zero sequence / classification of a coupling")
    p.add_argument("--q", type=float)
    p.add_argument("--r", type=float)
    p.add_argument("--window", nargs=2, type=float)
    common(p)
    p.set_defaults(func=cmd_bessel)

    p = sub.add_parser("maslov", help="index of a rotating line against a reference")
    p.add_argument("--angles", nargs=2, type=float, required=True)
    p.add_argument("--line", nargs=2, type=float, default=(1.0, 0.0))
    p.add_argument("--reference", nargs=2, type=float, default=(1.0, 0.0))
    common(p)
    p.set_defaults(func=cmd_maslov)

    p = sub.add_parser("triple", help="triple index of three lines in R^2")
    for name in ("alpha", "beta", "gamma"):
        p.add_argument(f"--{name}", nargs=2, type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_triple)

    p = sub.add_parser("hormander", help="Hormander index of four lines in R^2")
    for name in ("l1", "l2", "m1", "m2"):
        p.add_argument(f"--{name}", nargs=2, type=float, required=True)
    common(p)
    p.set_defaults(func=cmd_hormander)

    p = sub.add_parser("spectral-flow", help="spectral flow of a ramped family "
                                             "and the boundary Maslov identity")
    problem_args(p)
    p.add_argument("--bc", choices=("dirichlet", "neumann"))
    p.add_argument("--ramp", type=float, default=-100.0,
                   help="zero-order ramp coefficient: C(s, t) = ramp * s")
    p.add_argument("--s-range", nargs=2, type=float, default=(0.0, 1.0))
    p.add_argument("--N", type=int, default=512)
    common(p)
    p.set_defaults(func=cmd_spectral_flow)

    p = sub.add_parser("rellich", help="ghost-eigenvalue scan for a rotating "
                                       "limit-circle boundary condition")
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=1e-3)
    p.add_argument("--M", nargs="+", type=float, default=(1e2, 1e3))
    p.add_argument("--u-values", nargs="+", type=float,
                   default=(0.4, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005))
    p.add_argument("--N", type=int, default=1024)
    common(p)
    p.set_defaults(func=cmd_rellich)

    p = sub.add_parser("nbody", help="Morse classification of an asymptotic motion")
    p.add_argument("--config", required=True,
                   help="two-body | lagrange3 | euler3 | JSON file path")
    p.add_argument("--motion", default="total-collision",
                   help="total-collision | parabolic | hyperbolic")
    p.add_argument("--dimension", type=int, default=3)
    common(p)
    p.set_defaults(func=cmd_nbody)

    p = sub.add_parser("catalog", help="list or describe builtin problems")
    p.add_argument("action", choices=("list", "describe"))
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("run", help="dispatch a JSON run configuration")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "catalog" and args.action == "describe" and not args.name:
            parser.error("catalog describe needs a name")
    except SystemExit as exc:
        if exc.code == 0:        # --help, --version
            raise
        # argparse has printed the usage error; 2 is kept for Undetermined
        return EXIT_ERROR
    try:
        return args.func(args)
    except SymindError as exc:
        print(f"error [symind.{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except (ValueError, OSError) as exc:
        print(f"error [cli.{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
