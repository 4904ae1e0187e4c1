"""In-memory span tracing of symind's layers, installed from outside the package.

A ``Tracer`` wraps the public functions and methods listed in ``SPANS``.  A
module-level function is replaced in every ``symind.*`` module namespace that
binds it (``fundamental_solution`` is bound in ``symind.sturm`` and
``symind.spectral``, for example), and a method is replaced on its class, so
calls between modules are traced as well as calls from the benchmark.  Each
span records its name, start, end, parent span, operation id and whether it
raised; nothing is written until ``dump`` runs once at the end.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter

# (span name, defining module, attribute); a span name may cover several
# functions, as sturm.morse covers both Morse-index entry points
SPANS = (
    ("sturm.fs_build", "symind.sturm", "fundamental_solution"),
    ("sturm.fs_eval", "symind.sturm", "FundamentalSolution.matrix"),
    ("sturm.conjugate_points", "symind.sturm", "conjugate_points"),
    ("sturm.morse", "symind.sturm", "morse_index_dirichlet"),
    ("sturm.morse", "symind.sturm", "morse_index_general"),
    ("maslov.clm", "symind.maslov", "maslov_clm"),
    ("maslov.path_samples", "symind.maslov", "LagrangianPath.__call__"),
    ("maslov.crossing_form", "symind.maslov", "relative_crossing_matrix"),
    ("maslov.triple", "symind.maslov", "triple_index"),
    ("maslov.hormander", "symind.maslov", "hormander_index"),
    ("maslov.hormander_path", "symind.maslov", "hormander_via_maslov"),
    ("core.principal_sines", "symind.core", "principal_sines"),
    ("core.frames", "symind.core", "lagrangian_from_columns"),
    ("spectral.discretize", "symind.spectral", "discretize"),
    ("spectral.count_below", "symind.spectral", "DiscreteOperator.count_below"),
    ("spectral.eigenvalues", "symind.spectral", "DiscreteOperator.eigenvalues"),
    ("spectral.spectral_flow", "symind.spectral", "spectral_flow"),
    ("spectral.sf_formula", "symind.spectral", "verify_sf_formula"),
    ("spectral.rellich", "symind.spectral", "rellich_ghosts"),
    ("nbody.cc_solve", "symind.nbody", "central_configuration"),
    ("nbody.hessian", "symind.nbody", "hessian"),
    ("nbody.asymptotic_morse", "symind.nbody", "asymptotic_morse"),
    ("cli.main", "symind.cli", "main"),
    ("report.to_json", "symind.report", "IndexReport.to_json"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in SPANS))

# the cli layer owns report: both turn verdicts into user-facing output
LAYERS = ("sturm", "maslov", "core", "spectral", "nbody", "cli")
_LAYER_OF = {name: ("cli" if name.startswith("report.") else name.split(".")[0])
             for name in SPAN_NAMES}

# span record fields
_NAME, _PARENT, _OP, _START, _END, _RAISED, _BYTES = range(7)


def metric_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.count"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.errors"] = "count"
    units["spectral.discretize.bytes"] = "bytes_computed"
    units["maslov.clm.retry_ratio"] = "ratio"
    units["nbody.cc_solve.fail_ratio"] = "ratio"
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
        units[f"layer.{layer}.self_share"] = "ratio"
    units["unattributed_s"] = "s"
    units["trace_overhead"] = "ratio"
    return units


class Tracer:
    """Collects spans while installed; ``with tracer:`` installs and removes it."""

    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._patches: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        sizes = name == "spectral.discretize"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, self.op, perf_counter(), 0.0, True, 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                rec[_RAISED] = False
                if sizes:   # computed from the arrays' sizes, not measured traffic
                    rec[_BYTES] = result.matrix.nbytes + result.mass.nbytes
                return result
            finally:
                rec[_END] = perf_counter()
                stack.pop()

        return traced

    def __enter__(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "symind" or key.startswith("symind."))]
        for name, module_name, attr in SPANS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()
        return False

    def counts(self) -> dict:
        out = dict.fromkeys(SPAN_NAMES, 0)
        for rec in self.spans:
            out[rec[_NAME]] += 1
        return out

    def metrics(self, op_wall: list, untraced_ops_per_s: float) -> dict:
        """Per-layer metrics over every span recorded; ``op_wall[i]`` is the
        harness's wall time of operation i in this traced pass."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        top_time = [0.0] * len(op_wall)
        for rec in spans:
            dur = rec[_END] - rec[_START]
            if rec[_PARENT] >= 0:
                child_time[rec[_PARENT]] += dur
            elif rec[_OP] >= 0:
                top_time[rec[_OP]] += dur

        out = {}
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        errors = dict.fromkeys(SPAN_NAMES, 0)
        counts = self.counts()
        for i, rec in enumerate(spans):
            self_s[rec[_NAME]] += (rec[_END] - rec[_START]) - child_time[i]
            errors[rec[_NAME]] += rec[_RAISED]
        for name in SPAN_NAMES:
            out[f"{name}.count"] = counts[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.errors"] = errors[name]
        out["spectral.discretize.bytes"] = sum(rec[_BYTES] for rec in spans)

        # a maslov_clm span under another one is a perturbation re-scan
        top_clm = nested_clm = 0
        for rec in spans:
            if rec[_NAME] != "maslov.clm":
                continue
            parent = rec[_PARENT]
            while parent >= 0 and spans[parent][_NAME] != "maslov.clm":
                parent = spans[parent][_PARENT]
            if parent >= 0:
                nested_clm += 1
            else:
                top_clm += 1
        out["maslov.clm.retry_ratio"] = nested_clm / top_clm if top_clm else 0.0
        solves = counts["nbody.cc_solve"]
        out["nbody.cc_solve.fail_ratio"] = errors["nbody.cc_solve"] / solves if solves else 0.0

        wall = sum(op_wall)
        for layer in LAYERS:
            total = sum(v for name, v in self_s.items() if _LAYER_OF[name] == layer)
            out[f"layer.{layer}.self_s"] = total
            out[f"layer.{layer}.self_share"] = total / wall if wall else 0.0
        out["unattributed_s"] = sum(w - t for w, t in zip(op_wall, top_time))
        traced_ops_per_s = len(op_wall) / wall if wall else 0.0
        out["trace_overhead"] = (untraced_ops_per_s / traced_ops_per_s - 1.0
                                 if traced_ops_per_s else 0.0)
        return out

    def dump(self, path) -> None:
        """Write every span once, column-wise, as gzip-compressed JSON."""
        names = list(SPAN_NAMES)
        index = {name: i for i, name in enumerate(names)}
        columns = {"name": [index[r[_NAME]] for r in self.spans]}
        for key, field in (("parent", _PARENT), ("op", _OP), ("start", _START),
                           ("end", _END), ("raised", _RAISED), ("bytes", _BYTES)):
            columns[key] = [r[field] for r in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": names, "spans": columns}, fh)
