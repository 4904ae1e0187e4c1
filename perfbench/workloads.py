"""Seeded workloads of symind index computations.

Every workload is a sequence of cycles.  Cycle ``i`` of seed ``s`` is drawn
from ``numpy.random.default_rng([s, i])`` and always holds the same kinds of
operation in the same order (strata); only the drawn parameters change with
the seed, so whole cycles cost about the same on every seed.  Each operation
carries its oracle: a closed form, or an identity between two independent
routes of the program, checked after the timed call.

Draw distributions (U = uniform, N = normal):

morse_batch, one cycle of 11 verdicts (the median lands inside one kind):
  harmonic -u'' - w^2 u on (0,1), Dirichlet, for k in 1, 3, 6:
    w ~ U(k pi + 0.3, (k+1) pi - 0.3); oracle k, conjugate points j pi / w.
  harmonic on (0,pi), Dirichlet and Neumann: w = j + U(0.2, 0.8), j ~ {1, 2};
    oracles #{k >= 1: k < w} and #{k >= 0: k < w}.
  Bessel q ~ U(-0.2, 0.5), twice: oracle 0 over the whole truncation schedule.
  Bessel q = -1/4 - pi^2 (not drawn, see below): oracle Infinite and
    conjugate points exp(-k) to 1e-6 relative down to 1e-6.
  N-body two_body (d=3), lagrange3 (d=2), euler3 (d=2) seeds, positions
    + 1e-2 N(0,1), euler3 only along its line; central_configuration then
    asymptotic_morse(total-collision); oracles: radial 4/9, d zero
    eigenvalues, the seed's verdict.
index_identities, one cycle of 3 operations, n = 1, 2, 3:
  Lagrangian frames [Re U; Im U], U the Q factor of a complex Gaussian
  n x n matrix; in cycle i the operation with n = i mod 3 + 1 uses the
  degenerate triple (a, b, a); quadruples are drawn again until l1 and l2
  keep a principal sine of at least 1e-3 from m1 and m2.  Oracles: the
  cyclic triple-index identity against the intersection dimensions of the
  construction, Hormander antisymmetry, s(l1, l2; m1, m1) = 0, and the
  triple route equal to the Maslov path route.
discrete_spectra, one cycle of 11 operations:
  harmonic w ~ U(k pi + 0.3, (k+1) pi - 0.3), k ~ {1, 2, 3}, discretized at
    (N, bc) = (4096, D), (2048, N), (2048, D), (1024, N), (1024, D),
    (512, N), (512, D); oracles #{k >= 1: k pi < w}, #{k >= 0: k pi < w}.
  periodic frame at N = 1024 and N = 512 (the latter also by eigenvalues):
    w ~ U(2 pi k + 0.3, 2 pi (k+1) - 0.3), k ~ {0, 1}; oracle 1 + 2k.
  spectral_flow of the ramp -u'' - R s u, N = 512, R ~ U(44, 83): oracle -2.
  rellich_ghosts at q = 0, N = 1024, truncation delta ~ U(5e-4, 2e-3): oracle
    Maslov prediction 1, one eigenvalue below -100 and -1000 at the two
    smallest rotations, bottom eigenvalue strictly decreasing.
sf_formula, one cycle of 1 operation:
  cli.main(spectral-flow --problem free --ramp -R --N 512) with
  R = 13 + 21 frac(u + i phi), u ~ U(0, 1) per seed, phi the golden ratio,
  so a run's ramps spread evenly over (13, 34); oracle sf = -1 = -maslov,
  exit code 0.

Limits of the drawn ranges, each a defect of the program at this revision:
off-line perturbations of euler3 make central_configuration raise
SolverDiverged; Bessel q >= 0.6 raises RankDeficient; below -1/4, about one
nu = sqrt(-1/4 - q) in ten in [1.7, 3.5] (1.79, 2.09, 3.1899, ...) raises
ContinuityBudgetExceeded, because the crossing scan's smallest step
(1 - 1e-7) 2^-26 is coarse against the log-time rotation near t = 1e-7, so
the oscillatory case keeps the acceptance suite's coupling nu = pi;
conjugate points in the last decade before the finest truncation drift past
1e-6 relative and a zero within about 10% of it can be missed; spectral-flow
ramps far beyond |R| = 100 (R = -300) give a wrong sf at N = 512 with exit
code 0; a Hormander quadruple whose l1 or l2 lies within a principal sine of
about 2e-4 of m1 or m2 can make the Maslov path route differ from the triple
route (about one quadruple in a thousand without the 1e-3 margin).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from symind import catalog, cli, core, maslov, nbody, spectral, sturm

INFINITE = "Infinite"
POINT_RTOL = 1e-6


class Mismatch(Exception):
    """A verdict that differs from its oracle."""


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


def _rng(seed: int, index: int):
    return np.random.default_rng([seed, index])


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _match_points(found, expected, lo: float) -> None:
    """Conjugate points at or above ``lo``, each of multiplicity one, equal
    to ``expected`` to POINT_RTOL relative."""
    got = sorted(t for t, _ in found if t >= lo)
    _expect(all(m == 1 for t, m in found if t >= lo), "multiplicity above 1")
    want = sorted(expected)
    _expect(len(got) == len(want), f"{len(got)} conjugate points, expected {len(want)}")
    for t, e in zip(got, want):
        _expect(abs(t - e) <= POINT_RTOL * e, f"conjugate point {t!r}, expected {e!r}")


# -- morse_batch -----------------------------------------------------------------


def _harmonic_dirichlet(omega: float) -> Op:
    count = sum(1 for k in range(1, 64) if k * math.pi < omega)
    points = [k * math.pi / omega for k in range(1, count + 1)]
    problem = catalog.make_problem("harmonic", omega=omega)

    def check(rep):
        _expect(rep.verdict == count, f"harmonic w={omega!r}: {rep.verdict}, expected {count}")
        _match_points(rep.conjugate_points, points, 0.0)

    return Op("harmonic", lambda: sturm.morse_index_dirichlet(problem), check)


def _harmonic_on_pi(omega: float, bc: str) -> Op:
    first = 1 if bc == "dirichlet" else 0
    count = sum(1 for k in range(first, 64) if k < omega)
    problem = catalog.make_problem("harmonic", omega=omega, interval=(0.0, math.pi))
    condition = sturm.BoundaryCondition(bc)

    def check(rep):
        _expect(rep.verdict == count, f"{bc} w={omega!r}: {rep.verdict}, expected {count}")

    return Op(bc, lambda: sturm.morse_index_general(problem, condition), check)


def _bessel_finite(q: float) -> Op:
    problem = catalog.make_problem("bessel", q=q)

    def check(rep):
        _expect(rep.verdict == 0, f"bessel q={q!r}: {rep.verdict}, expected 0")
        counts = [c for _, c in rep.diagnostics["delta_trace"]]
        _expect(not any(counts), f"bessel q={q!r}: truncation counts {counts}")

    return Op("bessel_finite", lambda: sturm.morse_index_dirichlet(problem), check)


def _bessel_infinite(nu: float) -> Op:
    q = -0.25 - nu * nu
    problem = catalog.make_problem("bessel", q=q)
    # zeros t_k = exp(-k pi / nu) of the solution vanishing at t = 1, checked
    # down to 1e-6; the window edge sits halfway (in log t) between two zeros
    last = int(math.floor(6.0 * math.log(10.0) * nu / math.pi))
    zeros = [math.exp(-k * math.pi / nu) for k in range(1, last + 1)]
    lo = math.exp(-(last + 0.5) * math.pi / nu)

    def check(rep):
        _expect(rep.verdict == INFINITE, f"bessel q={q!r}: {rep.verdict}, expected Infinite")
        _match_points(rep.conjugate_points, zeros, lo)

    return Op("bessel_infinite", lambda: sturm.morse_index_dirichlet(problem), check)


# Bbar spectra of the unperturbed seeds in closed form: two_body
# {-2/9, -2/9, 0, 0, 0, 4/9}, lagrange3 {-2/9, 0, 0, 1/9, 1/9, 4/9}, euler3
# {-8/15, -2/9, 0, 0, 4/9, 16/15}.  A direction above -1/4 is a Bessel-type
# problem of Friedrichs index 0; one below makes the index infinite.
NBODY_SEEDS = (("two_body", 3, 0), ("lagrange3", 2, 0), ("euler3", 2, INFINITE))
NBODY_EPS = 1e-2


def _nbody(name: str, seed_cc, d: int, verdict, rng) -> Op:
    system = seed_cc.system
    step = NBODY_EPS * rng.standard_normal(seed_cc.config.positions.shape)
    if name == "euler3":
        step[:, 1:] = 0.0
    start = nbody.Configuration(system, seed_cc.config.positions + step)

    def run():
        cc = nbody.central_configuration(system, start)
        return nbody.asymptotic_morse(cc, "total-collision")

    def check(rep):
        w = np.asarray(rep.diagnostics["bbar_spectrum"])
        _expect(np.min(np.abs(w - 4.0 / 9.0)) < 1e-8, f"{name}: no radial 4/9 in {w}")
        _expect(int(np.sum(np.abs(w) < 1e-8)) >= d, f"{name}: fewer than {d} zero eigenvalues")
        _expect(rep.verdict == verdict, f"{name}: {rep.verdict}, expected {verdict}")

    return Op(f"nbody_{name}", run, check)


class MorseBatch:
    trace_cycles = 1

    def __init__(self):
        self._seeds = [(name, getattr(nbody, name)(), d, v) for name, d, v in NBODY_SEEDS]

    def cycle(self, seed: int, index: int) -> list:
        rng = _rng(seed, index)
        ops = [_harmonic_dirichlet(rng.uniform(k * math.pi + 0.3, (k + 1) * math.pi - 0.3))
               for k in (1, 3, 6)]
        omega = int(rng.integers(1, 3)) + rng.uniform(0.2, 0.8)
        ops += [_harmonic_on_pi(omega, "dirichlet"), _harmonic_on_pi(omega, "neumann")]
        ops += [_bessel_finite(rng.uniform(-0.2, 0.5)) for _ in range(2)]
        ops.append(_bessel_infinite(math.pi))
        ops += [_nbody(name, cc, d, v, rng) for name, cc, d, v in self._seeds]
        return ops

    def warm_up(self) -> list:
        return [_harmonic_dirichlet(4.0)]


# -- index_identities --------------------------------------------------------------

MIN_SINE = 1e-3


def _random_lagrangian(rng, n: int) -> core.LagrangianFrame:
    # U unitary makes [Re U; Im U] orthonormal and isotropic for the standard form
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(z)
    return core.LagrangianFrame(core.SymplecticSpace.standard(n), np.vstack([u.real, u.imag]))


def _min_sine(a, b) -> float:
    # the orthogonal complement of a Lagrangian [X; Y] is J [X; Y] = [Y; -X]
    xa, ya = np.split(a.frame, 2)
    xb, yb = np.split(b.frame, 2)
    return float(np.linalg.svd(ya.T @ xb - xa.T @ yb, compute_uv=False).min())


def _identities(rng, n: int, degenerate: bool) -> Op:
    a, b = _random_lagrangian(rng, n), _random_lagrangian(rng, n)
    c = a if degenerate else _random_lagrangian(rng, n)
    while True:
        l1, l2, m1, m2 = (_random_lagrangian(rng, n) for _ in range(4))
        if min(_min_sine(l, m) for l in (l1, l2) for m in (m1, m2)) >= MIN_SINE:
            break
    # dim(a cap c) - dim(b cap a) by construction: independent draws meet
    # only in 0 (with probability one), however small their smallest angle
    cyclic = n if degenerate else 0

    def run():
        triple = maslov.triple_index
        return (triple(a, b, c) - triple(b, c, a),
                maslov.hormander_index(l1, l2, m1, m2),
                maslov.hormander_index(l1, l2, m2, m1),
                maslov.hormander_index(l1, l2, m1, m1),
                maslov.hormander_via_maslov(l1, l2, m1, m2))

    def check(out):
        lhs, s, s_swapped, s_same, s_path = out
        _expect(lhs == cyclic, f"n={n}: cyclic identity {lhs} != {cyclic}")
        _expect(s == -s_swapped, f"n={n}: antisymmetry {s} vs {s_swapped}")
        _expect(s_same == 0, f"n={n}: s(l1, l2; m, m) = {s_same}")
        _expect(s == s_path, f"n={n}: triple route {s} != path route {s_path}")

    return Op(f"identities_n{n}", run, check)


class IndexIdentities:
    trace_cycles = 8

    def cycle(self, seed: int, index: int) -> list:
        rng = _rng(seed, index)
        return [_identities(rng, n, n - 1 == index % 3) for n in (1, 2, 3)]

    def warm_up(self) -> list:
        return [_identities(np.random.default_rng(0), 1, False)]


# -- discrete_spectra --------------------------------------------------------------

PERIODIC_FRAME = core.LagrangianFrame(
    core.SymplecticSpace.minus_plus(1, 1),
    np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]) / math.sqrt(2.0))


def _discrete(omega: float, bc: str, N: int) -> Op:
    first = 1 if bc == "dirichlet" else 0
    count = sum(1 for k in range(first, 64) if k * math.pi < omega)
    problem = catalog.make_problem("harmonic", omega=omega)

    def check(got):
        _expect(got == count, f"{bc} N={N} w={omega!r}: {got}, expected {count}")

    return Op(f"{bc}_{N}", lambda: spectral.discretize(problem, bc, N).morse_count(), check)


def _periodic(omega: float, N: int, with_eigenvalues: bool) -> Op:
    # eigenvalues (2 pi k)^2 - w^2 for k in Z: the constant mode, then pairs
    count = 1 + 2 * sum(1 for k in range(1, 64) if 2.0 * math.pi * k < omega)
    problem = catalog.make_problem("harmonic", omega=omega)

    def run():
        op = spectral.discretize(problem, PERIODIC_FRAME, N)
        below = op.morse_count()
        if not with_eigenvalues:
            return below, below
        return below, int(np.sum(op.eigenvalues(k=count + 2) < 0.0))

    def check(out):
        _expect(out == (count, count), f"periodic N={N} w={omega!r}: {out}, expected {count}")

    return Op(f"periodic_{N}", run, check)


def _ramp_flow(R: float) -> Op:
    expected = -sum(1 for k in range(1, 64) if (k * math.pi) ** 2 < R)
    problem = sturm.SLProblem(1, (0.0, 1.0), 1.0, 0.0, 0.0,
                              c=lambda s, t: np.array([[-R * s]]))

    def run():
        family = spectral.discretized_family(problem, "dirichlet", 512)
        return spectral.spectral_flow(family, (0.0, 1.0), window_gap=40.0)

    def check(sf):
        _expect(sf == expected, f"ramp R={R!r}: sf {sf}, expected {expected}")

    return Op("ramp_flow", run, check)


def _rellich(delta: float) -> Op:
    problem = catalog.make_problem("bessel", q=0.0, interval=(delta, 1.0))
    left = core.SymplecticSpace.minus_plus(1, 0)
    friedrichs = core.line_frame(left, [1.0, delta])   # data of the principal solution t

    def bc_path(u):
        return core.rotation_matrix(left, -u) @ friedrichs.frame

    def run():
        return spectral.rellich_ghosts(problem, bc_path, friedrichs, M_values=(1e2, 1e3),
                                       N=1024, u_values=(0.4, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005))

    def check(out):
        _expect(out["maslov_prediction"] == 1, f"rellich delta={delta!r}: prediction "
                                               f"{out['maslov_prediction']}")
        for M, counts in out["counts_below_minus_M"].items():
            _expect(counts[-2:] == [1, 1], f"rellich delta={delta!r}: below -{M}: {counts}")
        lam = out["lambda_min_trace"]
        _expect(all(b < a for a, b in zip(lam, lam[1:])), f"rellich delta={delta!r}: no dive")

    return Op("rellich", run, check)


class DiscreteSpectra:
    trace_cycles = 1
    SIZES = ((4096, "dirichlet"), (2048, "neumann"), (2048, "dirichlet"),
             (1024, "neumann"), (1024, "dirichlet"), (512, "neumann"), (512, "dirichlet"))

    def cycle(self, seed: int, index: int) -> list:
        rng = _rng(seed, index)
        ops = []
        for N, bc in self.SIZES:
            k = int(rng.integers(1, 4))
            ops.append(_discrete(rng.uniform(k * math.pi + 0.3, (k + 1) * math.pi - 0.3), bc, N))
        for N in (1024, 512):
            k = int(rng.integers(0, 2))
            omega = rng.uniform(2 * math.pi * k + 0.3, 2 * math.pi * (k + 1) - 0.3)
            ops.append(_periodic(omega, N, N == 512))
        ops.append(_ramp_flow(rng.uniform(44.0, 83.0)))
        ops.append(_rellich(rng.uniform(5e-4, 2e-3)))
        return ops

    def warm_up(self) -> list:
        return [_periodic(3.0, 64, True)]


# -- sf_formula --------------------------------------------------------------------

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _cli(argv: list) -> tuple:
    """Exit code and standard output of one in-process CLI command."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    return code, out.getvalue()


def _sf_cli(R: float) -> Op:
    count = sum(1 for k in range(1, 64) if (k * math.pi) ** 2 < R)
    argv = ["spectral-flow", "--problem", "free", "--ramp", repr(-R), "--N", "512"]

    def check(result):
        code, text = result
        _expect(code == 0, f"ramp {-R!r}: exit code {code}")
        report = json.loads(text)
        _expect(report["verdict"] == -count, f"ramp {-R!r}: sf {report['verdict']}, "
                                             f"expected {-count}")
        _expect(report["diagnostics"]["maslov"] == count,
                f"ramp {-R!r}: maslov {report['diagnostics']['maslov']}, expected {count}")

    return Op("sf_cli", lambda: _cli(argv), check)


class SfFormula:
    trace_cycles = 1

    def cycle(self, seed: int, index: int) -> list:
        u = np.random.default_rng(seed).uniform()
        return [_sf_cli(13.0 + 21.0 * ((u + index * GOLDEN) % 1.0))]

    def warm_up(self) -> list:
        # a short command through the same CLI, report and integrator code
        argv = ["conjugate", "--problem", "harmonic", "--omega", "4"]

        def check(result):
            code, text = result
            _expect(code == 0 and json.loads(text)["verdict"] == 1, f"warm-up: {result}")

        return [Op("warm_up", lambda: _cli(argv), check)]


WORKLOADS = {
    "morse_batch": MorseBatch,
    "index_identities": IndexIdentities,
    "discrete_spectra": DiscreteSpectra,
    "sf_formula": SfFormula,
}
