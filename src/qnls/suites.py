"""The identity suites: each checks one group of the paper's identities
and yields one record per identity and particle number.

A record is ``{"identity_id", "n", "gamma", "length", "max_residual",
"pass"}``.  ``stream`` runs several suites in turn and stamps each record
with its suite; a suite that raises keeps the records it already yielded
and ends with one failing ``suite-error`` record.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
import sys
import traceback
from collections import Counter
from typing import Callable, Iterable, Iterator, NamedTuple

from . import alcovefn, bae, exppoly, momrep, oracle, wavefn, ybops
from .alcovefn import AlcoveFunction, worst_residual
from .momrep import OrbitFunction
from .symgroup import Permutation, identity, transposition
from .wavefn import RapiditySet

__all__ = ["SUITES", "PARTICLES", "run_suite", "stream", "IDENTITY_TOL", "OPERATOR_TOL", "QUAD_TOL"]

IDENTITY_TOL = 1e-9
OPERATOR_TOL = 1e-8
QUAD_TOL = 1e-6


class Particles(NamedTuple):
    """A suite's row of the particle table: the smallest and largest n it
    checks, and why it goes no higher.  The suite runs n from smallest up
    to max(smallest, min(largest, max_n)); a fixed-input suite checks its
    own inputs, of smallest to largest particles, at every max_n."""

    smallest: int
    largest: int
    reason: str
    fixed: bool = False

    def ns(self, max_n: int) -> range:
        """The particle numbers the suite checks at max_n."""
        top = self.largest if self.fixed else max(self.smallest, min(self.largest, max_n))
        return range(self.smallest, top + 1)


# the particle table, one row per suite in run order; a cost is one run on 2
# shared vCPUs (Python 3.11, numpy 2.4), where each row's largest n takes 0.3 s or less
PARTICLES = {
    "dAHA-axioms": Particles(2, 4, "cost: n=5 takes about 3 s"),
    "appendix-A": Particles(3, 4, "every identity needs 3 particles; cost: n=5 takes about 10 s and 170 MB"),
    "appendix-B": Particles(1, 3, "fixed inputs; its quadrature stops at oracle.QUAD_NEST_CAP", fixed=True),
    "wavefunction-routes": Particles(2, 4, "cost: n=5 takes about 1 s"),
    "QNLS-eigen": Particles(2, 4, "cost: n=5 takes about 0.7 s"),
    "ABA": Particles(2, 3, "on-shell quantum numbers are set for n = 2, 3 only"),
    "nonsymmetric-YBA": Particles(2, 2, "cost: n=3 takes about 1.5 s; n=4 exceeds ybops.PARTICLE_CAP"),
    "Q-operator": Particles(1, 2, "the TQ and Q records check one fixed 2-particle Bethe state"),
    "oracle-crosscheck": Particles(2, 2, "fixed inputs; 3 particles take about 10 s of quadrature", fixed=True),
}

# the suites by name, registered by _suite in the order they are defined
SUITES: dict[str, Callable[[int, float, float, int], Iterable[dict]]] = {}


# ---------------------------------------------------------------------------
# deterministic test data and residuals
# ---------------------------------------------------------------------------


def _seeded_lambda(n: int, seed: int, tag: int = 0) -> tuple[complex, ...]:
    """Distinct real rapidities with a safe pairwise gap."""
    rng = random.Random((seed << 8) ^ (n * 7919 + tag))
    while True:
        lam = tuple(rng.uniform(-1.6, 1.6) for _ in range(n))
        gaps = [abs(lam[a] - lam[b]) for a in range(n) for b in range(a + 1, n)]
        if not gaps or min(gaps) > 0.2:
            return tuple(complex(v) for v in lam)


def _gap(pairs, xs, scale: float | None = None) -> float:
    """Worst |F(x) - G(x)| over the (F, G) pairs and the points xs, divided
    by scale; by default the largest |value| seen, or 1 if that is smaller.
    NaN if any compared value is NaN."""
    worst, seen = 0.0, 1.0
    for F, G in pairs:
        for x in xs:
            v1, v2 = F.eval(x), G.eval(x)
            gap = abs(v1 - v2)
            if math.isnan(gap):
                return math.nan
            worst = max(worst, gap)
            seen = max(seen, abs(v1), abs(v2))
    return worst / (seen if scale is None else scale)


def _relative(a: complex, b: complex) -> float:
    """|a - b| relative to |a|, or to 1 if that is smaller."""
    return abs(a - b) / max(abs(a), 1.0)


def _op(family: str, nu: complex, F: AlcoveFunction, gamma: float, length: float):
    """Any generator, named as oracle.quad_apply names them."""
    if family in ("A", "B", "C", "D"):
        return ybops.apply_symmetric(family, nu, F, gamma, length)
    return ybops.apply_nonsymmetric(family, nu, F, gamma, length)


def _applications(
    gamma: float, length: float, inputs: dict[str, AlcoveFunction], paths: list[tuple]
) -> Callable[[tuple], AlcoveFunction]:
    """Evaluate application paths with gamma and length fixed, each once.

    A path is an input's name, then the (family, nu) steps that act on it
    in turn.  paths lists every path the caller will ask for, in order; a
    result is kept from its computation to its last use, counted from that
    list, and then dropped."""
    uses: Counter = Counter()

    def count(path):
        # a path's first use computes it, which uses its prefix once
        uses[path] += 1
        if uses[path] == 1 and len(path) > 2:
            count(path[:-1])

    for path in paths:
        count(path)
    memo: dict[tuple, AlcoveFunction] = {}

    def apply(path: tuple) -> AlcoveFunction:
        if len(path) == 1:
            return inputs[path[0]]
        if uses[path] < 1:
            raise ValueError(f"application {path} is not in the path list")
        value = memo.pop(path, None)
        if value is None:
            family, nu = path[-1]
            value = _op(family, nu, apply(path[:-1]), gamma, length)
        uses[path] -= 1
        if uses[path]:
            memo[path] = value
        return value

    return apply


def _suite(name: str, tol: float):
    """Register a generator of checks as the suite name in SUITES.

    The generator takes the n values of the suite's PARTICLES row where
    the suite takes max_n; a fixed-input suite ignores them.  It yields
    (identity id, n, residual) or (identity id, n, residual, tolerance).
    A check passes when its residual is below its tolerance, by default
    tol; a callable tolerance is the test itself.
    """
    particles = PARTICLES[name]

    def wrap(checks):
        @functools.wraps(checks)
        def suite(max_n: int, gamma: float, length: float, seed: int) -> Iterator[dict]:
            for identity_id, n, residual, *own in checks(particles.ns(max_n), gamma, length, seed):
                limit = own[0] if own else tol
                yield {
                    "identity_id": identity_id,
                    "n": n,
                    "gamma": gamma,
                    "length": length,
                    "max_residual": residual,
                    "pass": bool(limit(residual) if callable(limit) else residual < limit),
                }

        SUITES[name] = suite
        return suite

    return wrap


# ---------------------------------------------------------------------------
# momentum-representation identities (operator words on orbit tables)
# ---------------------------------------------------------------------------


def _dd(j: int, k: int):
    return lambda o: momrep.divided_difference(o, j, k)


def _msym(j: int):
    return lambda o: momrep.mult_symbol(o, j)


def _one_plus(op, weight: complex):
    return lambda o: momrep.orbit_add(o, momrep.orbit_scale(weight, op(o)))


def _mult(weight):
    return lambda o: momrep.mult_scalar(o, weight)


def _orbit_identities(n: int, gamma: float) -> dict[str, list]:
    """The momentum-representation identities at n particles, by suite.

    A row is (name, smallest n, pairs); the row's residual is its worst
    (lhs, rhs) pair.  A side is a linear combination, a list of terms
    (coefficient, operator, ...): the operator word (rightmost acts
    first) applied to the plane-wave orbit, times the coefficient.
    """
    j, k, l = 1, 2, 3

    def tg(a):
        return lambda o: momrep.deformed_transposition_momentum(o, a, gamma)

    def t(a, b):
        """The transposition action on orbit tables."""
        return lambda o: momrep.act_table(transposition(a, b, n), o)

    def sym_kl(o):
        return momrep.orbit_add(o, momrep.act_table(transposition(k, l, n), o))

    psub = functools.partial(momrep.symmetrizer, leading=n - 1)
    mu = 0.23 + 0.11j
    return {
        "dAHA-axioms": [
            ("deformed-transposition-involution", 2, [
                ([(1, tg(a), tg(a))], [(1,)]) for a in range(1, n)
            ]),
            ("deformed-braid-relation", 3, [
                ([(1, tg(a), tg(a + 1), tg(a))], [(1, tg(a + 1), tg(a), tg(a + 1))])
                for a in range(1, n - 1)
            ]),
            ("deformed-distant-commutation", 4, [
                ([(1, tg(1), tg(3))], [(1, tg(3), tg(1))])
            ]),
            # s_{j,gamma} m_j - m_{j+1} s_{j,gamma} = -i gamma
            ("symbol-exchange-relation", 2, [
                ([(1, tg(a), _msym(a)), (-1.0, _msym(a + 1), tg(a))], [(-1j * gamma,)])
                for a in range(1, n)
            ]),
        ],
        "appendix-A": [
            # divided difference against symbol multiplication
            ("divided-difference-symbol-exchange", 3, [
                (
                    [(1, _dd(j, k), _msym(m)), (-1.0, _msym(transposition(j, k, n)(m)), _dd(j, k))],
                    [((1.0 if m == j else 0.0) - (1.0 if m == k else 0.0),)],
                )
                for m in range(1, n + 1)
            ]),
            ("disjoint-support-commutation", 4, [
                ([(1, t(1, 2), _dd(3, 4))], [(1, _dd(3, 4), t(1, 2))]),
                ([(1, _dd(1, 2), _dd(3, 4))], [(1, _dd(3, 4), _dd(1, 2))]),
            ]),
            ("conjugated-divided-difference-exchange", 3, [
                ([(1, t(j, k), _dd(k, l), t(j, k))], [(1, t(k, l), _dd(j, k), t(k, l))])
            ]),
            ("double-transposition-intertwining", 3, [
                ([(1, t(j, k), t(k, l), _dd(j, k))], [(1, _dd(k, l), t(j, k), t(k, l))])
            ]),
            ("divided-difference-commutator-factorization", 3, [(
                [(1, _dd(j, k), _dd(k, l)), (-1.0, _dd(k, l), _dd(j, k))],
                [(1, t(k, l), _dd(j, k), _dd(k, l), t(j, k))],
            )]),
            ("mixed-braid-expansion", 3, [(
                [(1, _dd(k, l), t(j, k), _dd(k, l))],
                [(1, _dd(j, k), _dd(k, l), t(j, k)), (1, t(j, k), _dd(k, l), _dd(j, k))],
            )]),
            ("divided-difference-braid", 3, [
                ([(1, _dd(j, k), _dd(k, l), _dd(j, k))], [(1, _dd(k, l), _dd(j, k), _dd(k, l))])
            ]),
            ("shared-index-commutator-symmetrization", 3, [(
                [(1, _dd(j, k), _dd(j, l), sym_kl), (-1.0, _dd(j, l), _dd(j, k), sym_kl)],
                [(0.0,)],
            )]),
            # product of (1 + i gamma Delta_{j n}) factors as a deformed word
            ("deformed-word-product-expansion", 3, [(
                [(1, *[_one_plus(_dd(a, n), 1j * gamma) for a in range(n - 1, 0, -1)])],
                [(1, *[tg(a) for a in range(n - 1, 0, -1)], *[t(a, a + 1) for a in range(1, n)])],
            )]),
            # gamma-deformed symmetrizer = plain symmetrizer after the
            # gamma-dependent weight
            ("gamma-symmetrizer-factorization", 3, [(
                [(1, lambda o: momrep.gamma_symmetrizer(o, gamma))],
                [(1, momrep.symmetrizer, _mult(lambda p: momrep.coeff_G(p, gamma)))],
            )]),
            # telescoping sums behind the diagonal actions
            ("boundary-weight-telescoping", 3, [(
                [
                    (1, *[tg(a) for a in range(m, n)],
                     _mult(lambda p: 1j * gamma / (p[n - 1] - mu)), momrep.symmetrizer)
                    for m in range(1, n + 1)
                ],
                [(1, _mult(lambda p: 1.0 - momrep.tau_pm(mu, p, gamma, 1)), momrep.symmetrizer)],
            )]),
            ("deformed-vs-weighted-coset-sums", 3, [(
                [
                    (1, *[t(a, a + 1) for a in range(m, n)],
                     _mult(lambda p: momrep.tau_pm(p[n - 1], p[:n - 1], gamma, 1)), psub)
                    for m in range(1, n + 1)
                ],
                [(1, *[tg(a) for a in range(m, n)], psub) for m in range(1, n + 1)],
            )]),
        ],
    }


def _side(terms, base: OrbitFunction) -> OrbitFunction:
    """A linear combination of operator words applied to base, summed in
    one merge per entry; a lone word is returned as it is."""
    tables = []
    for coefficient, *word in terms:
        o = base
        for op in reversed(word):
            o = op(o)
        tables.append(o if coefficient == 1 else momrep.orbit_scale(coefficient, o))
    return tables[0] if len(tables) == 1 else momrep.orbit_add(*tables)


def _orbit_checks(suite: str, n: int, gamma: float, base: OrbitFunction, xs):
    """The suite's momentum-representation checks at n particles, on the
    plane-wave orbit base."""
    for name, smallest, pairs in _orbit_identities(n, gamma)[suite]:
        if n >= smallest:
            sides = [(_side(lhs, base), _side(rhs, base)) for lhs, rhs in pairs]
            yield name, n, worst_residual(
                _gap([(o1.entries[s], o2.entries[s]) for s in o1.entries], xs)
                for o1, o2 in sides
            )


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


@_suite("dAHA-axioms", IDENTITY_TOL)
def suite_daha_axioms(ns: range, gamma: float, length: float, seed: int):
    """Defining relations of the deformed transpositions, their divided
    difference building blocks, the Dunkl-type operators, and the bridges
    between the momentum and position actions on plane waves."""
    for n in ns:
        lam = _seeded_lambda(n, seed)
        base = momrep.orbit_planewave(lam)
        xs = alcovefn.sample_interior(n, 4, length, seed)
        yield from _orbit_checks("dAHA-axioms", n, gamma, base, xs)

        # bridges between the position action and the momentum tables,
        # tested on the plane-wave orbit: absolute residuals
        e = identity(n)
        wave = base.entries[e]
        for name, pairs in (
            ("transposition-on-plane-waves", [
                (alcovefn.act_analytic(transposition(j, j + 1, n), wave),
                 momrep.act_table(transposition(j, j + 1, n), base).entries[e])
                for j in range(1, n)
            ]),
            ("reflection-integral-on-plane-waves", [
                (alcovefn.reflection_integral(wave, j, j + 1),
                 momrep.orbit_scale(-1j, momrep.divided_difference(base, j, j + 1)).entries[e])
                for j in range(1, n)
            ]),
            ("deformed-transposition-on-plane-waves", [
                (alcovefn.deformed_transposition_position(wave, j, gamma),
                 momrep.deformed_transposition_momentum(base, j, gamma).entries[e])
                for j in range(1, n)
            ]),
        ):
            yield name, n, _gap(pairs, xs, 1.0)

        # Dunkl-type operators on the pre-wavefunction
        r = RapiditySet(lam, gamma, length)
        psi = wavefn.prewavefunction(r)

        def dunkl(F, j):
            return alcovefn.dunkl(F, j, gamma)

        yield "dunkl-commutativity", n, worst_residual(
            _gap([(dunkl(dunkl(psi, k), j), dunkl(dunkl(psi, j), k))], xs)
            for j in range(1, n + 1)
            for k in range(j + 1, n + 1)
        )

        def exchange_gap(j, k):
            sj = transposition(j, j + 1, n)
            lhs = alcovefn.act_position(sj, dunkl(psi, k))
            rhs = dunkl(alcovefn.act_position(sj, psi), sj(k))
            shift = gamma * ((1 if k == j else 0) - (1 if k == j + 1 else 0))
            return _gap([(lhs, alcovefn.afn_add(rhs, alcovefn.afn_scale(shift, psi)))], xs)

        yield "dunkl-transposition-exchange", n, worst_residual(
            exchange_gap(j, k) for j in range(1, n) for k in range(1, n + 1)
        )
        yield "dunkl-eigen-prewavefunction", n, worst_residual(
            _gap([(dunkl(psi, j), alcovefn.afn_scale(1j * lam[j - 1], psi))], xs)
            for j in range(1, n + 1)
        )


@_suite("appendix-A", IDENTITY_TOL)
def suite_appendix_a(ns: range, gamma: float, length: float, seed: int):
    """Identities of the divided-difference calculus in the momentum
    representation, tested on plane-wave orbit tables."""
    for n in ns:
        base = momrep.orbit_planewave(_seeded_lambda(n, seed, tag=1))
        xs = alcovefn.sample_interior(n, 4, length, seed)
        yield from _orbit_checks("appendix-A", n, gamma, base, xs)


@_suite("appendix-B", IDENTITY_TOL)
def suite_appendix_b(ns: range, gamma: float, length: float, seed: int):
    """Adjointness, permutation equivariance, and the symmetric-restriction
    coincidence of the elementary integral operators."""
    lam = 0.41 + 0.17j

    # adjointness via quadrature inner products, 1 -> 2 and 1 -> 1 particles
    f = alcovefn.from_analytic(exppoly.plane_wave((0.7,)))
    f2 = alcovefn.from_analytic(exppoly.plane_wave((-0.55,)))
    g = wavefn.prewavefunction(RapiditySet(_seeded_lambda(2, seed, tag=2), gamma, length))

    def adjoint_gap(up_kind, down_kind, i, h):
        up = ybops.elementary_nonsymmetric_op(up_kind, lam, i, f, length)
        down = ybops.elementary_nonsymmetric_op(down_kind, lam.conjugate(), i, h, length)
        return _relative(oracle.inner_product(up, h, length), oracle.inner_product(f, down, length))

    yield "elementary-adjointness", 1, worst_residual(
        adjoint_gap(up_kind, down_kind, i, h)
        for up_kind, down_kind, h in (
            ("e_hat-", "e_check+", g), ("e_hat+", "e_check-", g), ("e_bar+", "e_bar-", f2),
        )
        for i in ((), (1,))
    ), QUAD_TOL

    # permutation equivariance, 2 -> 3 and 3 -> 2 particles: each case is
    # (kind, input, index tuples, permutation after, permutation before,
    # points); the index tuple is ordered data, so w acts entrywise
    n = 2
    fin = wavefn.prewavefunction(RapiditySet(_seeded_lambda(n, seed, tag=3), gamma, length))
    g3 = wavefn.prewavefunction(RapiditySet(_seeded_lambda(3, seed, tag=4), gamma, length))
    xs3 = alcovefn.sample_interior(n + 1, 4, length, seed)
    xs2 = alcovefn.sample_interior(n, 4, length, seed)
    w = transposition(1, 2, n)
    w_out = Permutation((2, 1, 3))
    w_plus = Permutation((1, 3, 2))
    up, down = ((), (1,), (2,), (1, 2), (2, 1)), ((), (1,), (2,))

    def elem(kind, i, F):
        return ybops.elementary_nonsymmetric_op(kind, lam, i, F, length)

    yield "elementary-permutation-equivariance", n, worst_residual(
        _gap(
            [(
                alcovefn.act_position(after, elem(kind, i, F)),
                elem(kind, tuple(w(p) for p in i), alcovefn.act_position(before, F)),
            )],
            pts, 1.0,
        )
        for kind, F, indices, after, before, pts in (
            ("e_hat-", fin, up, w_out, w, xs3),
            ("e_hat+", fin, up, w_plus, w, xs3),
            ("e_bar+", fin, up, w, w, xs2),
            ("e_bar-", fin, up, w, w, xs2),
            ("e_check+", g3, down, w, w_out, xs2),
            ("e_check-", g3, down, w, w_plus, xs2),
        )
        for i in indices
    )

    # on symmetric input the two lowering operators coincide
    Fsym = wavefn.bethe_wavefunction(RapiditySet(_seeded_lambda(3, seed, tag=5), gamma, length))
    yield "lowering-coincidence-on-symmetric", 3, _gap(
        [
            (elem("e_check+", i, Fsym), elem("e_check-", i, Fsym))
            for i in ((), (1,), (2,), (1, 2))
        ],
        xs2, 1.0,
    )


@_suite("wavefunction-routes", wavefn.ROUTE_TOL)
def suite_wavefunction_routes(ns: range, gamma: float, length: float, seed: int):
    """Pointwise agreement of the independent constructions of the
    pre-wavefunction and the Bethe wavefunction, plus the degenerate
    coincident-pair limit against its closed form."""
    for n in ns:
        r = RapiditySet(_seeded_lambda(n, seed, tag=6), gamma, length)
        pts = alcovefn.sample_interior(n, 50, length, seed)
        pre_spread, bethe_spread = wavefn.assert_routes_agree(r, pts)
        yield "prewavefunction-route-agreement", n, pre_spread
        yield "bethe-route-agreement", n, bethe_spread
    F = wavefn.prewavefunction(RapiditySet((0.5, 0.5), gamma, length))
    ref = wavefn.prewavefunction_coincident_pair(0.5, gamma)
    worst = _gap([(F, ref)], alcovefn.sample_interior(2, 20, length, seed), 1.0)
    yield "degenerate-pair-closed-form", 2, worst


@_suite("QNLS-eigen", IDENTITY_TOL)
def suite_qnls_eigen(ns: range, gamma: float, length: float, seed: int):
    """Eigenvalue problem for the pre-wavefunction and the Bethe
    wavefunction: Laplacian at coefficient level, derivative jumps on the
    walls, and the first-order eigen-system."""
    for n in ns:
        r = RapiditySet(_seeded_lambda(n, seed, tag=7), gamma, length)
        for name, F, with_dunkl in (
            ("qnls-eigen-prewavefunction", wavefn.prewavefunction(r), True),
            ("qnls-eigen-bethe", wavefn.bethe_wavefunction(r), False),
        ):
            yield name, n, wavefn.verify_qnls(F, r, check_dunkl=with_dunkl)["max_residual"]


@_suite("ABA", OPERATOR_TOL)
def suite_aba(ns: range, gamma: float, length: float, seed: int):
    """Diagonal and off-diagonal actions of the symmetric generators on
    Bethe wavefunctions, the on-shell transfer eigenvalue, and the
    periodicity dichotomy."""
    if gamma <= 0:
        raise ValueError("this suite solves Bethe equations and needs gamma > 0")
    # off-shell diagonal and lowering actions
    for n in ns:
        lam = _seeded_lambda(n, seed, tag=8)
        r = RapiditySet(lam, gamma, length)
        Psi = wavefn.bethe_wavefunction(r)
        mu = 0.29
        pts = alcovefn.sample_interior(n, 10, length, seed)

        def minor(*drop):
            return tuple(v for t, v in enumerate(lam) if t not in drop)

        def plus(F, coeff, rapidities):
            """F plus coeff times the Bethe wavefunction of the rapidities."""
            Phi = wavefn.bethe_wavefunction(RapiditySet(rapidities, gamma, length))
            return alcovefn.afn_add(F, alcovefn.afn_scale(coeff, Phi))

        # raising-free expansion of the A and D actions
        for family, sign in (("A", 1), ("D", -1)):
            lhs = ybops.apply_symmetric(family, mu, Psi, gamma, length)
            phase = cmath.exp(-1j * sign * mu * length / 2)
            rhs = alcovefn.afn_scale(momrep.tau_pm(mu, lam, gamma, sign) * phase, Psi)
            for j in range(n):
                rest = minor(j)
                coeff = (
                    momrep.tau_pm(lam[j], rest, gamma, sign)
                    * (sign * 1j * gamma / (lam[j] - mu))
                    * cmath.exp(-1j * sign * lam[j] * length / 2)
                )
                rhs = plus(rhs, coeff, rest + (mu,))
            name = "diagonal-action-raising" if family == "A" else "diagonal-action-lowering"
            yield name, n, _gap([(lhs, rhs)], pts)

        # expansion of gamma C
        lhs = alcovefn.afn_scale(gamma, ybops.apply_symmetric("C", mu, Psi, gamma, length))
        rhs = alcovefn.zero_function(n - 1)
        for j in range(n):
            rest = minor(j)
            coeff = -(1j * gamma / (lam[j] - mu)) * (
                momrep.tau_pm(lam[j], rest, gamma, -1)
                * momrep.tau_pm(mu, rest, gamma, 1)
                * cmath.exp(1j * (lam[j] - mu) * length / 2)
                - momrep.tau_pm(mu, rest, gamma, -1)
                * momrep.tau_pm(lam[j], rest, gamma, 1)
                * cmath.exp(-1j * (lam[j] - mu) * length / 2)
            )
            rhs = plus(rhs, coeff, rest)
        for j in range(n):
            for k in range(j + 1, n):
                rest = minor(j, k)
                coeff = -(1j * gamma / (lam[j] - mu)) * (1j * gamma / (lam[k] - mu)) * (
                    momrep.tau_pm(lam[j], minor(j), gamma, -1)
                    * momrep.tau_pm(lam[k], rest, gamma, 1)
                    * cmath.exp(1j * (lam[j] - lam[k]) * length / 2)
                    + momrep.tau_pm(lam[k], minor(k), gamma, -1)
                    * momrep.tau_pm(lam[j], rest, gamma, 1)
                    * cmath.exp(-1j * (lam[j] - lam[k]) * length / 2)
                )
                rhs = plus(rhs, coeff, rest + (mu,))
        pts_low = alcovefn.sample_interior(n - 1, 10, length, seed)
        yield "offdiagonal-action-lowering", n, _gap([(lhs, rhs)], pts_low)

    # on-shell transfer eigenvalue and periodicity, at fixed quantum numbers
    for n in ns:
        twice = {2: (3, 1), 3: (4, 0, -2)}[n]
        r = bae.solve_bae(bae.QuantumNumbers(twice), gamma, length)
        Psi = wavefn.bethe_wavefunction(r)
        pts = alcovefn.sample_interior(n, 30, length, seed)
        yield "transfer-eigenvalue-on-shell", n, worst_residual(
            _gap([(
                ybops.transfer(mu, Psi, gamma, length),
                alcovefn.afn_scale(bae.transfer_eigenvalue(mu, r), Psi),
            )], pts)
            for mu in (0.31, -0.83, 1.27, 2.9, -2.2)
        )
        yield "bethe-periodicity", n, wavefn.check_periodicity(Psi, r)["max_residual"]
        # the pre-wavefunction must NOT be periodic: pass means residual large
        per_psi = wavefn.check_periodicity(wavefn.prewavefunction(r), r)
        yield "prewavefunction-nonperiodicity", n, per_psi["max_residual"], lambda res: res > 1e-3


@_suite("nonsymmetric-YBA", OPERATOR_TOL)
def suite_nonsymmetric_yba(ns: range, gamma: float, length: float, seed: int):
    """Exchange relations of the symmetric generators, their non-symmetric
    refinements on pre-wavefunction inputs, and the matrix Yang-Baxter
    equation."""
    lam, mu = 0.67, -0.38
    weight = 1j * gamma / (lam - mu)

    yield "r-matrix-yang-baxter", 2, ybops.ybe_check(lam, mu, gamma), 1e-13

    def sub(F, G):
        return alcovefn.afn_add(F, alcovefn.afn_scale(-1.0, G))

    def xy(key, x, a, y, b):
        """The path of X_a Y_b acting on the input named key."""
        return (key, (y, b), (x, a))

    def label(family):
        return family.replace("+", "plus").replace("-", "minus")

    cross, inverse = -1j * gamma**2 / (lam - mu), -1j / (lam - mu)
    # (name, X, Y, c, P, Q, input): [X_lam, Y_mu] = c (P_lam Q_mu - P_mu Q_lam)
    # on the input; a row without P states [X_lam, Y_mu] = 0
    rows = [(f"symmetric-{f}{f}-commutation", f, f, None, None, None, "Psi") for f in "ABCD"]
    rows += [
        (f"symmetric-{x}{y}-exchange", x, y, c, y, x, "Psi")
        for x, y, c in (
            ("A", "B", -weight), ("B", "A", -weight),
            ("A", "C", weight), ("C", "A", weight),
            ("B", "D", weight), ("D", "B", weight),
            ("C", "D", -weight), ("D", "C", -weight),
        )
    ]
    rows += [
        ("symmetric-AD-exchange", "A", "D", cross, "B", "C", "Psi"),
        ("symmetric-DA-exchange", "D", "A", cross, "C", "B", "Psi"),
        ("symmetric-BC-exchange", "B", "C", inverse, "A", "D", "Psi"),
        ("symmetric-CB-exchange", "C", "B", inverse, "D", "A", "Psi"),
        ("nonsymmetric-aa-commutation", "a", "a", None, None, None, "psi"),
        ("nonsymmetric-dd-commutation", "d", "d", None, None, None, "psi"),
        ("nonsymmetric-raising-mixed-commutation", "b-", "b+", None, None, None, "psi"),
        ("nonsymmetric-lowering-mixed-commutation", "c-", "c+", None, None, None, "psi"),
    ]
    rows += [
        (f"nonsymmetric-{label(x)}-{label(y)}-exchange", x, y, c, y, x, "psi")
        for x, y, c in (
            ("a", "b+", -weight), ("b+", "a", -weight),
            ("d", "b-", weight), ("b-", "d", weight),
            ("a", "c+", weight), ("c+", "a", weight),
            ("d", "c-", -weight), ("c-", "d", -weight),
        )
    ]
    # every check as (name, input, paths, c, swap): lhs is s v0 - v1 with
    # s the position transposition swap (or 1), rhs is c (v[-2] - v[-1])
    # (or 0 when c is None), v the values of the paths
    checks = [
        (name, key, [xy(key, x, lam, y, mu), xy(key, y, mu, x, lam)]
         + ([] if p is None else [xy(key, p, lam, q, mu), xy(key, p, mu, q, lam)]), c, None)
        for name, x, y, c, p, q, key in rows
    ]
    # [x_lam, y_mu] = gamma (P_mu Q_lam - P'_lam Q'_mu) on the pre-wavefunction
    checks += [
        (f"nonsymmetric-{x}{y}-via-lowering-raising", "psi",
         [xy("psi", x, lam, y, mu), xy("psi", y, mu, x, lam),
          xy("psi", p1, mu, q1, lam), xy("psi", p2, lam, q2, mu)], gamma, None)
        for x, y, (p1, q1, p2, q2) in (
            ("a", "d", ("c-", "b+", "c+", "b-")),
            ("d", "a", ("c+", "b-", "c-", "b+")),
        )
    ]
    for n in ns:
        r = RapiditySet(_seeded_lambda(n, seed, tag=9), gamma, length)
        inputs = {"Psi": wavefn.bethe_wavefunction(r), "psi": wavefn.prewavefunction(r)}
        # each residual is relative to the size of the input it acts on
        ref_pts = alcovefn.sample_interior(n, 6, length, seed)
        scales = {key: max([1.0] + [abs(F.eval(x)) for x in ref_pts]) for key, F in inputs.items()}
        # position transposition against double raising:
        # s b_lam b_mu - b_mu b_lam = +-(i gamma/(lam-mu)) [b_lam, b_mu]
        swaps = [
            (f"nonsymmetric-{label(fam)}-transposition-exchange", "psi",
             [xy("psi", fam, lam, fam, mu), xy("psi", fam, mu, fam, lam)], c,
             transposition(j_swap, j_swap + 1, n + 2))
            for fam, j_swap, c in (("b-", n + 1, weight), ("b+", 1, -weight))
        ]
        apply = _applications(gamma, length, inputs, [p for check in checks + swaps for p in check[2]])
        for name, key, paths, c, swap in checks + swaps:
            v = [apply(p) for p in paths]
            lhs = sub(v[0] if swap is None else alcovefn.act_position(swap, v[0]), v[1])
            if c is None:
                rhs = alcovefn.zero_function(lhs.n)
            else:
                rhs = alcovefn.afn_scale(c, sub(v[-2], v[-1]))
            pts = alcovefn.sample_interior(lhs.n, 6, length, seed) if lhs.n else [()]
            yield name, n, _gap([(lhs, rhs)], pts, scales[key])


@_suite("Q-operator", OPERATOR_TOL)
def suite_q_operator(ns: range, gamma: float, length: float, seed: int):
    """Quantum determinant and Q-operator identities."""
    if gamma <= 0:
        raise ValueError("this suite solves Bethe equations and needs gamma > 0")
    # quantum determinant acts as the constant e^{-gamma L / 2}
    for n in ns:
        Psi = wavefn.bethe_wavefunction(RapiditySet(_seeded_lambda(n, seed, tag=10), gamma, length))
        pts = alcovefn.sample_interior(n, 8, length, seed)
        want = alcovefn.afn_scale(math.exp(-gamma * length / 2), Psi)
        yield "quantum-determinant-eigenvalue", n, worst_residual(
            _gap([(ybops.qdet(mu, Psi, gamma, length), want)], pts) for mu in (0.37, -1.21)
        )

    # scalar TQ relation and Q annihilation at the Bethe roots
    r = bae.solve_bae(bae.QuantumNumbers((3, 1)), gamma, length)

    def tq_gap(mu):
        lhs = bae.transfer_eigenvalue(mu, r) * ybops.q_operator_scalar(mu, r.lam)
        rhs = (
            cmath.exp(-1j * mu * length / 2) * ybops.q_operator_scalar(mu + 1j * gamma, r.lam)
            + cmath.exp(1j * mu * length / 2) * ybops.q_operator_scalar(mu - 1j * gamma, r.lam)
        )
        return _relative(lhs, rhs)

    yield "tq-scalar-relation", 2, worst_residual(tq_gap(mu) for mu in (0.41, -0.93, 2.17)), 1e-10

    Psi = wavefn.bethe_wavefunction(r)
    pts = alcovefn.sample_interior(2, 8, length, seed)
    scale = max(abs(Psi.eval(x)) for x in pts)
    zero = alcovefn.zero_function(2)
    worst = _gap([(ybops.q_operator_apply(Psi, v, gamma), zero) for v in r.lam], pts, scale)
    yield "q-annihilation-at-roots", 2, worst, 1e-10

    # Q commutes with the transfer operator on a Bethe wavefunction
    mu, nu = 0.52, -0.73
    lhs = ybops.q_operator_apply(ybops.transfer(nu, Psi, gamma, length), mu, gamma)
    rhs = ybops.transfer(nu, ybops.q_operator_apply(Psi, mu, gamma), gamma, length)
    yield "transfer-q-commutation", 2, _gap([(lhs, rhs)], pts, scale)


@_suite("oracle-crosscheck", QUAD_TOL)
def suite_oracle_crosscheck(ns: range, gamma: float, length: float, seed: int):
    """The exact operator calculus against independent adaptive quadrature
    and finite differences."""
    mu = 0.37
    r2 = RapiditySet(_seeded_lambda(2, seed, tag=11), gamma, length)
    f2 = wavefn.prewavefunction(r2)
    Psi2 = wavefn.bethe_wavefunction(r2)

    for fam in ("b+", "b-", "a", "d", "c+", "c-", "A", "B", "C", "D"):
        f = Psi2 if fam.isupper() else f2
        exact = _op(fam, mu, f, gamma, length)
        pts = alcovefn.sample_interior(exact.n, 20, length, seed) if exact.n else [()]
        label = fam.replace("+", "p").replace("-", "m")
        quad = oracle.quad_apply_many(fam, mu, f, gamma, length, pts)
        yield f"quadrature-crosscheck-{label}", f.n, worst_residual(
            _relative(exact.eval(x), q) for q, x in zip(quad, pts)
        )

    pts = alcovefn.sample_interior(2, 10, length, seed)
    yield "finite-difference-derivative", 2, worst_residual(
        _relative(exact.eval(x), oracle.fd_derivative(f2, j, x))
        for j, exact in ((j, alcovefn.afn_derivative(f2, j)) for j in (1, 2))
        for x in pts
    )


def run_suite(
    name: str, max_n: int = 3, gamma: float = 1.0, length: float = 10.0, seed: int = alcovefn.DEFAULT_SEED
) -> list[dict]:
    """The suite's records; an exception the suite raises propagates."""
    return list(SUITES[name](max_n, gamma, length, seed))


def stream(
    chosen: Iterable[tuple[str, Callable]], max_n: int, gamma: float, length: float, seed: int
) -> Iterator[dict]:
    """The records of each (name, suite) in turn, stamped with the suite's
    name.  A suite that raises keeps the records it yielded and ends with
    one failing record naming the exception; its traceback goes to stderr."""
    for name, suite in chosen:
        try:
            for rec in suite(max_n, gamma, length, seed):
                yield dict(rec, suite=name)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            yield {
                "identity_id": "suite-error",
                "n": max_n,
                "gamma": gamma,
                "length": length,
                "max_residual": None,
                "pass": False,
                "error": f"{type(exc).__name__}: {exc}",
                "suite": name,
            }
