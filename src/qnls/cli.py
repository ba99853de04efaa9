"""Command-line interface: solve Bethe equations, evaluate wavefunctions,
and run the identity verification suites.

Exit codes: 0 success, 1 usage error, 2 solver non-convergence, 3 at
least one identity check failed.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import random
import sys
import traceback
from typing import Callable, Sequence

from . import alcovefn, bae, exppoly, momrep, oracle, wavefn, ybops
from .alcovefn import AlcoveFunction
from .momrep import OrbitFunction
from .symgroup import Permutation, all_permutations, identity, transposition
from .wavefn import RapiditySet

__all__ = ["main", "SUITES", "run_suite", "parse_complex"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_IDENTITY_FAILURE = 3

IDENTITY_TOL = 1e-9
OPERATOR_TOL = 1e-8
QUAD_TOL = 1e-6


def parse_complex(text: str) -> complex:
    """Complex numbers with an i suffix, e.g. '1.5+0.2i' or '-3i'."""
    return complex(text.strip().replace("i", "j").replace(" ", ""))


def parse_complex_list(text: str) -> tuple[complex, ...]:
    return tuple(parse_complex(part) for part in text.split(",") if part.strip())


def load_config(path: str) -> dict[str, str]:
    """key=value lines; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# deterministic test data
# ---------------------------------------------------------------------------


def _seeded_lambda(n: int, seed: int, tag: int = 0) -> tuple[complex, ...]:
    """Distinct real rapidities with a safe pairwise gap."""
    rng = random.Random((seed << 8) ^ (n * 7919 + tag))
    while True:
        lam = tuple(rng.uniform(-1.6, 1.6) for _ in range(n))
        gaps = [abs(lam[a] - lam[b]) for a in range(n) for b in range(a + 1, n)]
        if not gaps or min(gaps) > 0.2:
            return tuple(complex(v) for v in lam)


def _record(
    identity_id: str,
    n: int,
    gamma: float,
    length: float,
    residual: float,
    tol: float,
) -> dict:
    return {
        "identity_id": identity_id,
        "n": n,
        "gamma": gamma,
        "length": length,
        "max_residual": residual,
        "pass": bool(residual < tol),
    }


def _gap(pairs, xs, scale: float | None = None) -> float:
    """Worst |F(x) - G(x)| over the (F, G) pairs and the points xs, divided
    by scale; by default the largest |value| seen, or 1 if that is smaller."""
    worst, seen = 0.0, 1.0
    for F, G in pairs:
        for x in xs:
            v1, v2 = F.eval(x), G.eval(x)
            worst = max(worst, abs(v1 - v2))
            seen = max(seen, abs(v1), abs(v2))
    return worst / (seen if scale is None else scale)


def _op(family: str, nu: complex, F: AlcoveFunction, gamma: float, length: float):
    """Any generator, named as oracle.quad_apply names them."""
    if family in ("A", "B", "C", "D"):
        return ybops.apply_symmetric(family, nu, F, gamma, length)
    return ybops.apply_nonsymmetric(family, nu, F, gamma, length)


# ---------------------------------------------------------------------------
# momentum-representation helpers (operator compositions on orbit tables)
# ---------------------------------------------------------------------------


def _t(j: int, k: int, n: int):
    """The transposition action on orbit tables."""
    return lambda o: momrep.act_table(transposition(j, k, n), o)


def _dd(j: int, k: int):
    return lambda o: momrep.divided_difference(o, j, k)


def _chain(*ops):
    """Operator product; rightmost acts first."""

    def apply(o):
        for op in reversed(ops):
            o = op(o)
        return o

    return apply


def _tg(j: int, gamma: float):
    return lambda o: momrep.deformed_transposition_momentum(o, j, gamma)


def _msym(j: int):
    return lambda o: momrep.mult_symbol(o, j)


def _one_plus(op, weight: complex):
    return lambda o: momrep.orbit_add(o, momrep.orbit_scale(weight, op(o)))


def _partial_symmetrizer(o: OrbitFunction, sub_n: int) -> OrbitFunction:
    """Average over the permutations of the first sub_n slots."""
    n = o.n
    acc = None
    perms = all_permutations(sub_n)
    for w in perms:
        emb = Permutation(tuple(w.images) + tuple(range(sub_n + 1, n + 1)))
        term = momrep.act_table(emb, o)
        acc = term if acc is None else momrep.orbit_add(acc, term)
    return momrep.orbit_scale(1.0 / len(perms), acc)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_daha_axioms(max_n: int, gamma: float, length: float, seed: int) -> list[dict]:
    """Defining relations of the deformed transpositions, their divided
    difference building blocks, the Dunkl-type operators, and the bridges
    between the momentum and position actions on plane waves."""
    records = []
    for n in range(2, min(max_n, 4) + 1):
        lam = _seeded_lambda(n, seed)
        base = momrep.orbit_planewave(lam)
        xs = alcovefn.sample_interior(n, 4, length, seed)

        def res(o1, o2):
            return _gap([(o1.entries[s], o2.entries[s]) for s in o1.entries], xs)

        worst = max(
            res(_chain(_tg(j, gamma), _tg(j, gamma))(base), base)
            for j in range(1, n)
        )
        records.append(
            _record("deformed-transposition-involution", n, gamma, length, worst, IDENTITY_TOL)
        )
        if n >= 3:
            worst = max(
                res(
                    _chain(_tg(j, gamma), _tg(j + 1, gamma), _tg(j, gamma))(base),
                    _chain(_tg(j + 1, gamma), _tg(j, gamma), _tg(j + 1, gamma))(base),
                )
                for j in range(1, n - 1)
            )
            records.append(
                _record("deformed-braid-relation", n, gamma, length, worst, IDENTITY_TOL)
            )
        if n >= 4:
            worst = res(
                _chain(_tg(1, gamma), _tg(3, gamma))(base),
                _chain(_tg(3, gamma), _tg(1, gamma))(base),
            )
            records.append(
                _record("deformed-distant-commutation", n, gamma, length, worst, IDENTITY_TOL)
            )
        # s_{j,gamma} m_j - m_{j+1} s_{j,gamma} = -i gamma
        worst = 0.0
        for j in range(1, n):
            lhs = momrep.orbit_add(
                _chain(_tg(j, gamma), _msym(j))(base),
                momrep.orbit_scale(-1.0, _chain(_msym(j + 1), _tg(j, gamma))(base)),
            )
            worst = max(worst, res(lhs, momrep.orbit_scale(-1j * gamma, base)))
        records.append(
            _record("symbol-exchange-relation", n, gamma, length, worst, IDENTITY_TOL)
        )

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
            records.append(_record(name, n, gamma, length, _gap(pairs, xs, 1.0), IDENTITY_TOL))

        # Dunkl-type operators on the pre-wavefunction
        r = RapiditySet(lam, gamma, length)
        psi = wavefn.prewavefunction(r)
        worst = 0.0
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                jk = alcovefn.dunkl(alcovefn.dunkl(psi, k, gamma), j, gamma)
                kj = alcovefn.dunkl(alcovefn.dunkl(psi, j, gamma), k, gamma)
                worst = max(worst, _gap([(jk, kj)], xs))
        records.append(
            _record("dunkl-commutativity", n, gamma, length, worst, IDENTITY_TOL)
        )
        worst = 0.0
        for j in range(1, n):
            for k in range(1, n + 1):
                sj = transposition(j, j + 1, n)
                lhs = alcovefn.act_position(sj, alcovefn.dunkl(psi, k, gamma))
                rhs = alcovefn.dunkl(alcovefn.act_position(sj, psi), sj(k), gamma)
                shift = gamma * ((1 if k == j else 0) - (1 if k == j + 1 else 0))
                rhs = alcovefn.afn_add(rhs, alcovefn.afn_scale(shift, psi))
                worst = max(worst, _gap([(lhs, rhs)], xs))
        records.append(
            _record("dunkl-transposition-exchange", n, gamma, length, worst, IDENTITY_TOL)
        )
        worst = 0.0
        for j in range(1, n + 1):
            dj = alcovefn.dunkl(psi, j, gamma)
            want = alcovefn.afn_scale(1j * lam[j - 1], psi)
            worst = max(worst, _gap([(dj, want)], xs))
        records.append(
            _record("dunkl-eigen-prewavefunction", n, gamma, length, worst, IDENTITY_TOL)
        )
    return records


def suite_appendix_a(max_n: int, gamma: float, length: float, seed: int) -> list[dict]:
    """Identities of the divided-difference calculus in the momentum
    representation, tested on plane-wave orbit tables.  Every identity
    needs three particles, so a max_n below 3 still runs n = 3."""
    records = []
    for n in range(3, min(max(max_n, 3), 4) + 1):
        lam = _seeded_lambda(n, seed, tag=1)
        base = momrep.orbit_planewave(lam)
        xs = alcovefn.sample_interior(n, 4, length, seed)

        def res(o1, o2):
            return _gap([(o1.entries[s], o2.entries[s]) for s in o1.entries], xs)

        j, k, l = 1, 2, 3
        # divided difference against symbol multiplication
        worst = 0.0
        for ll in range(1, n + 1):
            bar = transposition(j, k, n)(ll)
            lhs = momrep.orbit_add(
                _chain(_dd(j, k), _msym(ll))(base),
                momrep.orbit_scale(-1.0, _chain(_msym(bar), _dd(j, k))(base)),
            )
            delta = (1.0 if ll == j else 0.0) - (1.0 if ll == k else 0.0)
            worst = max(worst, res(lhs, momrep.orbit_scale(delta, base)))
        records.append(
            _record("divided-difference-symbol-exchange", n, gamma, length, worst, IDENTITY_TOL)
        )

        if n >= 4:
            worst = max(
                res(_chain(_t(1, 2, n), _dd(3, 4))(base), _chain(_dd(3, 4), _t(1, 2, n))(base)),
                res(_chain(_dd(1, 2), _dd(3, 4))(base), _chain(_dd(3, 4), _dd(1, 2))(base)),
            )
            records.append(
                _record("disjoint-support-commutation", n, gamma, length, worst, IDENTITY_TOL)
            )

        records.append(
            _record(
                "conjugated-divided-difference-exchange",
                n, gamma, length,
                res(
                    _chain(_t(j, k, n), _dd(k, l), _t(j, k, n))(base),
                    _chain(_t(k, l, n), _dd(j, k), _t(k, l, n))(base),
                ),
                IDENTITY_TOL,
            )
        )
        records.append(
            _record(
                "double-transposition-intertwining",
                n, gamma, length,
                res(
                    _chain(_t(j, k, n), _t(k, l, n), _dd(j, k))(base),
                    _chain(_dd(k, l), _t(j, k, n), _t(k, l, n))(base),
                ),
                IDENTITY_TOL,
            )
        )
        comm = momrep.orbit_add(
            _chain(_dd(j, k), _dd(k, l))(base),
            momrep.orbit_scale(-1.0, _chain(_dd(k, l), _dd(j, k))(base)),
        )
        records.append(
            _record(
                "divided-difference-commutator-factorization",
                n, gamma, length,
                res(comm, _chain(_t(k, l, n), _dd(j, k), _dd(k, l), _t(j, k, n))(base)),
                IDENTITY_TOL,
            )
        )
        lhs = _chain(_dd(k, l), _t(j, k, n), _dd(k, l))(base)
        rhs = momrep.orbit_add(
            _chain(_dd(j, k), _dd(k, l), _t(j, k, n))(base),
            _chain(_t(j, k, n), _dd(k, l), _dd(j, k))(base),
        )
        records.append(
            _record("mixed-braid-expansion", n, gamma, length, res(lhs, rhs), IDENTITY_TOL)
        )
        records.append(
            _record(
                "divided-difference-braid",
                n, gamma, length,
                res(
                    _chain(_dd(j, k), _dd(k, l), _dd(j, k))(base),
                    _chain(_dd(k, l), _dd(j, k), _dd(k, l))(base),
                ),
                IDENTITY_TOL,
            )
        )
        sym_kl = momrep.orbit_add(base, momrep.act_table(transposition(k, l, n), base))
        comm2s = momrep.orbit_add(
            _chain(_dd(j, k), _dd(j, l))(sym_kl),
            momrep.orbit_scale(-1.0, _chain(_dd(j, l), _dd(j, k))(sym_kl)),
        )
        zero = momrep.orbit_scale(0.0, base)
        records.append(
            _record(
                "shared-index-commutator-symmetrization",
                n, gamma, length, res(comm2s, zero), IDENTITY_TOL,
            )
        )

        # product of (1 + i gamma Delta_{j n}) factors as a deformed word
        lhs = base
        for jj in range(1, n):
            lhs = _one_plus(_dd(jj, n), 1j * gamma)(lhs)
        rhs = base
        for jj in range(n - 1, 0, -1):
            rhs = momrep.act_table(transposition(jj, jj + 1, n), rhs)
        for jj in range(1, n):
            rhs = momrep.deformed_transposition_momentum(rhs, jj, gamma)
        records.append(
            _record("deformed-word-product-expansion", n, gamma, length, res(lhs, rhs), IDENTITY_TOL)
        )

        # gamma-deformed symmetrizer = plain symmetrizer after the
        # gamma-dependent weight
        records.append(
            _record(
                "gamma-symmetrizer-factorization",
                n, gamma, length,
                res(
                    momrep.gamma_symmetrizer(base, gamma),
                    momrep.symmetrizer(
                        momrep.mult_scalar(base, lambda p: momrep.coeff_G(p, gamma))
                    ),
                ),
                IDENTITY_TOL,
            )
        )

        # telescoping sums behind the diagonal actions
        mu = 0.23 + 0.11j
        symm = momrep.symmetrizer(base)
        acc = None
        for m in range(1, n + 1):
            term = momrep.mult_scalar(
                symm, lambda p: 1j * gamma / (p[n - 1] - mu)
            )
            for jj in range(n - 1, m - 1, -1):
                term = momrep.deformed_transposition_momentum(term, jj, gamma)
            acc = term if acc is None else momrep.orbit_add(acc, term)
        want = momrep.mult_scalar(
            symm, lambda p: 1.0 - momrep.tau_pm(mu, p, gamma, 1)
        )
        records.append(
            _record("boundary-weight-telescoping", n, gamma, length, res(acc, want), IDENTITY_TOL)
        )

        sub = n - 1
        psub = _partial_symmetrizer(base, sub)
        lhs = None
        for m in range(1, n + 1):
            term = momrep.mult_scalar(
                psub, lambda p: momrep.tau_pm(p[n - 1], p[:sub], gamma, 1)
            )
            for jj in range(n - 1, m - 1, -1):
                term = momrep.act_table(transposition(jj, jj + 1, n), term)
            lhs = term if lhs is None else momrep.orbit_add(lhs, term)
        rhs = None
        for m in range(1, n + 1):
            term = psub
            for jj in range(n - 1, m - 1, -1):
                term = momrep.deformed_transposition_momentum(term, jj, gamma)
            rhs = term if rhs is None else momrep.orbit_add(rhs, term)
        records.append(
            _record("deformed-vs-weighted-coset-sums", n, gamma, length, res(lhs, rhs), IDENTITY_TOL)
        )
    return records


def suite_appendix_b(max_n: int, gamma: float, length: float, seed: int) -> list[dict]:
    """Adjointness, permutation equivariance, and the symmetric-restriction
    coincidence of the elementary integral operators."""
    records = []
    lam = 0.41 + 0.17j

    # adjointness via quadrature inner products, 1 -> 2 particles
    f = alcovefn.from_analytic(exppoly.plane_wave((0.7,)))
    r2 = RapiditySet(_seeded_lambda(2, seed, tag=2), gamma, length)
    g = wavefn.prewavefunction(r2)
    worst = 0.0
    for up_kind, down_kind in (("e_hat-", "e_check+"), ("e_hat+", "e_check-")):
        for i in ((), (1,)):
            up = ybops.elementary_nonsymmetric_op(up_kind, lam, i, f, length)
            down = ybops.elementary_nonsymmetric_op(
                down_kind, lam.conjugate(), i, g, length
            )
            lhs = oracle.inner_product(up, g, length)
            rhs = oracle.inner_product(f, down, length)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    for i in ((), (1,)):
        up = ybops.elementary_nonsymmetric_op("e_bar+", lam, i, f, length)
        f2 = alcovefn.from_analytic(exppoly.plane_wave((-0.55,)))
        down = ybops.elementary_nonsymmetric_op("e_bar-", lam.conjugate(), i, f2, length)
        lhs = oracle.inner_product(up, f2, length)
        rhs = oracle.inner_product(f, down, length)
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    records.append(_record("elementary-adjointness", 1, gamma, length, worst, QUAD_TOL))

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

    worst = max(
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
    records.append(
        _record("elementary-permutation-equivariance", n, gamma, length, worst, IDENTITY_TOL)
    )

    # on symmetric input the two lowering operators coincide
    Fsym = wavefn.bethe_wavefunction(RapiditySet(_seeded_lambda(3, seed, tag=5), gamma, length))
    worst = _gap(
        [
            (elem("e_check+", i, Fsym), elem("e_check-", i, Fsym))
            for i in ((), (1,), (2,), (1, 2))
        ],
        xs2, 1.0,
    )
    records.append(
        _record("lowering-coincidence-on-symmetric", 3, gamma, length, worst, IDENTITY_TOL)
    )
    return records


def suite_wavefunction_routes(max_n: int, gamma: float, length: float, seed: int) -> list[dict]:
    """Pointwise agreement of the independent constructions of the
    pre-wavefunction and the Bethe wavefunction, plus the degenerate
    coincident-pair limit against its closed form."""
    records = []
    for n in range(2, min(max_n, 4) + 1):
        lam = _seeded_lambda(n, seed, tag=6)
        r = RapiditySet(lam, gamma, length)
        pts = alcovefn.sample_interior(n, 50, length, seed)
        records.append(
            _record(
                "prewavefunction-route-agreement",
                n, gamma, length,
                wavefn.assert_routes_agree(r, "pre", pts),
                wavefn.ROUTE_TOL,
            )
        )
        records.append(
            _record(
                "bethe-route-agreement",
                n, gamma, length,
                wavefn.assert_routes_agree(r, "bethe", pts),
                wavefn.ROUTE_TOL,
            )
        )
    F = wavefn.prewavefunction_degenerate(RapiditySet((0.5, 0.5), gamma, length))
    ref = wavefn.prewavefunction_coincident_pair(0.5, gamma)
    worst = _gap([(F, ref)], alcovefn.sample_interior(2, 20, length, seed), 1.0)
    records.append(_record("degenerate-pair-closed-form", 2, gamma, length, worst, QUAD_TOL))
    return records


def suite_qnls_eigen(max_n: int, gamma: float, length: float, seed: int) -> list[dict]:
    """Eigenvalue problem for the pre-wavefunction and the Bethe
    wavefunction: Laplacian at coefficient level, derivative jumps on the
    walls, and the first-order eigen-system."""
    records = []
    for n in range(2, min(max_n, 3) + 1):
        lam = _seeded_lambda(n, seed, tag=7)
        r = RapiditySet(lam, gamma, length)
        for name, F, with_dunkl in (
            ("qnls-eigen-prewavefunction", wavefn.prewavefunction(r), True),
            ("qnls-eigen-bethe", wavefn.bethe_wavefunction(r), False),
        ):
            rep = wavefn.verify_qnls(F, r, check_dunkl=with_dunkl)
            records.append(
                _record(name, n, gamma, length, rep["max_residual"], IDENTITY_TOL)
            )
    return records


def suite_aba(max_n: int, gamma: float, length: float, seed: int) -> list[dict]:
    """Diagonal and off-diagonal actions of the symmetric generators on
    Bethe wavefunctions, the on-shell transfer eigenvalue, and the
    periodicity dichotomy."""
    records = []
    if gamma <= 0:
        raise ValueError("this suite solves Bethe equations and needs gamma > 0")
    # off-shell diagonal and lowering actions
    for n in range(2, min(max_n, 3) + 1):
        lam = _seeded_lambda(n, seed, tag=8)
        r = RapiditySet(lam, gamma, length)
        Psi = wavefn.bethe_wavefunction(r)
        mu = 0.29
        pts = alcovefn.sample_interior(n, 10, length, seed)

        def minor(drop):
            return tuple(v for t, v in enumerate(lam) if t != drop)

        def minor2(d1, d2):
            return tuple(v for t, v in enumerate(lam) if t not in (d1, d2))

        # raising-free expansion of the A and D actions
        for family, sign in (("A", 1), ("D", -1)):
            lhs = ybops.apply_symmetric(family, mu, Psi, gamma, length)
            phase = cmath.exp(-1j * sign * mu * length / 2)
            rhs = alcovefn.afn_scale(
                momrep.tau_pm(mu, lam, gamma, sign) * phase, Psi
            )
            for j in range(n):
                rest = minor(j)
                coeff = (
                    momrep.tau_pm(lam[j], rest, gamma, sign)
                    * (sign * 1j * gamma / (lam[j] - mu))
                    * cmath.exp(-1j * sign * lam[j] * length / 2)
                )
                swapped = RapiditySet(rest + (mu,), gamma, length)
                rhs = alcovefn.afn_add(
                    rhs,
                    alcovefn.afn_scale(coeff, wavefn.bethe_wavefunction(swapped)),
                )
            name = "diagonal-action-raising" if family == "A" else "diagonal-action-lowering"
            records.append(_record(name, n, gamma, length, _gap([(lhs, rhs)], pts), OPERATOR_TOL))

        # expansion of gamma C
        lhs = alcovefn.afn_scale(
            gamma, ybops.apply_symmetric("C", mu, Psi, gamma, length)
        )
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
            rhs = alcovefn.afn_add(
                rhs,
                alcovefn.afn_scale(
                    coeff, wavefn.bethe_wavefunction(RapiditySet(rest, gamma, length))
                ),
            )
        for j in range(n):
            for k in range(j + 1, n):
                rest = minor2(j, k)
                coeff = -(1j * gamma / (lam[j] - mu)) * (1j * gamma / (lam[k] - mu)) * (
                    momrep.tau_pm(lam[j], minor(j), gamma, -1)
                    * momrep.tau_pm(lam[k], rest, gamma, 1)
                    * cmath.exp(1j * (lam[j] - lam[k]) * length / 2)
                    + momrep.tau_pm(lam[k], minor(k), gamma, -1)
                    * momrep.tau_pm(lam[j], rest, gamma, 1)
                    * cmath.exp(-1j * (lam[j] - lam[k]) * length / 2)
                )
                swapped = RapiditySet(rest + (mu,), gamma, length)
                rhs = alcovefn.afn_add(
                    rhs,
                    alcovefn.afn_scale(coeff, wavefn.bethe_wavefunction(swapped)),
                )
        pts_low = alcovefn.sample_interior(n - 1, 10, length, seed)
        records.append(
            _record(
                "offdiagonal-action-lowering",
                n, gamma, length, _gap([(lhs, rhs)], pts_low), OPERATOR_TOL,
            )
        )

    # on-shell transfer eigenvalue and periodicity
    for n, twice in ((2, (3, 1)), (3, (4, 0, -2))):
        if n > max_n:
            continue
        qn = bae.QuantumNumbers(twice)
        r = bae.solve_bae(qn, gamma, length)
        Psi = wavefn.bethe_wavefunction(r)
        pts = alcovefn.sample_interior(n, 30, length, seed)
        worst = max(
            _gap([(
                ybops.transfer(mu, Psi, gamma, length),
                alcovefn.afn_scale(bae.transfer_eigenvalue(mu, r), Psi),
            )], pts)
            for mu in (0.31, -0.83, 1.27, 2.9, -2.2)
        )
        records.append(
            _record("transfer-eigenvalue-on-shell", n, gamma, length, worst, OPERATOR_TOL)
        )
        per = wavefn.check_periodicity(Psi, r)
        records.append(
            _record("bethe-periodicity", n, gamma, length, per["max_residual"], OPERATOR_TOL)
        )
        psi = wavefn.prewavefunction(r)
        per_psi = wavefn.check_periodicity(psi, r)
        # the pre-wavefunction must NOT be periodic: pass means residual large
        records.append(
            {
                "identity_id": "prewavefunction-nonperiodicity",
                "n": n,
                "gamma": gamma,
                "length": length,
                "max_residual": per_psi["max_residual"],
                "pass": bool(per_psi["max_residual"] > 1e-3),
            }
        )
    return records


def suite_nonsymmetric_yba(max_n: int, gamma: float, length: float, seed: int) -> list[dict]:
    """Exchange relations of the symmetric generators, their non-symmetric
    refinements on pre-wavefunction inputs, and the matrix Yang-Baxter
    equation."""
    records = []
    lam, mu = 0.67, -0.38
    weight = 1j * gamma / (lam - mu)

    records.append(
        _record(
            "r-matrix-yang-baxter", 2, gamma, length,
            ybops.ybe_check(lam, mu, gamma), 1e-13,
        )
    )

    n = 2 if max_n >= 2 else 1
    r = RapiditySet(_seeded_lambda(n, seed, tag=9), gamma, length)
    inputs = {"Psi": wavefn.bethe_wavefunction(r), "psi": wavefn.prewavefunction(r)}
    # each residual is relative to the size of the input it acts on
    ref_pts = alcovefn.sample_interior(n, 6, length, seed)
    scales = {key: max([1.0] + [abs(F.eval(x)) for x in ref_pts]) for key, F in inputs.items()}

    def op(family, nu, F):
        return _op(family, nu, F, gamma, length)

    def sub(F, G):
        return alcovefn.afn_add(F, alcovefn.afn_scale(-1.0, G))

    def comm(x, y, F):
        return sub(op(x, lam, op(y, mu, F)), op(y, mu, op(x, lam, F)))

    def check(name, lhs, rhs, key):
        pts = alcovefn.sample_interior(lhs.n, 6, length, seed) if lhs.n else [()]
        worst = _gap([(lhs, rhs)], pts, scales[key])
        records.append(_record(name, n, gamma, length, worst, OPERATOR_TOL))

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
    for name, x, y, c, p, q, key in rows:
        F = inputs[key]
        lhs = comm(x, y, F)
        if p is None:
            rhs = alcovefn.zero_function(lhs.n)
        else:
            rhs = alcovefn.afn_scale(c, sub(op(p, lam, op(q, mu, F)), op(p, mu, op(q, lam, F))))
        check(name, lhs, rhs, key)

    # [x_lam, y_mu] = gamma (P_mu Q_lam - P'_lam Q'_mu) on the pre-wavefunction
    psi = inputs["psi"]
    for x, y, (p1, q1, p2, q2) in (
        ("a", "d", ("c-", "b+", "c+", "b-")),
        ("d", "a", ("c+", "b-", "c-", "b+")),
    ):
        rhs = alcovefn.afn_scale(
            gamma, sub(op(p1, mu, op(q1, lam, psi)), op(p2, lam, op(q2, mu, psi)))
        )
        check(f"nonsymmetric-{x}{y}-via-lowering-raising", comm(x, y, psi), rhs, "psi")

    # position transposition against double raising:
    # s b_lam b_mu - b_mu b_lam = +-(i gamma/(lam-mu)) [b_lam, b_mu]
    for fam, j_swap, c in (("b-", n + 1, weight), ("b+", 1, -weight)):
        lam_mu = op(fam, lam, op(fam, mu, psi))
        mu_lam = op(fam, mu, op(fam, lam, psi))
        swap = transposition(j_swap, j_swap + 1, n + 2)
        lhs = sub(alcovefn.act_position(swap, lam_mu), mu_lam)
        rhs = alcovefn.afn_scale(c, sub(lam_mu, mu_lam))
        check(f"nonsymmetric-{label(fam)}-transposition-exchange", lhs, rhs, "psi")
    return records


def suite_q_operator(max_n: int, gamma: float, length: float, seed: int) -> list[dict]:
    """Quantum determinant and Q-operator identities."""
    records = []
    if gamma <= 0:
        raise ValueError("this suite solves Bethe equations and needs gamma > 0")
    # quantum determinant acts as the constant e^{-gamma L / 2}
    for n in (1, 2):
        if n > max_n:
            continue
        r = RapiditySet(_seeded_lambda(n, seed, tag=10), gamma, length)
        Psi = wavefn.bethe_wavefunction(r)
        pts = alcovefn.sample_interior(n, 8, length, seed)
        want = alcovefn.afn_scale(math.exp(-gamma * length / 2), Psi)
        worst = max(_gap([(ybops.qdet(mu, Psi, gamma, length), want)], pts) for mu in (0.37, -1.21))
        records.append(
            _record("quantum-determinant-eigenvalue", n, gamma, length, worst, OPERATOR_TOL)
        )

    # scalar TQ relation and Q annihilation at the Bethe roots
    qn = bae.QuantumNumbers((3, 1))
    r = bae.solve_bae(qn, gamma, length)
    worst = 0.0
    for mu in (0.41, -0.93, 2.17):
        tau = bae.transfer_eigenvalue(mu, r)
        q = ybops.q_operator_scalar(mu, r.lam)
        qp = ybops.q_operator_scalar(mu + 1j * gamma, r.lam)
        qm = ybops.q_operator_scalar(mu - 1j * gamma, r.lam)
        lhs = tau * q
        rhs = (
            cmath.exp(-1j * mu * length / 2) * qp
            + cmath.exp(1j * mu * length / 2) * qm
        )
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    records.append(_record("tq-scalar-relation", 2, gamma, length, worst, 1e-10))

    Psi = wavefn.bethe_wavefunction(r)
    pts = alcovefn.sample_interior(2, 8, length, seed)
    scale = max(abs(Psi.eval(x)) for x in pts)
    zero = alcovefn.zero_function(2)
    worst = _gap([(ybops.q_operator_apply(Psi, v, gamma), zero) for v in r.lam], pts, scale)
    records.append(_record("q-annihilation-at-roots", 2, gamma, length, worst, 1e-10))

    # Q commutes with the transfer operator on a Bethe wavefunction
    mu, nu = 0.52, -0.73
    lhs = ybops.q_operator_apply(ybops.transfer(nu, Psi, gamma, length), mu, gamma)
    rhs = ybops.transfer(nu, ybops.q_operator_apply(Psi, mu, gamma), gamma, length)
    worst = _gap([(lhs, rhs)], pts, scale)
    records.append(_record("transfer-q-commutation", 2, gamma, length, worst, OPERATOR_TOL))
    return records


def suite_oracle_crosscheck(max_n: int, gamma: float, length: float, seed: int) -> list[dict]:
    """The exact operator calculus against independent adaptive quadrature
    and finite differences."""
    records = []
    mu = 0.37
    r2 = RapiditySet(_seeded_lambda(2, seed, tag=11), gamma, length)
    f2 = wavefn.prewavefunction(r2)
    Psi2 = wavefn.bethe_wavefunction(r2)

    cases = [
        ("b+", f2, 3), ("b-", f2, 3), ("a", f2, 2), ("d", f2, 2),
        ("c+", f2, 1), ("c-", f2, 1),
        ("A", Psi2, 2), ("B", Psi2, 3), ("C", Psi2, 1), ("D", Psi2, 2),
    ]
    for fam, f, out_n in cases:
        exact = _op(fam, mu, f, gamma, length)
        pts = alcovefn.sample_interior(out_n, 20, length, seed) if out_n else [()]
        worst = 0.0
        for x in pts:
            e = exact.eval(x)
            q = oracle.quad_apply(fam, mu, f, gamma, length, x)
            worst = max(worst, abs(e - q) / max(abs(e), 1.0))
        label = fam.replace("+", "p").replace("-", "m")
        records.append(
            _record(f"quadrature-crosscheck-{label}", f.n, gamma, length, worst, QUAD_TOL)
        )

    worst = 0.0
    pts = alcovefn.sample_interior(2, 10, length, seed)
    for j in (1, 2):
        exact = alcovefn.afn_derivative(f2, j)
        for x in pts:
            e = exact.eval(x)
            worst = max(worst, abs(oracle.fd_derivative(f2, j, x) - e) / max(abs(e), 1.0))
    records.append(
        _record("finite-difference-derivative", 2, gamma, length, worst, QUAD_TOL)
    )
    return records


SUITES: dict[str, Callable[[int, float, float, int], list[dict]]] = {
    "dAHA-axioms": suite_daha_axioms,
    "appendix-A": suite_appendix_a,
    "appendix-B": suite_appendix_b,
    "wavefunction-routes": suite_wavefunction_routes,
    "QNLS-eigen": suite_qnls_eigen,
    "ABA": suite_aba,
    "nonsymmetric-YBA": suite_nonsymmetric_yba,
    "Q-operator": suite_q_operator,
    "oracle-crosscheck": suite_oracle_crosscheck,
}


def run_suite(
    name: str, max_n: int = 3, gamma: float = 1.0, length: float = 10.0, seed: int = alcovefn.DEFAULT_SEED
) -> list[dict]:
    return SUITES[name](max_n, gamma, length, seed)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _suite_records(name: str, max_n: int, gamma: float, length: float, seed: int) -> list[dict]:
    """The suite's records, or one failing record naming the exception
    the suite raised; its traceback goes to stderr."""
    try:
        return run_suite(name, max_n, gamma, length, seed)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        return [
            {
                "identity_id": "suite-error",
                "n": max_n,
                "gamma": gamma,
                "length": length,
                "max_residual": None,
                "pass": False,
                "error": f"{type(exc).__name__}: {exc}",
            }
        ]


def _format_record(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True)


def _cmd_solve(args) -> int:
    if args.quantum_numbers is None:
        print("solve requires --quantum-numbers", file=sys.stderr)
        return EXIT_USAGE
    try:
        qn = bae.QuantumNumbers.from_values(
            [float(v) for v in args.quantum_numbers.split(",")]
        )
        if args.n is not None and qn.n != args.n:
            print(
                f"--n {args.n} does not match {qn.n} quantum numbers",
                file=sys.stderr,
            )
            return EXIT_USAGE
        r = bae.solve_bae(qn, args.gamma, args.length)
    except RuntimeError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    residual = max(abs(v) for v in bae.bae_residual(r.lam, r.gamma, r.length))
    text = bae.solution_to_json(r, residual, bae.solve_bae.last_iterations)
    _emit(text, args.out)
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    if args.lam is not None:
        lam = parse_complex_list(args.lam)
        if not lam:
            raise ValueError("--lambda needs at least one rapidity")
    elif args.quantum_numbers is not None:
        qn = bae.QuantumNumbers.from_values(
            [float(v) for v in args.quantum_numbers.split(",")]
        )
        try:
            lam = bae.solve_bae(qn, args.gamma, args.length).lam
        except RuntimeError as exc:
            print(f"solver did not converge: {exc}", file=sys.stderr)
            return EXIT_NO_CONVERGENCE
    else:
        print("eval requires --lambda or --quantum-numbers", file=sys.stderr)
        return EXIT_USAGE
    if args.n is not None and len(lam) != args.n:
        print(f"--n {args.n} does not match {len(lam)} rapidities", file=sys.stderr)
        return EXIT_USAGE
    r = RapiditySet(lam, args.gamma, args.length)
    if r.is_regular():
        psi = wavefn.prewavefunction(r)
        Psi = wavefn.bethe_wavefunction(r)
    elif args.allow_degenerate:
        psi = wavefn.prewavefunction_degenerate(r)
        Psi = alcovefn.symmetrize(psi)
    else:
        print(
            "degenerate rapidities; pass --allow-degenerate to evaluate the limit",
            file=sys.stderr,
        )
        return EXIT_USAGE
    n = r.n
    points = alcovefn.sample_interior(n, args.count, args.length, args.seed)
    lines = [
        f"# n={n}",
        f"# gamma={args.gamma!r}",
        f"# length={args.length!r}",
        f"# seed={args.seed}",
        "# lambda=" + ",".join(_fmt_complex(v) for v in lam),
        ",".join(
            [f"x{j}" for j in range(1, n + 1)]
            + ["re_pre", "im_pre", "re_sym", "im_sym"]
        ),
    ]
    for x in points:
        vp = psi.eval(x)
        vs = Psi.eval(x)
        lines.append(
            ",".join(
                [f"{c:.17g}" for c in x]
                + [f"{vp.real:.17g}", f"{vp.imag:.17g}", f"{vs.real:.17g}", f"{vs.imag:.17g}"]
            )
        )
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _fmt_complex(v: complex) -> str:
    return f"{v.real:.17g}{v.imag:+.17g}i"


def _max_n(args) -> int:
    """The effective max-n (--n wins over --max-n).  Below 2 several
    suites would check nothing and still read as a pass."""
    max_n = args.n if args.n is not None else args.max_n
    if max_n < 2:
        raise ValueError(f"max-n must be at least 2, got {max_n}")
    return max_n


def _cmd_verify(args) -> int:
    by_lower = {name.lower(): name for name in SUITES}
    if args.suite.lower() == "all":
        names = list(SUITES)
    elif args.suite.lower() in by_lower:
        names = [by_lower[args.suite.lower()]]
    else:
        print(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}", file=sys.stderr)
        return EXIT_USAGE
    max_n = _max_n(args)
    failed = False
    out_lines = []
    for name in names:
        for rec in _suite_records(name, max_n, args.gamma, args.length, args.seed):
            rec = dict(rec, suite=name)
            out_lines.append(_format_record(rec))
            failed = failed or not rec["pass"]
    _emit("\n".join(out_lines), args.out)
    return EXIT_IDENTITY_FAILURE if failed else EXIT_OK


def _cmd_report(args) -> int:
    max_n = _max_n(args)
    report = {"max_n": max_n, "gamma": args.gamma, "length": args.length, "seed": args.seed}
    suites = {}
    failed = False
    for name in SUITES:
        recs = _suite_records(name, max_n, args.gamma, args.length, args.seed)
        suites[name] = {
            "records": recs,
            "pass": all(rec["pass"] for rec in recs),
        }
        failed = failed or not suites[name]["pass"]
    report["suites"] = suites
    report["pass"] = not failed
    _emit(json.dumps(report, indent=2, sort_keys=True), args.out)
    return EXIT_IDENTITY_FAILURE if failed else EXIT_OK


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader is gone (say, `| head`); quiet the flush at exit too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


# add_argument keywords of each option, by long name
_OPTIONS: dict[str, dict] = {
    "n": dict(type=int),
    "gamma": dict(type=float, default=1.0),
    "length": dict(type=float, default=10.0),
    "seed": dict(type=int, default=alcovefn.DEFAULT_SEED),
    "out": {},
    "quantum-numbers": {},
    "lambda": dict(dest="lam", help="rapidities, i-suffix complex"),
    "count": dict(type=int, default=20, help="number of sample points"),
    "allow-degenerate": dict(action="store_true"),
    "suite": dict(default="all"),
    "max-n": dict(type=int, default=3),
}

# each subcommand: handler, help and the long names of its options
_COMMANDS = {
    "solve": (_cmd_solve, "solve the Bethe equations", "n gamma length out quantum-numbers"),
    "eval": (
        _cmd_eval,
        "tabulate wavefunction values as CSV",
        "n gamma length seed out quantum-numbers lambda count allow-degenerate",
    ),
    "verify": (_cmd_verify, "run one identity suite (or all)", "n gamma length seed out suite max-n"),
    "report": (
        _cmd_report, "run every suite and emit one JSON report", "n gamma length seed out max-n"
    ),
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and, by name, its subcommand parsers."""
    parser = argparse.ArgumentParser(
        prog="qnls",
        description="Exact construction and verification for the quantum "
        "nonlinear Schroedinger model on an interval.",
    )
    parser.add_argument("--config", help="key=value config file; flags override it")
    sub = parser.add_subparsers(dest="command")
    commands = {}
    for command, (_, text, names) in _COMMANDS.items():
        commands[command] = sub.add_parser(command, help=text)
        for name in names.split():
            commands[command].add_argument(f"--{name}", **_OPTIONS[name])
    return parser, commands


def _config_defaults(command: str, path: str) -> dict[str, str]:
    """The config file's values by option dest.  A key is a long option name
    of the command, in - or _ spelling; allow-degenerate is a flag only."""
    names = _COMMANDS[command][2].split()
    defaults = {}
    for key, value in load_config(path).items():
        name = key.replace("_", "-")
        if name not in names or name == "allow-degenerate":
            raise ValueError(f"{command} takes no option {key!r}")
        defaults[_OPTIONS[name].get("dest", name.replace("-", "_"))] = value
    return defaults


def _join_value_flags(argv: list[str]) -> list[str]:
    """Fuse flags with their (possibly leading-minus) values so argparse
    does not mistake '-0.5,0.5' for an option."""
    fused = ("--quantum-numbers", "--lambda", "--gamma", "--length")
    out = []
    skip = False
    for pos, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in fused and pos + 1 < len(argv):
            out.append(f"{token}={argv[pos + 1]}")
            skip = True
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser, commands = _build_parser()
    argv = _join_value_flags(list(sys.argv[1:] if argv is None else argv))
    try:
        args = parser.parse_args(argv)
        if args.command is not None and args.config:
            # config values become the defaults, so flags win and argparse
            # converts them with each option's own type
            commands[args.command].set_defaults(**_config_defaults(args.command, args.config))
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (OSError, ValueError) as exc:
        print(f"bad config file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command][0](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
