"""Integral operators of the quantum inverse scattering method.

Symmetric generators A, B, C, D and their non-symmetric extensions a, b+,
b-, c+, c-, d act on piecewise exp-polynomial functions in closed form.
Every operator is a gamma-power sum of elementary nested-integral blocks;
one engine evaluates all of them.

The engine works per output alcove: each unit step factor is resolved to
0 or 1 by the alcove ordering, each integration interval is split at the
output coordinates lying inside it, and on every resulting segment the
total order of coordinates and integration variables is fixed, so the
correct piece of the operand can be pulled back and integrated exactly.

Also here: the 4x4 R-matrix, the transfer matrix, the quantum determinant,
and the Q-operator built from Dunkl-type operators.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import combinations, permutations as _perm_tuples, product

import numpy as np

from . import alcovefn, exppoly
from .alcovefn import AlcoveFunction, dunkl
from .exppoly import Bound, ExpPolySum
from .symgroup import Permutation, all_permutations, identity

__all__ = [
    "multi_indices",
    "ordered_multi_indices",
    "elementary_symmetric_op",
    "elementary_nonsymmetric_op",
    "apply_symmetric",
    "apply_nonsymmetric",
    "insert_top",
    "insert_bottom",
    "rmatrix",
    "ybe_check",
    "transfer",
    "qdet",
    "q_operator_scalar",
    "q_operator_apply",
    "PARTICLE_CAP",
]

# exact application is refused above this many input particles; the output
# would carry (N+1)! alcove pieces
PARTICLE_CAP = 4


def multi_indices(n: int, N: int) -> list[tuple[int, ...]]:
    """All tuples of n distinct indices from 1..N, order significant."""
    return list(_perm_tuples(range(1, N + 1), n))


def ordered_multi_indices(n: int, N: int) -> list[tuple[int, ...]]:
    """All strictly increasing n-tuples from 1..N."""
    return list(combinations(range(1, N + 1), n))


# ---------------------------------------------------------------------------
# the nested-integral engine
#
# A plan describes one elementary block:
#   levels   strictly decreasing chain of entities; integration variable y_m
#            lives on (levels[m], levels[m-1])
#   phase    plane-wave exponent: (coordinate-or-y, coefficient) pairs
#   args     what each operand slot receives: a coordinate or a y
#   scalar   constant prefactor
# Entities are ("coord", p) or ("const", +1/-1) for +/- L/2.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Plan:
    out_n: int
    levels: tuple
    phase: tuple
    args: tuple
    scalar: complex = 1.0 + 0j


def _rank(entity, pos: dict, out_n: int) -> float:
    """Position in the descending order of the alcove; smaller = larger value."""
    if entity[0] == "const":
        return 0.0 if entity[1] > 0 else out_n + 1.0
    return float(pos[entity[1]])


def _bound(entity, length: float) -> Bound:
    if entity[0] == "const":
        return Bound.const(entity[1] * length / 2)
    return Bound.coord(entity[1])


def _plan_piece(
    plan: _Plan, f: AlcoveFunction, sigma: Permutation, length: float
) -> ExpPolySum:
    """The plan's contribution on the output alcove labeled sigma."""
    P = plan.out_n
    pos = {p: t for t, p in enumerate(sigma.images, start=1)}
    ranks = [_rank(e, pos, P) for e in plan.levels]
    # the step factors demand the chain be strictly decreasing here
    if any(ranks[t] >= ranks[t + 1] for t in range(len(ranks) - 1)):
        return exppoly.zero(P)
    n_y = len(plan.levels) - 1
    ext_n = P + n_y

    wv = [0j] * ext_n
    for target, coeff in plan.phase:
        if target[0] == "coord":
            wv[target[1] - 1] += coeff
        else:
            wv[P + target[1] - 1] += coeff
    prefwave = exppoly.scale(plan.scalar, exppoly.plane_wave(wv))

    # split every interval at the output coordinates inside it
    per_interval = []
    for m in range(1, n_y + 1):
        upper, lower = plan.levels[m - 1], plan.levels[m]
        ru, rl = ranks[m - 1], ranks[m]
        interior = sorted(
            (("coord", p) for p in range(1, P + 1) if ru < pos[p] < rl),
            key=lambda e: pos[e[1]],
        )
        chain = [upper, *interior, lower]
        per_interval.append(
            [
                (chain[t + 1], chain[t], (_rank(chain[t], pos, P) + _rank(chain[t + 1], pos, P)) / 2)
                for t in range(len(chain) - 1)
            ]
        )

    total = exppoly.zero(ext_n)
    for combo in product(*per_interval):
        argrank = []
        for a in plan.args:
            if a[0] == "coord":
                argrank.append(float(pos[a[1]]))
            else:
                argrank.append(combo[a[1] - 1][2])
        order = sorted(range(len(plan.args)), key=lambda s: argrank[s])
        tau = Permutation(tuple(s + 1 for s in order))
        piece = f.pieces[tau]
        rows = {}
        for r, a in enumerate(plan.args, start=1):
            slot = a[1] if a[0] == "coord" else P + a[1]
            rows[r] = ({slot: 1.0 + 0j}, 0j)
        g = exppoly.pullback(piece, rows, ext_n)
        g = exppoly.mul(g, prefwave)
        for m in range(n_y, 0, -1):
            lo, hi = combo[m - 1][0], combo[m - 1][1]
            g = exppoly.integrate(g, P + m, _bound(lo, length), _bound(hi, length))
        total = total + g
    return exppoly.remap(
        exppoly.canonicalize(total), {p: p for p in range(1, P + 1)}, P
    )


# ---------------------------------------------------------------------------
# plans for the elementary blocks
# ---------------------------------------------------------------------------


def _C(p: int):  # noqa: N802 - terse entity constructors keep plans readable
    return ("coord", p)


def _Y(m: int):  # noqa: N802
    return ("y", m)


def _check_index(i: tuple[int, ...], N: int, ordered: bool) -> None:
    if len(set(i)) != len(i):
        raise ValueError("multi-index entries must be distinct")
    if any(not (1 <= p <= N) for p in i):
        raise ValueError(f"multi-index entry out of range 1..{N}")
    if ordered and list(i) != sorted(i):
        raise ValueError("multi-index must be strictly increasing")


def _nonsymmetric_plan(
    kind: str, mu: complex, i: tuple[int, ...], N: int, length: float
) -> _Plan:
    """N is the input particle number."""
    k = len(i)
    ys_minus = [(_Y(m), -mu) for m in range(1, k + 1)]
    if kind == "e_hat-":
        _check_index(i, N, ordered=False)
        return _Plan(
            out_n=N + 1,
            levels=(_C(N + 1), *(_C(p) for p in i)),
            phase=((_C(N + 1), mu), *((_C(p), mu) for p in i), *ys_minus),
            args=tuple(
                _Y(i.index(r) + 1) if r in i else _C(r) for r in range(1, N + 1)
            ),
        )
    if kind == "e_hat+":
        _check_index(i, N, ordered=False)
        return _Plan(
            out_n=N + 1,
            levels=(*(_C(p + 1) for p in i), _C(1)),
            phase=((_C(1), mu), *((_C(p + 1), mu) for p in i), *ys_minus),
            args=tuple(
                _Y(i.index(r) + 1) if r in i else _C(r + 1) for r in range(1, N + 1)
            ),
        )
    if kind in ("e_bar+", "e_bar-"):
        _check_index(i, N, ordered=False)
        sign = 1 if kind.endswith("+") else -1
        levels = (
            (*(_C(p) for p in i), ("const", -1))
            if sign > 0
            else (("const", 1), *(_C(p) for p in i))
        )
        return _Plan(
            out_n=N,
            levels=levels,
            phase=(*((_C(p), mu) for p in i), *ys_minus),
            args=tuple(
                _Y(i.index(r) + 1) if r in i else _C(r) for r in range(1, N + 1)
            ),
            scalar=cmath.exp(-1j * sign * mu * length / 2),
        )
    if kind in ("e_check+", "e_check-"):
        # input has N particles, output N-1; indices live in 1..N-1
        out_n = N - 1
        _check_index(i, out_n, ordered=False)
        levels = (("const", 1), *(_C(p) for p in i), ("const", -1))
        ys = [(_Y(m), -mu) for m in range(1, k + 2)]
        if kind == "e_check+":
            args = tuple(
                _Y(i.index(r) + 2) if r in i else _C(r) for r in range(1, out_n + 1)
            ) + (_Y(1),)
        else:
            args = (_Y(k + 1),) + tuple(
                _Y(i.index(r) + 1) if r in i else _C(r) for r in range(1, out_n + 1)
            )
        return _Plan(
            out_n=out_n,
            levels=levels,
            phase=(*((_C(p), mu) for p in i), *ys),
            args=args,
        )
    raise ValueError(f"unknown elementary kind {kind!r}")


def _symmetric_plan(
    kind: str, mu: complex, i: tuple[int, ...], N: int, length: float
) -> _Plan:
    """N is the input particle number; i is strictly increasing."""
    k = len(i)
    if kind == "E_hat":
        # i has n+1 entries in 1..N+1 and there are n integrals
        _check_index(i, N + 1, ordered=True)
        rest = [r for r in range(1, N + 2) if r not in i]
        return _Plan(
            out_n=N + 1,
            levels=tuple(_C(p) for p in i),
            phase=(
                *((_C(p), mu) for p in i),
                *((_Y(m), -mu) for m in range(1, k)),
            ),
            args=tuple(_C(r) for r in rest) + tuple(_Y(m) for m in range(1, k)),
        )
    if kind in ("E_bar+", "E_bar-"):
        _check_index(i, N, ordered=True)
        sign = 1 if kind.endswith("+") else -1
        rest = [r for r in range(1, N + 1) if r not in i]
        levels = (
            (*(_C(p) for p in i), ("const", -1))
            if sign > 0
            else (("const", 1), *(_C(p) for p in i))
        )
        return _Plan(
            out_n=N,
            levels=levels,
            phase=(
                *((_C(p), mu) for p in i),
                *((_Y(m), -mu) for m in range(1, k + 1)),
            ),
            args=tuple(_C(r) for r in rest) + tuple(_Y(m) for m in range(1, k + 1)),
            scalar=cmath.exp(-1j * sign * mu * length / 2),
        )
    if kind == "E_check":
        # input N, output N-1; indices in 1..N-1, k+1 integrals
        out_n = N - 1
        _check_index(i, out_n, ordered=True)
        rest = [r for r in range(1, out_n + 1) if r not in i]
        return _Plan(
            out_n=out_n,
            levels=(("const", 1), *(_C(p) for p in i), ("const", -1)),
            phase=(
                *((_C(p), mu) for p in i),
                *((_Y(m), -mu) for m in range(1, k + 2)),
            ),
            args=tuple(_C(r) for r in rest) + tuple(_Y(m) for m in range(1, k + 2)),
        )
    raise ValueError(f"unknown elementary kind {kind!r}")


def elementary_nonsymmetric_op(
    kind: str, mu: complex, i: tuple[int, ...], f: AlcoveFunction, length: float
) -> AlcoveFunction:
    """One elementary block (kinds e_hat+/-, e_bar+/-, e_check+/-)."""
    if f.n > PARTICLE_CAP:
        raise ValueError(f"exact application capped at {PARTICLE_CAP} particles")
    plan = _nonsymmetric_plan(kind, mu, tuple(i), f.n, length)
    pieces = {
        sigma: _plan_piece(plan, f, sigma, length)
        for sigma in all_permutations(plan.out_n)
    }
    return AlcoveFunction(plan.out_n, pieces, continuous=False)


def elementary_symmetric_op(
    kind: str, mu: complex, i: tuple[int, ...], F: AlcoveFunction, length: float
) -> AlcoveFunction:
    """One elementary block on symmetric input (kinds E_hat, E_bar+/-, E_check)."""
    if F.n > PARTICLE_CAP:
        raise ValueError(f"exact application capped at {PARTICLE_CAP} particles")
    plan = _symmetric_plan(kind, mu, tuple(i), F.n, length)
    piece0 = _plan_piece(plan, F, identity(plan.out_n), length)
    return alcovefn.extend_symmetric(piece0, continuous=False)


def apply_nonsymmetric(
    family: str,
    mu: complex,
    f: AlcoveFunction,
    gamma: float,
    length: float,
    method: str = "product",
) -> AlcoveFunction:
    """The non-symmetric generators a, b+, b-, c+, c-, d.

    By default a and d come from boundary substitution of b+ and b-, and
    c+ and c- from commutators with the boundary insertions; method
    "direct" evaluates their own nested-integral definitions instead.
    """
    if f.n > PARTICLE_CAP:
        raise ValueError(f"exact application capped at {PARTICLE_CAP} particles")
    if family in ("b+", "b-"):
        kind = "e_hat+" if family == "b+" else "e_hat-"
        return _gamma_sum(kind, mu, f, gamma, length, f.n)
    if family in ("a", "d"):
        if method == "direct":
            kind = "e_bar+" if family == "a" else "e_bar-"
            return _gamma_sum(kind, mu, f, gamma, length, f.n)
        if family == "a":
            return insert_bottom(
                apply_nonsymmetric("b+", mu, f, gamma, length), length
            )
        return insert_top(apply_nonsymmetric("b-", mu, f, gamma, length), length)
    if family in ("c+", "c-"):
        if f.n == 0:
            # annihilating the vacuum gives zero; keep the empty-variable space
            return alcovefn.zero_function(0)
        if method == "direct" or gamma == 0:
            kind = "e_check+" if family == "c+" else "e_check-"
            return _gamma_sum(kind, mu, f, gamma, length, f.n - 1)
        if family == "c+":
            lhs = insert_top(apply_nonsymmetric("a", mu, f, gamma, length), length)
            rhs = apply_nonsymmetric(
                "a", mu, insert_top(f, length), gamma, length
            )
        else:
            lhs = insert_bottom(
                apply_nonsymmetric("d", mu, f, gamma, length), length
            )
            rhs = apply_nonsymmetric(
                "d", mu, insert_bottom(f, length), gamma, length
            )
        return alcovefn.afn_scale(1.0 / gamma, alcovefn.afn_add(lhs, alcovefn.afn_scale(-1.0, rhs)))
    raise ValueError(f"unknown family {family!r}")


def _gamma_sum(
    kind: str, mu: complex, f: AlcoveFunction, gamma: float, length: float, idx_n: int
) -> AlcoveFunction:
    """Sum gamma^n over all distinct multi-indices of the elementary kind."""
    plans = []
    for n in range(idx_n + 1):
        for i in multi_indices(n, idx_n):
            plans.append((gamma**n, _nonsymmetric_plan(kind, mu, i, f.n, length)))
    out_n = plans[0][1].out_n
    pieces = {}
    for sigma in all_permutations(out_n):
        acc = exppoly.zero(out_n)
        for weight, plan in plans:
            acc = acc + exppoly.scale(weight, _plan_piece(plan, f, sigma, length))
        pieces[sigma] = exppoly.canonicalize(acc)
    return AlcoveFunction(out_n, pieces, continuous=False)


def apply_symmetric(
    family: str, mu: complex, F: AlcoveFunction, gamma: float, length: float
) -> AlcoveFunction:
    """The symmetric generators A, B, C, D on symmetric input."""
    if F.n > PARTICLE_CAP:
        raise ValueError(f"exact application capped at {PARTICLE_CAP} particles")
    N = F.n
    plans: list[tuple[complex, _Plan]] = []
    scalar = 1.0 + 0j
    if family in ("A", "D"):
        kind = "E_bar+" if family == "A" else "E_bar-"
        for n in range(N + 1):
            for i in ordered_multi_indices(n, N):
                plans.append((gamma**n, _symmetric_plan(kind, mu, i, N, length)))
    elif family == "B":
        scalar = 1.0 / (N + 1)
        for n in range(N + 1):
            for i in ordered_multi_indices(n + 1, N + 1):
                plans.append((gamma**n, _symmetric_plan("E_hat", mu, i, N, length)))
    elif family == "C":
        if N == 0:
            # annihilating the vacuum gives zero; keep the empty-variable space
            return alcovefn.zero_function(0)
        # input has N particles, output N-1
        out_n = N - 1
        scalar = float(N)
        for n in range(out_n + 1):
            for i in ordered_multi_indices(n, out_n):
                plans.append((gamma**n, _symmetric_plan("E_check", mu, i, N, length)))
    else:
        raise ValueError(f"unknown family {family!r}")
    out_n = plans[0][1].out_n
    acc = exppoly.zero(out_n)
    for weight, plan in plans:
        acc = acc + exppoly.scale(
            weight * scalar, _plan_piece(plan, F, identity(out_n), length)
        )
    return alcovefn.extend_symmetric(exppoly.canonicalize(acc), continuous=False)


# ---------------------------------------------------------------------------
# boundary insertions
# ---------------------------------------------------------------------------


def insert_top(G: AlcoveFunction, length: float) -> AlcoveFunction:
    """(x_1..x_{M-1}) -> G(x_1..x_{M-1}, L/2): pin the last slot at the top."""
    M = G.n
    out_n = M - 1
    pieces = {}
    for sigma in all_permutations(out_n):
        ext = Permutation((M, *sigma.images))
        p = exppoly.substitute(G.pieces[ext], M, Bound.const(length / 2))
        pieces[sigma] = exppoly.remap(p, {m: m for m in range(1, out_n + 1)}, out_n)
    return AlcoveFunction(out_n, pieces, continuous=G.continuous)


def insert_bottom(G: AlcoveFunction, length: float) -> AlcoveFunction:
    """(x_1..x_{M-1}) -> G(-L/2, x_1..x_{M-1}): pin the first slot at the bottom."""
    M = G.n
    out_n = M - 1
    pieces = {}
    for sigma in all_permutations(out_n):
        ext = Permutation((*(s + 1 for s in sigma.images), 1))
        p = exppoly.substitute(G.pieces[ext], 1, Bound.const(-length / 2))
        pieces[sigma] = exppoly.remap(
            p, {m + 1: m for m in range(1, out_n + 1)}, out_n
        )
    return AlcoveFunction(out_n, pieces, continuous=G.continuous)


# ---------------------------------------------------------------------------
# R-matrix, transfer matrix, quantum determinant, Q-operator
# ---------------------------------------------------------------------------

_PERM4 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def rmatrix(lam: complex, gamma: float) -> np.ndarray:
    """R_lam = I - (i gamma / lam) P on C^2 (x) C^2."""
    if lam == 0:
        raise ValueError("zero spectral parameter")
    return np.eye(4, dtype=complex) - (1j * gamma / lam) * _PERM4


def _embed(R4: np.ndarray, a: int, b: int) -> np.ndarray:
    """Lift a two-site operator to sites (a, b) of C^2 x C^2 x C^2."""
    out = np.zeros((8, 8), dtype=complex)
    for row in range(8):
        for col in range(8):
            rbits = [(row >> s) & 1 for s in (2, 1, 0)]
            cbits = [(col >> s) & 1 for s in (2, 1, 0)]
            spectator = [s for s in range(3) if s not in (a, b)][0]
            if rbits[spectator] != cbits[spectator]:
                continue
            r2 = 2 * rbits[a] + rbits[b]
            c2 = 2 * cbits[a] + cbits[b]
            out[row, col] = R4[r2, c2]
    return out


def ybe_check(lam: complex, mu: complex, gamma: float) -> float:
    """Max-norm residual of R12(l-m) R13(l) R23(m) = R23(m) R13(l) R12(l-m)."""
    if lam == 0 or mu == 0 or lam == mu:
        raise ValueError("spectral parameters must be nonzero and distinct")
    r12 = _embed(rmatrix(lam - mu, gamma), 0, 1)
    r13 = _embed(rmatrix(lam, gamma), 0, 2)
    r23 = _embed(rmatrix(mu, gamma), 1, 2)
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    return float(np.max(np.abs(lhs - rhs)))


def transfer(
    mu: complex, F: AlcoveFunction, gamma: float, length: float
) -> AlcoveFunction:
    """T_mu = A_mu + D_mu."""
    return alcovefn.afn_add(
        apply_symmetric("A", mu, F, gamma, length),
        apply_symmetric("D", mu, F, gamma, length),
    )


def qdet(
    mu: complex, F: AlcoveFunction, gamma: float, length: float
) -> AlcoveFunction:
    """Quantum determinant A_{mu-} D_{mu+} - gamma B_{mu-} C_{mu+}
    with mu-/+ = mu -/+ i gamma/2."""
    mu_plus = mu - 1j * gamma / 2
    mu_minus = mu + 1j * gamma / 2
    ad = apply_symmetric(
        "A", mu_plus, apply_symmetric("D", mu_minus, F, gamma, length), gamma, length
    )
    if F.n == 0:
        return ad
    bc = apply_symmetric(
        "B", mu_plus, apply_symmetric("C", mu_minus, F, gamma, length), gamma, length
    )
    return alcovefn.afn_add(ad, alcovefn.afn_scale(-gamma, bc))


def q_operator_scalar(mu: complex, lam: tuple[complex, ...]) -> complex:
    """The Q-operator eigenvalue prod_j (lambda_j - mu)."""
    out = 1.0 + 0j
    for lj in lam:
        out *= lj - mu
    return out


def q_operator_apply(F: AlcoveFunction, mu: complex, gamma: float) -> AlcoveFunction:
    """Q_mu = prod_j (-i d_{j,gamma} - mu) built from Dunkl-type operators."""
    out = F
    for j in range(1, F.n + 1):
        out = alcovefn.afn_add(
            alcovefn.afn_scale(-1j, dunkl(out, j, gamma)),
            alcovefn.afn_scale(-mu, out),
        )
    return out
