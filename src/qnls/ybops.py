"""Integral operators of the quantum inverse scattering method.

Symmetric generators A, B, C, D and their non-symmetric extensions a, b+,
b-, c+, c-, d act on piecewise exp-polynomial functions in closed form.
Every operator is a gamma-power sum of elementary nested-integral blocks.
A block is its chain of integration levels and the arguments it hands the
operand; its plane-wave prefactor follows from the levels.  One builder
makes the blocks of every kind and one weighted sum evaluates them all.

The engine works per output alcove.  Its geometry is made once per block
shape and alcove and kept (_GEOMETRY): the unit step factors resolve to 0
or 1 by the alcove ordering, and where all hold, each integration interval
splits at the output coordinates inside it; on each segment the order of
coordinates and y's is fixed, so the operand piece is known.  Each operand
term takes one step into the integrand (slots relabelled, the block's
plane wave added, the coefficient scaled by the block's weight and
boundary scalar); each integration turns a term into one per bound and
drops its y slot, the last one.  Where the operand's rapidities are
regular and away from mu, every term is a plane wave c e^{i mu y},
integrating to c / (i mu) e^{i mu y} at each bound: the steps run on bare
(wavevector, coefficient) rows with the float operations that exppoly's
general steps (_embed, _exp_antiderivative, _at_bound) make on a plane
wave, and exppoly.merge_rows merges an alcove's rows of every block at
once.  An
alcove where a term has a polynomial part, a y wavenumber below
SMALL_WAVENUMBER_TOL or NaN, or a zero coefficient at any step is built
term by term by exppoly's general steps and canonicalized.

Also here: the 4x4 R-matrix, the transfer matrix, the quantum determinant,
and the Q-operator built from Dunkl-type operators.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from . import alcovefn, exppoly
from .alcovefn import AlcoveFunction, dunkl
from .exppoly import Bound, ExpPolySum, ExpPolyTerm
from .symgroup import Permutation, all_permutations, identity

__all__ = [
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


# ---------------------------------------------------------------------------
# the nested-integral engine
#
# A plan is one elementary block with parameter mu on out_n coordinates:
#   levels   strictly decreasing chain of entities; integration variable y_m
#            lives on (levels[m], levels[m-1])
#   args     what each operand slot receives: a coordinate or a y
# Entities are ("coord", p), ("y", m), or ("const", +1/-1) for +/- L/2.
# Every block carries the plane wave exp(i mu (sum of levels - sum of y)),
# so its prefactor follows from the levels: the constant ones give the
# boundary scalar.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Plan:
    out_n: int
    mu: complex
    levels: tuple
    args: tuple


def _rank(entity, pos: dict, out_n: int) -> float:
    """Position in the descending order of the alcove; smaller = larger value."""
    if entity[0] == "const":
        return 0.0 if entity[1] > 0 else out_n + 1.0
    return float(pos[entity[1]])


def _bound(entity, length: float) -> Bound:
    if entity[0] == "const":
        return Bound.const(entity[1] * length / 2)
    return Bound.coord(entity[1])


# (out_n, levels, args, alcove) -> None where the chain does not decrease, else
# one (operand piece order, per-level (lower, upper) entities) per segment combination
_GEOMETRY: dict[tuple, list | None] = {}


def _geometry(plan: _Plan, sigma: Permutation) -> list | None:
    key = (plan.out_n, plan.levels, plan.args, sigma.images)
    if (geometry := _GEOMETRY.get(key, False)) is not False:
        return geometry
    pos = {p: t for t, p in enumerate(sigma.images, start=1)}
    ranks = [_rank(e, pos, plan.out_n) for e in plan.levels]
    geometry = None
    # the step factors demand the chain be strictly decreasing here
    if all(ranks[t] < ranks[t + 1] for t in range(len(ranks) - 1)):
        # split every interval at the output coordinates inside it: each
        # segment is (lower entity, upper entity, rank of its interior)
        per_interval = []
        for m in range(1, len(plan.levels)):
            inside = sorted((p for p in pos if ranks[m - 1] < pos[p] < ranks[m]), key=pos.__getitem__)
            chain = [plan.levels[m - 1], *(("coord", p) for p in inside), plan.levels[m]]
            ends = [_rank(e, pos, plan.out_n) for e in chain]
            per_interval.append([(chain[t + 1], chain[t], (ends[t] + ends[t + 1]) / 2) for t in range(len(chain) - 1)])
        geometry = []
        for combo in product(*per_interval):
            argrank = [float(pos[a[1]]) if a[0] == "coord" else combo[a[1] - 1][2] for a in plan.args]
            order = tuple(s + 1 for s in sorted(range(len(plan.args)), key=argrank.__getitem__))
            geometry.append((order, tuple((lower, upper) for lower, upper, _ in combo)))
    _GEOMETRY[key] = geometry
    return geometry


def _rows(blocks, f: AlcoveFunction, consts: dict) -> list | None:
    """The blocks' (wavevector, coefficient) rows on one alcove, equal to
    _terms' terms in order, or None where a term needs exppoly's general steps."""
    rows = []
    for (P, wave, scalar, slots), geometry in blocks:
        for order, bounds in geometry:
            # exppoly._embed of each operand term
            level = []
            for t in f._by_order[order].terms:
                if len(t.coeffs) != 1 or any(t.coeffs[0][0]) or not (c := t.coeffs[0][1] * scalar):
                    return None
                wv = wave.copy()
                for s, m in zip(slots, t.wavevector):
                    wv[s - 1] = wv[s - 1] + m if wv[s - 1] else m
                level.append((wv, c))
            # exppoly._exp_antiderivative, then _at_bound per bound, on a plane
            # wave, innermost y first; each y is the last slot, so dropping it
            # keeps the slots before it
            for j in range(P + len(bounds), P, -1):
                lower, upper = bounds[j - P - 1]
                step = []
                for wv, c in level:
                    muj = wv[j - 1]
                    if not abs(muj) >= exppoly.SMALL_WAVENUMBER_TOL or not (a := 0j + (1.0 * (1.0 / (1j * muj))) * c):
                        return None
                    for b, sign in ((upper, 1.0), (lower, -1.0)):
                        w = wv[: j - 1]
                        if b[0] == "coord":
                            w[b[1] - 1] += muj
                            value = 0j + sign * a
                        else:
                            value = 0j + a * (1.0 + 0j) * (sign * cmath.exp(1j * muj * consts[b[1]]))
                        if not value:
                            return None
                        step.append((w, value))
                level = step
            rows += level
    return rows


def _terms(blocks, f: AlcoveFunction, length: float) -> list[ExpPolyTerm]:
    """The blocks' terms on one alcove through exppoly's general steps."""
    terms = []
    for (P, wave, scalar, slots), geometry in blocks:
        for order, bounds in geometry:
            level = [exppoly._embed(t, slots, wave, scalar) for t in f._by_order[order].terms]
            for m in range(len(bounds), 0, -1):
                lower, upper = (_bound(e, length) for e in bounds[m - 1])
                level = [u for t in level for u in exppoly._integrate_term(t, P + m, lower, upper, P + m - 1)]
            terms += level
    return terms


def _prepare(weight: complex, plan: _Plan, length: float) -> tuple:
    """(out_n, plane wave on coordinates and y's, scalar, slot of each operand slot)."""
    P, mu, n_y = plan.out_n, plan.mu, len(plan.levels) - 1
    # the block's plane wave on the coordinates and the y's (slot P + m)
    wave = [0j] * (P + n_y)
    for e in plan.levels:
        if e[0] == "coord":
            wave[e[1] - 1] += mu
    for m in range(1, n_y + 1):
        wave[P + m - 1] += -mu
    # the constant levels: one of them is exp(-/+ i mu L/2); two cancel
    sign = -sum(e[1] for e in plan.levels if e[0] == "const")
    scalar = weight * (cmath.exp(-1j * sign * mu * length / 2) if sign else 1.0 + 0j)
    # the slot each operand slot takes: its coordinate, or its y
    return P, wave, scalar, [a[1] if a[0] == "coord" else P + a[1] for a in plan.args]


def _block_sum(
    blocks: list[tuple[complex, _Plan]], f: AlcoveFunction, sigmas, length: float
) -> dict[Permutation, ExpPolySum]:
    """The canonical sum over (weight, plan) blocks on each alcove in
    sigmas: the rows of every block merged, or where a row cannot be made,
    every block's terms canonicalized.  A block of weight 0 adds nothing."""
    prepared = [(plan, _prepare(weight, plan, length)) for weight, plan in blocks if weight]
    consts = {e: _bound(("const", e), length).value for e in (1, -1)}
    pieces = {}
    for sigma in sigmas:
        alcove = [(block, g) for plan, block in prepared if (g := _geometry(plan, sigma)) is not None]
        rows = _rows(alcove, f, consts)
        if rows is None:
            pieces[sigma] = exppoly.canonicalize(ExpPolySum(sigma.n, tuple(_terms(alcove, f, length))))
        else:
            pieces[sigma] = exppoly.merge_rows(sigma.n, rows)
    return pieces


_TOP, _BOTTOM = ("const", 1), ("const", -1)

# kind -> (output minus input particle number, levels above and below the
# indexed coordinates): the shapes hat, bar+, bar- and check
_SHAPES = {
    "e_hat+": (1, (), ()), "e_hat-": (1, (), ()), "E_hat": (1, (), ()),
    "e_bar+": (0, (), (_BOTTOM,)), "E_bar+": (0, (), (_BOTTOM,)),
    "e_bar-": (0, (_TOP,), ()), "E_bar-": (0, (_TOP,), ()),
    "e_check+": (-1, (_TOP,), (_BOTTOM,)), "e_check-": (-1, (_TOP,), (_BOTTOM,)),
    "E_check": (-1, (_TOP,), (_BOTTOM,)),
}


def _plan(kind: str, mu: complex, i: tuple[int, ...], N: int) -> _Plan:
    """The block of an elementary kind on N input particles."""
    if kind not in _SHAPES:
        raise ValueError(f"unknown elementary kind {kind!r}")
    dn, above, below = _SHAPES[kind]
    out_n = N + dn
    if out_n < 0:
        raise ValueError(f"{kind} needs at least {-dn} input particle")
    symmetric = kind[0] == "E"
    # e_hat+/- index the input coordinates, every other kind the output ones
    top = out_n if symmetric or dn < 1 else N
    if len(set(i)) != len(i):
        raise ValueError("multi-index entries must be distinct")
    if any(not (1 <= p <= top) for p in i):
        raise ValueError(f"multi-index entry out of range 1..{top}")
    if symmetric and list(i) != sorted(i):
        raise ValueError("multi-index must be strictly increasing")
    # e_hat+ creates coordinate 1 below the others, e_hat- coordinate N+1 above
    shift = 1 if kind == "e_hat+" else 0
    if kind == "e_hat+":
        below = (("coord", 1),)
    elif kind == "e_hat-":
        above = (("coord", out_n),)
    levels = (*above, *(("coord", p + shift) for p in i), *below)
    ys = [("y", m) for m in range(1, len(levels))]
    if symmetric:
        # the remaining coordinates, then the y's
        args = (*(("coord", r) for r in range(1, out_n + 1) if r not in i), *ys)
        return _Plan(out_n, mu, levels, args)
    # slot r takes the y of its index, if it has one; e_check+ hands the top
    # y to one more slot at the end, e_check- the bottom y to one at the front
    own = ys[1:] if kind == "e_check+" else ys
    args = tuple(
        own[i.index(r)] if r in i else ("coord", r + shift) for r in range(1, top + 1)
    )
    if kind == "e_check+":
        args = (*args, ys[0])
    elif kind == "e_check-":
        args = (ys[-1], *args)
    return _Plan(out_n, mu, levels, args)


def _nonsymmetric_sum(blocks, f: AlcoveFunction, length: float) -> AlcoveFunction:
    out_n = blocks[0][1].out_n
    pieces = _block_sum(blocks, f, all_permutations(out_n), length)
    return AlcoveFunction(out_n, pieces, continuous=False)


def elementary_nonsymmetric_op(
    kind: str, mu: complex, i: tuple[int, ...], f: AlcoveFunction, length: float
) -> AlcoveFunction:
    """One elementary block (kinds e_hat+/-, e_bar+/-, e_check+/-)."""
    if f.n > PARTICLE_CAP:
        raise ValueError(f"exact application capped at {PARTICLE_CAP} particles")
    if not kind.startswith("e_"):
        raise ValueError(f"unknown elementary kind {kind!r}")
    return _nonsymmetric_sum([(1.0, _plan(kind, mu, tuple(i), f.n))], f, length)


def apply_nonsymmetric(
    family: str, mu: complex, f: AlcoveFunction, gamma: float, length: float
) -> AlcoveFunction:
    """The non-symmetric generators a, b+, b-, c+, c-, d."""
    if f.n > PARTICLE_CAP:
        raise ValueError(f"exact application capped at {PARTICLE_CAP} particles")
    N = f.n
    # family -> its elementary kind and index range; the weight is gamma^n
    # on n indices
    sums = {
        "b+": ("e_hat+", N), "b-": ("e_hat-", N), "a": ("e_bar+", N), "d": ("e_bar-", N),
        "c+": ("e_check+", N - 1), "c-": ("e_check-", N - 1),
    }
    if family not in sums:
        raise ValueError(f"unknown family {family!r}")
    if family in ("c+", "c-") and N == 0:
        # annihilating the vacuum gives zero; keep the empty-variable space
        return alcovefn.zero_function(0)
    kind, top = sums[family]
    blocks = [
        (gamma**n, _plan(kind, mu, i, N))
        for n in range(top + 1)
        for i in permutations(range(1, top + 1), n)
    ]
    return _nonsymmetric_sum(blocks, f, length)


def apply_symmetric(
    family: str, mu: complex, F: AlcoveFunction, gamma: float, length: float
) -> AlcoveFunction:
    """The symmetric generators A, B, C, D on symmetric input."""
    if F.n > PARTICLE_CAP:
        raise ValueError(f"exact application capped at {PARTICLE_CAP} particles")
    N = F.n
    # family -> its elementary kind, index range, extra indices over the
    # gamma power n, and scalar; the weight is gamma^n times the scalar
    sums = {
        "A": ("E_bar+", N, 0, 1.0),
        "B": ("E_hat", N + 1, 1, 1.0 / (N + 1)),
        "C": ("E_check", N - 1, 0, float(N)),
        "D": ("E_bar-", N, 0, 1.0),
    }
    if family not in sums:
        raise ValueError(f"unknown family {family!r}")
    if family == "C" and N == 0:
        # annihilating the vacuum gives zero; keep the empty-variable space
        return alcovefn.zero_function(0)
    kind, top, extra, scalar = sums[family]
    blocks = [
        (gamma**n * scalar, _plan(kind, mu, i, N))
        for n in range(top - extra + 1)
        for i in combinations(range(1, top + 1), n + extra)
    ]
    sigma = identity(blocks[0][1].out_n)
    piece = _block_sum(blocks, F, [sigma], length)[sigma]
    return alcovefn.extend_symmetric(piece, continuous=False)


# ---------------------------------------------------------------------------
# boundary insertions
# ---------------------------------------------------------------------------


def _pin_last(p: ExpPolySum, value: float) -> ExpPolySum:
    """p with its last slot set to value and dropped."""
    n = p.n - 1
    return ExpPolySum(n, tuple(exppoly._at_bound(t, p.n, Bound.const(value), n) for t in p.terms))


def insert_top(G: AlcoveFunction, length: float) -> AlcoveFunction:
    """(x_1..x_{M-1}) -> G(x_1..x_{M-1}, L/2): pin the last slot at the top."""
    M = G.n
    pieces = {}
    for sigma in all_permutations(M - 1):
        ext = Permutation((M, *sigma.images))
        pieces[sigma] = _pin_last(G.pieces[ext], length / 2)
    return AlcoveFunction(M - 1, pieces, continuous=G.continuous)


def insert_bottom(G: AlcoveFunction, length: float) -> AlcoveFunction:
    """(x_1..x_{M-1}) -> G(-L/2, x_1..x_{M-1}): pin the first slot at the bottom."""
    M = G.n
    # slot 1 moves to the end, slot m to m - 1
    rotate = Permutation((M, *range(1, M)))
    pieces = {}
    for sigma in all_permutations(M - 1):
        ext = Permutation((*(s + 1 for s in sigma.images), 1))
        pieces[sigma] = _pin_last(alcovefn.act_analytic(rotate, G.pieces[ext]), -length / 2)
    return AlcoveFunction(M - 1, pieces, continuous=G.continuous)


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
