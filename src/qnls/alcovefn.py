"""Piecewise-analytic functions on the braid arrangement {x_j = x_k}.

An AlcoveFunction stores one exp-polynomial piece per alcove.  Alcoves are
labeled by the ordering permutation sigma, meaning x_{sigma(1)} > ... >
x_{sigma(N)}; the alcove labeled sigma is w^{-1} R^N_+ with w = sigma^{-1},
and the fundamental alcove (x_1 > ... > x_N) is labeled by the identity.

This module hosts the position action of S_N, the symmetrizer, the
Dunkl-type operators, the reflection integral I_jk, the deformed position
transpositions, the propagation operator, and the wall-jump checkers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import exppoly
from .exppoly import Bound, ExpPolySum
from .symgroup import Permutation, all_permutations, compose, reduced_word, simple, transposition

__all__ = [
    "AlcoveFunction",
    "WallSample",
    "from_analytic",
    "zero_function",
    "build",
    "extend_symmetric",
    "act_position",
    "symmetrize",
    "wall_jump",
    "dunkl",
    "reflection_integral",
    "deformed_transposition_position",
    "act_analytic",
    "propagation",
    "afn_add",
    "afn_scale",
    "afn_derivative",
    "require_room",
    "sample_interior",
    "sample_wall",
    "check_continuity",
    "worst_residual",
    "to_json",
    "from_json",
    "DEFAULT_SEED",
    "WALL_GAP_FLOOR",
]

DEFAULT_SEED = 0x5EED
# remaining coordinates of a wall sample keep at least this gap
WALL_GAP_FLOOR = 1e-6
# wall-limit agreement threshold for the continuity flag, and the wall
# samples it is checked at
CONTINUITY_TOL = 1e-9
CONTINUITY_SAMPLES = 10


@dataclass(frozen=True)
class AlcoveFunction:
    """N! exp-polynomial pieces indexed by the ordering permutation."""

    n: int
    pieces: Mapping[Permutation, ExpPolySum]
    continuous: bool = False

    def __post_init__(self) -> None:
        perms = all_permutations(self.n)
        if set(self.pieces) != set(perms):
            raise ValueError(f"expected {len(perms)} pieces for N={self.n}")
        # eval finds a piece by its ordering tuple, building no Permutation
        object.__setattr__(self, "_by_order", {s.images: p for s, p in self.pieces.items()})

    def eval(self, x: Iterable[float], side: Permutation | None = None) -> complex:
        """Value at x, using the piece whose ordering x satisfies.

        On a wall (tied coordinates) a side must be given unless the
        continuity flag is set.
        """
        xv = tuple(x)
        if len(xv) != self.n:
            raise ValueError("dimension mismatch")
        if side is not None:
            return self._side(side)._value(xv)
        order = _order(xv)
        # the tie flag matters only where the pieces may disagree on a wall
        if not self.continuous and _tied(xv, order):
            raise ValueError("point lies on a wall of a discontinuous function")
        return self._by_order[order]._value(xv)

    def eval_many(self, points, side: Permutation | None = None) -> np.ndarray:
        """Values at the rows of the real array points (count x n), each
        taken as eval takes it, walls included.

        One piece serves the batch when every row is strictly ordered as
        the first row is; otherwise each row's ordering is read as one
        integer (its images in base n) and the rows are grouped by it.
        """
        X = np.asarray(points, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError("dimension mismatch")
        if side is not None:
            return self._side(side).eval_many(X)
        if not self.continuous:
            ranked = np.sort(X, axis=1)
            if (ranked[:, 1:] == ranked[:, :-1]).any():
                raise ValueError("point lies on a wall of a discontinuous function")
        if not len(X):
            return np.empty(0, dtype=complex)
        # a stable sort breaks ties by index, as ordering_permutation does
        first = np.argsort(-X[0], kind="stable")
        lined = X[:, first]
        if (lined[:, :-1] > lined[:, 1:]).all():
            return self._by_order[tuple((first + 1).tolist())].eval_many(X)
        order = np.argsort(-X, axis=1, kind="stable")
        _, heads, group = np.unique(
            order @ self.n ** np.arange(self.n), return_index=True, return_inverse=True
        )
        out = np.empty(len(X), dtype=complex)
        for g, head in enumerate(heads):
            rows = group == g
            out[rows] = self._by_order[tuple((order[head] + 1).tolist())].eval_many(X[rows])
        return out

    def _side(self, side: Permutation) -> ExpPolySum:
        if side.n != self.n:
            raise ValueError(f"size mismatch: side of S_{side.n} for N={self.n}")
        return self.pieces[side]


@dataclass(frozen=True)
class WallSample:
    """A base point on the wall V_jk = {x_j = x_k} with regular companions."""

    j: int
    k: int
    x: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.x[self.j - 1] != self.x[self.k - 1]:
            raise ValueError("sample not on the wall")


def _order(x: tuple) -> tuple[int, ...]:
    """The images of ordering_permutation(x): 1..n sorted by the keys
    -x_j.real, read from one list (slot 0 unused)."""
    keys = [0.0] + [-v.real for v in x]
    return tuple(sorted(range(1, len(x) + 1), key=keys.__getitem__))


def _tied(x: tuple, order: tuple[int, ...]) -> bool:
    """Whether x has two equal coordinates, given its order."""
    return any(x[a - 1] == x[b - 1] for a, b in zip(order, order[1:]))


def _ordering(x: tuple) -> tuple[tuple[int, ...], bool]:
    """The images of ordering_permutation(x) and its tie flag."""
    order = _order(x)
    return order, _tied(x, order)


def ordering_permutation(x: tuple) -> tuple[Permutation, bool]:
    """Sigma with x_{sigma(1)} >= ... >= x_{sigma(N)}, ties broken by index
    and complex coordinates ordered by real part, and a tie flag."""
    order, tied = _ordering(x)
    return Permutation(order), tied


def from_analytic(f: ExpPolySum) -> AlcoveFunction:
    """The globally analytic function f, viewed piecewise."""
    return AlcoveFunction(f.n, {s: f for s in all_permutations(f.n)}, continuous=True)


def zero_function(n: int) -> AlcoveFunction:
    return from_analytic(exppoly.zero(n))


def build(pieces: Mapping[Permutation, ExpPolySum], continuous: bool = False) -> AlcoveFunction:
    if not pieces:
        raise ValueError("an alcove function needs its pieces")
    n = next(iter(pieces)).n
    return AlcoveFunction(n, dict(pieces), continuous)


def afn_add(f: AlcoveFunction, g: AlcoveFunction) -> AlcoveFunction:
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    return AlcoveFunction(
        f.n,
        {s: f.pieces[s] + g.pieces[s] for s in f.pieces},
        continuous=f.continuous and g.continuous,
    )


def afn_scale(c: complex, f: AlcoveFunction) -> AlcoveFunction:
    return AlcoveFunction(
        f.n, {s: exppoly.scale(c, p) for s, p in f.pieces.items()}, f.continuous
    )


def afn_derivative(f: AlcoveFunction, j: int) -> AlcoveFunction:
    """Piecewise d/dx_j (one-sided on walls)."""
    return AlcoveFunction(
        f.n, {s: exppoly.derivative(p, j) for s, p in f.pieces.items()}, False
    )


def act_analytic(w: Permutation, f: ExpPolySum) -> ExpPolySum:
    """(w f)(x) = f(w^{-1} x) for analytic f: slot m is relabeled to w(m)."""
    if w.n != f.n:
        raise ValueError("size mismatch")
    return exppoly._relabel(f, [w.images])[0]


def extend_symmetric(piece: ExpPolySum, continuous: bool) -> AlcoveFunction:
    """The symmetric function whose fundamental-alcove piece is piece: the
    piece on the alcove labeled sigma is sigma applied to it, every sigma
    in one relabelling."""
    perms = all_permutations(piece.n)
    moved = exppoly._relabel(piece, [sigma.images for sigma in perms])
    return AlcoveFunction(piece.n, dict(zip(perms, moved)), continuous)


def act_position(w: Permutation, F: AlcoveFunction) -> AlcoveFunction:
    """(w F)(x) = F(w^{-1} x).

    The piece of wF on the alcove labeled w*sigma is the sigma-piece of F
    with slots relabeled by w.
    """
    if w.n != F.n:
        raise ValueError("size mismatch")
    pieces = {
        compose(w, sigma): act_analytic(w, F.pieces[sigma]) for sigma in F.pieces
    }
    return AlcoveFunction(F.n, pieces, F.continuous)


def symmetrize(F: AlcoveFunction) -> AlcoveFunction:
    """(1/N!) sum_w wF; a projection onto S_N-invariant functions.

    The result is symmetric, so only its fundamental-alcove piece
    (1/N!) sum_w w F[w^{-1}] is summed; extend_symmetric gives the rest.
    """
    perms = all_permutations(F.n)
    weight = (1.0 / len(perms),)
    parts = [(weight, act_analytic(w, F.pieces[w.inverse()])) for w in perms]
    return extend_symmetric(exppoly.combine(F.n, parts), F.continuous)


def _side_orderings(sample: WallSample) -> tuple[Permutation, Permutation]:
    """Alcove labels on the x_j > x_k and x_j < x_k sides of the sample
    (j < k): the tie at the sample breaks by index, so its ordering puts j
    just above k, and the other side swaps them."""
    order, _ = _ordering(sample.x)
    swap = {sample.j: sample.k, sample.k: sample.j}
    return Permutation(order), Permutation(tuple(swap.get(m, m) for m in order))


def wall_jump(
    F: AlcoveFunction, j: int, k: int, gamma: float, samples: Iterable[WallSample]
) -> list[dict]:
    """Derivative-jump check across V_jk.

    Per sample reports the one-sided limits of (d_j - d_k)F and the residual
    (d_j - d_k)F|+ - (d_j - d_k)F|- - 2 gamma F|_wall.
    """
    if not (1 <= j < k <= F.n):
        raise ValueError("need 1 <= j < k <= N")
    # (d_j - d_k) of each side piece, made once: a wall's samples fall in
    # a few alcove pairs
    slopes: dict[Permutation, ExpPolySum] = {}

    def slope(sigma: Permutation) -> ExpPolySum:
        if sigma not in slopes:
            piece = F.pieces[sigma]
            slopes[sigma] = exppoly.derivative(piece, j) - exppoly.derivative(piece, k)
        return slopes[sigma]

    reports = []
    for sample in samples:
        if sample.j != j or sample.k != k:
            raise ValueError("sample belongs to a different wall")
        plus, minus = _side_orderings(sample)
        lim_p = slope(plus).eval(sample.x)
        lim_m = slope(minus).eval(sample.x)
        target = 2 * gamma * F.pieces[plus].eval(sample.x)
        reports.append(
            {
                "x": sample.x,
                "limit_plus": lim_p,
                "limit_minus": lim_m,
                "residual": lim_p - lim_m - target,
            }
        )
    return reports


def dunkl(F: AlcoveFunction, j: int, gamma: float) -> AlcoveFunction:
    """Dunkl-type operator d_{j,gamma}.

    (d_{j,gamma}F)(x) = d_j F(x)
        - gamma sum_{k<j} theta(x_j - x_k) F(s_jk x)
        + gamma sum_{k>j} theta(x_k - x_j) F(s_jk x),
    with every theta factor resolved to 0/1 by the alcove ordering.  On the
    fundamental alcove it reduces to the plain derivative.
    """
    n = F.n
    exppoly._check_slots(n, j)
    # per k: s_jk, and the factor of the term its theta factor keeps
    swaps = [(k, transposition(j, k, n), complex(-gamma if k < j else gamma)) for k in range(1, n + 1) if k != j]
    pieces = {}
    for sigma, p in F.pieces.items():
        # sigma^{-1}, read as the place of each coordinate in the ordering
        rank = sigma.images.index
        terms = exppoly.derivative(p, j).terms
        for k, w, c in swaps:
            # theta(x_j - x_k) for k < j, theta(x_k - x_j) for k > j: kept
            # where that coordinate is above the other in this alcove; the
            # sigma-piece of s_jk F is F's (s_jk sigma)-piece relabelled by
            # s_jk, and a zero factor adds nothing
            if c != 0 and (rank(j) < rank(k) if k < j else rank(k) < rank(j)):
                partner = F._by_order[tuple([w.images[v - 1] for v in sigma.images])]
                terms += exppoly._scaled(c, act_analytic(w, partner).terms)
        pieces[sigma] = ExpPolySum(n, terms)
    return AlcoveFunction(n, pieces, continuous=False)


def reflection_integral(f: ExpPolySum, j: int, k: int) -> ExpPolySum:
    """(I_jk f)(x) = int_0^{x_j - x_k} f(x - y(e_j - e_k)) dy, in closed form.

    Substituting u = x_k + y turns the bounds into plain coordinates:
    the integrand becomes f with slot j -> x_j + x_k - u, slot k -> u.
    A sum of plane waves is integrated as bare rows (_reflection_rows) and
    merged by exppoly.merge_rows, bit for bit as the general path below.
    """
    n = f.n
    for m in (j, k):
        exppoly._check_slots(n, m)
    if j == k:
        raise ValueError("need j != k")
    rows = _reflection_rows(f, j, k)
    if rows is not None:
        return exppoly.merge_rows(n, rows)
    u = n + 1
    rows = {m: {m: 1.0 + 0j} for m in range(1, n + 1)}
    rows[j] = {j: 1.0 + 0j, k: 1.0 + 0j, u: -1.0 + 0j}
    rows[k] = {u: 1.0 + 0j}
    g = exppoly.pullback(f, rows, n + 1)
    h = exppoly.integrate(g, u, Bound.coord(k), Bound.coord(j))
    return ExpPolySum(n, tuple(exppoly._truncate(t, n) for t in h.terms))


def _reflection_rows(f: ExpPolySum, j: int, k: int) -> list | None:
    """reflection_integral's (wavevector, coefficient) rows on n slots, the
    upper and the lower bound of each term in turn: pullback's wavevector on
    n + 1 slots, the u slot last, integrated by exppoly._integrate_row.  None
    where a term is not one degree-0 monomial, has a zero coefficient, or
    _integrate_row refuses its row."""
    n = f.n
    one, minus = 1.0 + 0j, -1.0 + 0j
    # pullback adds mu_j and mu_k into the u slot in slot order
    into_u = sorted(((j, minus), (k, one)))
    bounds = (("coord", k), ("coord", j))
    deg = (0,) * n
    rows = []
    for t in f.terms:
        if len(t.coeffs) != 1 or t.coeffs[0][0] != deg or not (c := 0j + t.coeffs[0][1]):
            return None
        mus = t.wavevector
        # pullback: slot m keeps mu_m, slot k takes mu_j, u takes mu_k - mu_j
        wv = [0j + m * one if m != 0 else 0j for m in mus]
        muj = mus[j - 1]
        wv[k - 1] = 0j + muj * one if muj != 0 else 0j
        mu = 0j
        for m, cp in into_u:
            if mus[m - 1] != 0:
                mu += mus[m - 1] * cp
        wv.append(mu)
        if (pair := exppoly._integrate_row(wv, c, n + 1, bounds, None)) is None:
            return None
        rows += pair
    return rows


def deformed_transposition_position(f: ExpPolySum, j: int, gamma: float) -> ExpPolySum:
    """s_{j,gamma} f = s_j f + gamma I_{j,j+1} f on analytic f."""
    parts = [((), act_analytic(simple(j, f.n), f)), ((gamma,), reflection_integral(f, j, j + 1))]
    return exppoly.combine(f.n, parts)


def propagation(f: ExpPolySum, gamma: float) -> AlcoveFunction:
    """Propagation operator P_gamma: piece on w^{-1} R^N_+ is w^{-1} w_gamma f.

    w_gamma f is built once per w, shorter words first: with [i_1, ...] the
    reduced word of w, w_gamma f = s_{i_1,gamma}(w'_gamma f) where
    w' = s_{i_1} w, whose reduced word is the tail [i_2, ...].
    """
    n = f.n
    words = {w: reduced_word(w) for w in all_permutations(n)}
    deformed = {}
    for w in sorted(words, key=lambda w: len(words[w])):
        word = words[w]
        deformed[w] = deformed_transposition_position(deformed[compose(simple(word[0], n), w)], word[0], gamma) if word else f
    pieces = {
        sigma: act_analytic(sigma, deformed[sigma.inverse()])
        for sigma in all_permutations(n)
    }
    return AlcoveFunction(n, pieces, continuous=True)


def require_room(n: int, length: float) -> None:
    """Refuse a length on which n coordinates in [-L/2, L/2] cannot keep
    gaps of WALL_GAP_FLOOR: rejection sampling would draw forever."""
    if not 0 < length < math.inf:
        raise ValueError("length must be positive and finite")
    if (n - 1) * WALL_GAP_FLOOR >= length:
        raise ValueError(
            f"length {length!r} is too short for {n} coordinates "
            f"{WALL_GAP_FLOOR} apart"
        )


def sample_interior(
    n: int, count: int, length: float, seed: int = DEFAULT_SEED
) -> list[tuple[float, ...]]:
    """Deterministic regular points in (-L/2, L/2)^N with all gaps >= floor."""
    require_room(n, length)
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        x = tuple(rng.uniform(-length / 2, length / 2) for _ in range(n))
        gaps = [abs(x[a] - x[b]) for a in range(n) for b in range(a + 1, n)]
        if not gaps or min(gaps) >= WALL_GAP_FLOOR:
            points.append(x)
    return points


def sample_wall(
    n: int, j: int, k: int, count: int, length: float, seed: int = DEFAULT_SEED
) -> list[WallSample]:
    """Deterministic samples on V_jk (1 <= j < k <= n) with the other
    coordinates regular."""
    if not (1 <= j < k <= n):
        raise ValueError("need 1 <= j < k <= N")
    require_room(n, length)
    rng = random.Random(seed ^ (j * 1000003 + k))
    samples = []
    while len(samples) < count:
        x = [rng.uniform(-length / 2, length / 2) for _ in range(n)]
        x[k - 1] = x[j - 1]
        vals = sorted(set(range(1, n + 1)) - {k}, key=lambda m: x[m - 1])
        gaps = [
            abs(x[vals[a] - 1] - x[vals[a + 1] - 1]) for a in range(len(vals) - 1)
        ]
        if not gaps or min(gaps) >= WALL_GAP_FLOOR:
            samples.append(WallSample(j, k, tuple(x)))
    return samples


def check_continuity(F: AlcoveFunction, length: float) -> tuple[bool, float]:
    """Compare wall limits from both sides at CONTINUITY_SAMPLES sampled
    points per wall."""
    gaps = [0.0]
    scale_ = 1.0
    for j in range(1, F.n + 1):
        for k in range(j + 1, F.n + 1):
            for sample in sample_wall(F.n, j, k, CONTINUITY_SAMPLES, length):
                plus, minus = _side_orderings(sample)
                vp = F.pieces[plus].eval(sample.x)
                vm = F.pieces[minus].eval(sample.x)
                gaps.append(abs(vp - vm))
                scale_ = max(scale_, abs(vp), abs(vm))
    worst = worst_residual(gaps)
    return worst <= CONTINUITY_TOL * scale_, worst


def worst_residual(residuals: Iterable[float]) -> float:
    """The largest residual, or NaN if any is NaN (max alone would skip
    a NaN that does not come first, and the check would pass)."""
    residuals = list(residuals)
    return math.nan if any(math.isnan(r) for r in residuals) else max(residuals)


def to_json(F: AlcoveFunction) -> dict:
    return {
        "n": F.n,
        "continuous": F.continuous,
        "pieces": {
            ",".join(map(str, s.images)): exppoly.to_json(p)
            for s, p in sorted(F.pieces.items(), key=lambda kv: kv[0].images)
        },
    }


def from_json(data: dict) -> AlcoveFunction:
    n = data["n"]
    pieces = {
        Permutation(tuple(int(v) for v in key.split(","))): exppoly.from_json(val, n)
        for key, val in data["pieces"].items()
    }
    return AlcoveFunction(n, pieces, data.get("continuous", False))
