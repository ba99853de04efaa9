"""Independent numerical cross-checks for the exact operator calculus.

Everything here evaluates operands strictly pointwise and integrates with
adaptive Gauss-Legendre quadrature; no symbolic integration code is shared
with the exact path.  The nested-integral layouts of the operators are
restated from their definitions rather than imported: one table row per
elementary kind (its fixed ends, index shift and operand slots) and one
per generator (its kind, multi-indices and scalar).  So a bookkeeping
error on either side shows up as a cross-check failure.

Quadrature runs on rows.  A nested integral is integrated level by level:
each level integrates every row of its outer variables at once, so one
adaptive step evaluates its integrand on the nodes of an interval and of
its two halves for all rows together, and the operand is evaluated through
AlcoveFunction.eval_many at the innermost level.  Each row is accepted or
halved on its own error, exactly as if it were integrated alone.  Rows are
taken in chunks of at most QUAD_BATCH_POINTS nodes per step, which bounds
the memory of the grid a deep nesting would otherwise build at once.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Callable, Sequence

import numpy as np

from .alcovefn import AlcoveFunction, ordering_permutation
from .symgroup import all_permutations

__all__ = [
    "adaptive_quad",
    "quad_elementary",
    "quad_apply",
    "inner_product",
    "fd_derivative",
    "QUAD_NEST_CAP",
]

# nested quadrature is exponential in the integral count; operators whose
# index sums need more simultaneous integrals than this are refused
QUAD_NEST_CAP = 3


# adaptive Gauss-Legendre: a step is accepted when the panel rule and the
# sum over its halves agree within QUAD_RTOL relative or QUAD_ABS_FLOOR
# absolute; an interval is halved at most QUAD_MAX_SUBDIVISIONS times
QUAD_RTOL = 1e-8
QUAD_ABS_FLOOR = 1e-12
QUAD_MAX_SUBDIVISIONS = 20
QUAD_NODES = 15

# rows of a nested quadrature are evaluated together, in chunks of at most
# this many nodes per integrand call, so that the grid of every outer node
# never sits in memory at once
QUAD_BATCH_POINTS = 2048


_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    if count not in _NODE_CACHE:
        _NODE_CACHE[count] = np.polynomial.legendre.leggauss(count)
    return _NODE_CACHE[count]


def _adaptive(
    batch: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """Integrals over (a[r], b[r]) of each row r's integrand.

    batch(rows, ts) maps the row indices rows and their nodes ts (one row
    of nodes per index) to the integrand's values, shaped like ts.  Rows
    are independent: they run in chunks of at most QUAD_BATCH_POINTS nodes
    per step, and each row is accepted or halved on its own error alone.
    """
    out = np.empty(len(a), dtype=complex)
    per_chunk = max(1, QUAD_BATCH_POINTS // (3 * QUAD_NODES))
    for start in range(0, len(a), per_chunk):
        rows = np.arange(start, min(start + per_chunk, len(a)))
        out[rows] = _step(batch, rows, a[rows], b[rows], 0)
    return out


def _step(
    batch: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rows: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    depth: int,
) -> np.ndarray:
    """One step per row: the panel rule on (a, b) against the sum over its
    halves, with the integrand evaluated once on the nodes of all three
    panels; the rows that miss the tolerance recurse on both halves."""
    xs, ws = _nodes(QUAD_NODES)
    mid = (a + b) / 2
    lo, hi = np.stack([a, a, mid], axis=1), np.stack([b, mid, b], axis=1)
    centers, halves = (lo + hi) / 2, (hi - lo) / 2
    values = batch(rows, (centers[:, :, None] + halves[:, :, None] * xs).reshape(len(rows), -1))
    whole, left, right = (halves * (values.reshape(len(rows), 3, -1) @ ws)).T
    split = left + right
    # written so that a NaN never passes
    failed = ~(np.abs(split - whole) <= np.maximum(QUAD_RTOL * np.abs(split), QUAD_ABS_FLOOR))
    if failed.any():
        if depth >= QUAD_MAX_SUBDIVISIONS:
            raise RuntimeError("quadrature failed to converge within the depth limit")
        rows, a, mid, b = rows[failed], a[failed], mid[failed], b[failed]
        split[failed] = _step(batch, rows, a, mid, depth + 1) + _step(batch, rows, mid, b, depth + 1)
    return split


def _quad_rows(
    batch: Callable[[np.ndarray, np.ndarray], np.ndarray],
    count: int,
    a: float,
    b: float,
    breaks: Sequence[float] = (),
) -> np.ndarray:
    """Integrals over (a, b) of count rows' integrands (batch as for
    _adaptive), split first at the interior breakpoints."""
    if a == b:
        return np.zeros(count, dtype=complex)
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    cuts = sorted({a, b, *(t for t in breaks if a < t < b)})
    total = np.zeros(count, dtype=complex)
    for lo, hi in zip(cuts, cuts[1:]):
        total += _adaptive(batch, np.full(count, lo), np.full(count, hi))
    return sign * total


def adaptive_quad(
    func: Callable[[float], complex],
    a: float,
    b: float,
    breaks: Sequence[float] = (),
) -> complex:
    """Integral of a complex-valued func over (a, b), split first at the
    supplied interior breakpoints (kink locations)."""

    def batch(rows: np.ndarray, ts: np.ndarray) -> np.ndarray:
        return np.array([[func(t) for t in row] for row in ts], dtype=complex)

    return complex(_quad_rows(batch, 1, a, b, breaks)[0])


def _extend(outer: np.ndarray, rows: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """The outer variables of the given rows, each repeated once per node
    and followed by that node as a new last column."""
    return np.column_stack([np.repeat(outer[rows], ts.shape[1], axis=0), ts.reshape(-1)])


def _points(coords: Sequence, count: int) -> np.ndarray:
    """count points (rows) from coordinates that are numbers or node arrays."""
    pts = np.empty((count, len(coords)))
    for j, c in enumerate(coords):
        pts[:, j] = c
    return pts


# ---------------------------------------------------------------------------
# nested-integral layouts of the elementary operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Layout:
    """One elementary term at a fixed output point.

    levels are the numeric interval endpoints, decreasing; y_m runs over
    (levels[m], levels[m-1]), so there are len(levels) - 1 integrals.
    Step factors in the definitions make the term vanish unless the chain
    really decreases.  args maps the y tuple to the operand's argument
    point; x_phase and the uniform -mu on every y give the exponential
    prefactor, times scalar.
    """

    levels: tuple[float, ...]
    args: Callable[[tuple[float, ...]], tuple[float, ...]]
    x_phase: complex
    mu: complex
    scalar: complex


# kind -> (fixed end above, index shift, fixed end below, operand slots).
# An end is +1 or -1 for +/-L/2, a created coordinate ("x_1" or
# "x_N+1"), or None; the indexed levels are x_{p + shift}.  Operand slots:
# "own" gives slot r the y of its index, else its own coordinate; e_check+
# ("own,top") also gives the top y to one more slot at the end, e_check-
# ("bottom,own") the bottom y to one at the front; "rest" gives the
# unindexed coordinates, then the y's.
_KINDS = {
    "e_hat+": (None, 1, "x_1", "own"),
    "e_hat-": ("x_N+1", 0, None, "own"),
    "e_bar+": (None, 0, -1, "own"),
    "e_bar-": (1, 0, None, "own"),
    "e_check+": (1, 0, -1, "own,top"),
    "e_check-": (1, 0, -1, "bottom,own"),
    "E_hat": (None, 0, None, "rest"),
    "E_bar+": (None, 0, -1, "rest"),
    "E_bar-": (1, 0, None, "rest"),
    "E_check": (1, 0, -1, "rest"),
}


def _layout_elementary(
    kind: str, mu: complex, i: tuple[int, ...], N: int, x: tuple[float, ...], length: float
) -> _Layout:
    """Restated definitions; N is the input particle number."""
    if kind not in _KINDS:
        raise ValueError(f"unknown elementary kind {kind!r}")
    above, shift, below, fill = _KINDS[kind]
    # e_hat+/- index the input coordinates, every other kind those of x
    top = N if kind.startswith("e_hat") else len(x)
    if len(set(i)) != len(i) or any(not 1 <= p <= top for p in i):
        raise ValueError(f"multi-index entries must be distinct and in 1..{top}")
    if kind[0] == "E" and list(i) != sorted(i):
        raise ValueError("multi-index must be strictly increasing")
    half = length / 2

    def end(e):
        return x[0] if e == "x_1" else x[-1] if e == "x_N+1" else e * half

    top = (end(above),) if above is not None else ()
    bottom = (end(below),) if below is not None else ()
    indexed = tuple(x[p - 1 + shift] for p in i)
    levels = top + indexed + bottom
    n_y = len(levels) - 1
    # the slot map, built once: (True, m) takes ys[m], (False, r) takes x[r]
    if fill == "rest":
        slots = [(False, r - 1) for r in range(1, len(x) + 1) if r not in i]
        slots += [(True, m) for m in range(n_y)]
    else:
        own = {p: m + (fill == "own,top") for m, p in enumerate(i)}
        slots = [
            (True, own[r]) if r in own else (False, r - 1 + shift)
            for r in range(1, N + (fill == "own"))
        ]
        if fill == "own,top":
            slots.append((True, 0))
        elif fill == "bottom,own":
            slots.insert(0, (True, n_y - 1))

    def args(ys):
        return tuple(ys[k] if from_y else x[k] for from_y, k in slots)

    # the created coordinate first, then the indexed ones
    created = [end(e) for e in (above, below) if isinstance(e, str)]
    x_phase = cmath.exp(1j * mu * sum(created + list(indexed)))
    # one constant end gives exp(+/- i mu L/2); two cancel
    consts = [e for e in (above, below) if isinstance(e, int)]
    scalar = cmath.exp(consts[0] * 1j * mu * half) if len(consts) == 1 else 1.0 + 0j
    return _Layout(levels, args, x_phase, mu, scalar)


def quad_elementary(
    kind: str,
    mu: complex,
    i: tuple[int, ...],
    f: AlcoveFunction,
    length: float,
    x: tuple[float, ...],
) -> complex:
    """Value at x of one elementary operator applied to f, by nested
    adaptive quadrature of the defining integral."""
    lay = _layout_elementary(kind, mu, tuple(i), f.n, tuple(x), length)
    n_y = len(lay.levels) - 1
    if n_y > QUAD_NEST_CAP:
        raise ValueError(f"more than {QUAD_NEST_CAP} nested integrals requested")
    if any(
        lay.levels[m] >= lay.levels[m - 1] for m in range(1, len(lay.levels))
    ):
        return 0.0 + 0j
    if n_y == 0:
        return lay.scalar * lay.x_phase * f.eval(lay.args(()))
    breaks = tuple(x)

    def level(m: int, outer: np.ndarray) -> np.ndarray:
        # the integral over y_m, ..., y_n_y for each row (y_1, ..., y_m-1)
        def batch(rows: np.ndarray, ts: np.ndarray) -> np.ndarray:
            ys = _extend(outer, rows, ts)
            if m < n_y:
                return level(m + 1, ys).reshape(ts.shape)
            phase = np.exp(-1j * lay.mu * sum(ys.T))
            values = f.eval_many(_points(lay.args(tuple(ys.T)), len(ys)))
            return (lay.scalar * lay.x_phase * phase * values).reshape(ts.shape)

        return _quad_rows(batch, len(outer), lay.levels[m], lay.levels[m - 1], breaks)

    return complex(level(1, np.empty((1, 0)))[0])


def quad_apply(
    family: str,
    mu: complex,
    f: AlcoveFunction,
    gamma: float,
    length: float,
    x: tuple[float, ...],
) -> complex:
    """Value at x of a generator (a, b+, b-, c+, c-, d, A, B, C, D)
    applied to f, via the gamma-weighted sums of elementary quadratures."""
    x = tuple(x)
    if family == "a":
        return quad_apply("b+", mu, f, gamma, length, (-length / 2,) + x)
    if family == "d":
        return quad_apply("b-", mu, f, gamma, length, x + (length / 2,))
    N = f.n
    # family -> its elementary kind, multi-indices, index range, extra
    # indices over the gamma power n, and scalar; the sum is the scalar
    # times gamma^n times each elementary term
    sums = {
        "b+": ("e_hat+", permutations, N, 0, 1.0),
        "b-": ("e_hat-", permutations, N, 0, 1.0),
        "c+": ("e_check+", permutations, N - 1, 0, 1.0),
        "c-": ("e_check-", permutations, N - 1, 0, 1.0),
        "A": ("E_bar+", combinations, N, 0, 1.0),
        "B": ("E_hat", combinations, N + 1, 1, 1.0 / (N + 1)),
        "C": ("E_check", combinations, N - 1, 0, float(N)),
        "D": ("E_bar-", combinations, N, 0, 1.0),
    }
    if family not in sums:
        raise ValueError(f"unknown family {family!r}")
    kind, indices, top, extra, scalar = sums[family]
    if indices is combinations:
        # the output is symmetric, so evaluate on the decreasing rearrangement
        x = tuple(sorted(x, reverse=True))
    # c+/-, C on the vacuum have no index range: the sum is zero
    return scalar * sum(
        (
            gamma**n * quad_elementary(kind, mu, i, f, length, x)
            for n in range(top - extra + 1)
            for i in indices(range(1, top + 1), n + extra)
        ),
        0j,
    )


def inner_product(
    f: AlcoveFunction,
    g: AlcoveFunction,
    length: float,
) -> complex:
    """<f, g> = integral over [-L/2, L/2]^N of conj(f) g, accumulated
    alcove by alcove over the ordered regions."""
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    n = f.n
    if n == 0:
        return complex(f.eval(())).conjugate() * g.eval(())
    if n > QUAD_NEST_CAP:
        raise ValueError(f"inner product capped at {QUAD_NEST_CAP} variables")
    half = length / 2
    total = 0.0 + 0j
    for sigma in all_permutations(n):

        def region(m: int, outer: np.ndarray) -> np.ndarray:
            # the integral over t_m > ... > t_n > -L/2 for each row (t_1, ..., t_m-1)
            def batch(rows: np.ndarray, ts: np.ndarray) -> np.ndarray:
                inner = _extend(outer, rows, ts)
                if m < n:
                    return region(m + 1, inner).reshape(ts.shape)
                x = [0.0] * n
                for r, t in enumerate(inner.T, start=1):
                    x[sigma(r) - 1] = t
                pts = _points(x, len(inner))
                values = np.conj(f.eval_many(pts, side=sigma)) * g.eval_many(pts, side=sigma)
                return values.reshape(ts.shape)

            upper = np.full(len(outer), half) if m == 1 else outer[:, -1]
            return _adaptive(batch, np.full(len(outer), -half), upper)

        total += complex(region(1, np.empty((1, 0)))[0])
    return total


def fd_derivative(F: AlcoveFunction, j: int, x: tuple[float, ...]) -> complex:
    """Central finite difference of F in coordinate j at x, step 1e-4
    with one Richardson stage; refuses stencils that cross a wall."""
    x = tuple(x)
    base, _ = ordering_permutation(x)

    def central(h: float) -> complex:
        lo = x[:j - 1] + (x[j - 1] - h,) + x[j:]
        hi = x[:j - 1] + (x[j - 1] + h,) + x[j:]
        for pt in (lo, hi):
            sigma, tied = ordering_permutation(pt)
            if tied or sigma != base:
                raise ValueError("difference stencil crosses a wall")
        return (F.eval(hi, side=base) - F.eval(lo, side=base)) / (2 * h)

    coarse = central(1e-4)
    fine = central(1e-4 / 2)
    return (4 * fine - coarse) / 3.0
