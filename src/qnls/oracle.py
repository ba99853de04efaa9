"""Independent numerical cross-checks for the exact operator calculus.

Everything here evaluates operands strictly pointwise and integrates with
adaptive Gauss-Legendre quadrature; no symbolic integration code is shared
with the exact path.  The nested-integral layouts of the operators are
restated from their definitions rather than imported: one table row per
elementary kind (its fixed ends, index shift and operand slots) and one
per generator (its kind, multi-indices and scalar).  So a bookkeeping
error on either side shows up as a cross-check failure.

Quadrature runs on rows.  Each elementary term of a generator at one
output point is a layout: its interval ends, breakpoints (the point's
coordinates), operand slots and prefactor.  quad_apply_many integrates
the layouts of every point and multi-index with the same number of
integrals as rows of one nested integral, level by level: a row is a
layout's index with values of its outer variables, and each level
integrates all rows at once over their layouts' intervals, split at their
breakpoints.  So one adaptive step evaluates its integrand on the nodes of
an interval and of its two halves for all rows together, and the operand
is evaluated through AlcoveFunction.eval_many at the innermost level.
Each row is accepted or halved on its own error, and its arithmetic does
not involve the other rows, so it gets the value it would get integrated
alone, bit for bit.  Rows are taken in chunks of at most QUAD_BATCH_POINTS
nodes per step, which bounds the memory of the grid a deep nesting would
otherwise build at once.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
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
    "quad_apply_many",
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


@functools.cache
def _nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(count)


def _adaptive(
    batch: Callable[[np.ndarray, np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """Integrals over (a[r], b[r]) of each row r's integrand.

    batch(rows, ts) maps the row indices rows and their nodes ts (one row
    of nodes per index) to the integrand's values, shaped like ts.  Rows
    may come from different layouts and output points and are independent:
    they run in chunks of at most QUAD_BATCH_POINTS nodes per step, and
    each row is accepted or halved on its own error alone, so its value
    does not depend on the rows it runs with.
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


def _segments(intervals: Sequence[tuple[float, float, Sequence[float]]]) -> tuple[np.ndarray, ...]:
    """The sub-intervals of each layout's interval (a, b), split first at
    its interior breakpoints: their ends lo and hi, layout l's taking
    positions first[l]:first[l + 1] in cut order, and whether the layout's
    interval runs backwards."""
    lo, hi, first, flip = [], [], [0], []
    for a, b, breaks in intervals:
        flip.append(a > b)
        if a > b:
            a, b = b, a
        cuts = sorted({a, b, *(t for t in breaks if a < t < b)}) if a != b else []
        lo += cuts[:-1]
        hi += cuts[1:]
        first.append(len(lo))
    return np.array(lo, dtype=float), np.array(hi, dtype=float), np.array(first), np.array(flip)


def _quad_rows(
    batch: Callable[[np.ndarray, np.ndarray], np.ndarray],
    lay: np.ndarray,
    segments: tuple[np.ndarray, ...],
) -> np.ndarray:
    """For each row r, the integral over the interval of its layout lay[r]
    (segments as _segments gives them; batch as for _adaptive).

    The sub-intervals of every row run as rows of one _adaptive call; each
    row's integrals over them are added from zero in cut order, then the
    sign of a backward interval is applied."""
    lo, hi, first, flip = segments
    count = first[lay + 1] - first[lay]
    owner = np.repeat(np.arange(len(lay)), count)
    pos = np.arange(len(owner)) - np.repeat(np.cumsum(count) - count, count)
    seg = first[lay][owner] + pos
    parts = _adaptive(lambda rows, ts: batch(owner[rows], ts), lo[seg], hi[seg])
    total = np.zeros(len(lay), dtype=complex)
    for j in range(count.max(initial=0)):
        at = pos == j
        total[owner[at]] += parts[at]
    # the sign as a complex product, as one interval's integral takes it:
    # negation would differ in the sign of a zero part
    out = 1.0 * total
    back = flip[lay]
    out[back] = -1.0 * total[back]
    return out


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

    return complex(_quad_rows(batch, np.zeros(1, dtype=int), _segments([(a, b, breaks)]))[0])


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
    """One elementary term at a fixed output point x.

    levels are the numeric interval endpoints, decreasing; y_m runs over
    (levels[m], levels[m-1]), so there are len(levels) - 1 integrals.
    Step factors in the definitions make the term vanish unless the chain
    really decreases.  The operand's argument point takes its coordinates
    from ys + x (the y's, then x) at the positions slots; x_phase and the
    uniform -mu on every y give the exponential prefactor, times scalar.
    """

    levels: tuple[float, ...]
    x: tuple[float, ...]
    slots: tuple[int, ...]
    x_phase: complex
    mu: complex
    scalar: complex

    def args(self, ys: tuple[float, ...]) -> tuple[float, ...]:
        """The operand's argument point at the y tuple ys."""
        row = tuple(ys) + self.x
        return tuple(row[k] for k in self.slots)


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
    kind: str, mu: complex, i: tuple[int, ...], N: int, size: int, length: float
) -> Callable[[tuple[float, ...]], _Layout]:
    """Restated definitions; N is the input particle number and size the output's.
    The function returned binds an output point x: only levels and phase need x."""
    if kind not in _KINDS:
        raise ValueError(f"unknown elementary kind {kind!r}")
    above, shift, below, fill = _KINDS[kind]
    # e_hat+/- index the input coordinates, every other kind those of x
    top = N if kind.startswith("e_hat") else size
    if not all(isinstance(p, numbers.Integral) for p in i):
        raise ValueError("multi-index entries must be integers")
    if len(set(i)) != len(i) or any(not 1 <= p <= top for p in i):
        raise ValueError(f"multi-index entries must be distinct and in 1..{top}")
    if kind[0] == "E" and list(i) != sorted(i):
        raise ValueError("multi-index must be strictly increasing")
    half = length / 2
    # each level, and each coordinate of the phase (the created one first,
    # then the indexed ones x_{p + shift}), as a position in (L/2, -L/2) + x
    where = {1: 0, -1: 1, "x_1": 2, "x_N+1": size + 1}
    indexed = [p + 1 + shift for p in i]
    levels = [k for k in (where.get(above), *indexed, where.get(below)) if k is not None]
    phased = [where[e] for e in (above, below) if isinstance(e, str)] + indexed
    n_y = len(levels) - 1
    # ys[m] sits at position m of ys + x, x[r] at n_y + r
    if fill == "rest":
        slots = [n_y + r - 1 for r in range(1, size + 1) if r not in i]
        slots += list(range(n_y))
    else:
        own = {p: m + (fill == "own,top") for m, p in enumerate(i)}
        slots = [own[r] if r in own else n_y + r - 1 + shift for r in range(1, N + (fill == "own"))]
        if fill == "own,top":
            slots.append(0)
        elif fill == "bottom,own":
            slots.insert(0, n_y - 1)
    # one constant end gives exp(+/- i mu L/2); two cancel
    consts = [e for e in (above, below) if isinstance(e, int)]
    scalar = cmath.exp(consts[0] * 1j * mu * half) if len(consts) == 1 else 1.0 + 0j

    def bind(x: tuple[float, ...]) -> _Layout:
        ext = (half, -half) + x
        x_phase = cmath.exp(1j * mu * sum(ext[k] for k in phased))
        return _Layout(tuple(ext[k] for k in levels), x, tuple(slots), x_phase, mu, scalar)

    return bind


def _quad_layouts(lays: Sequence[_Layout], f: AlcoveFunction) -> list[complex]:
    """The value of each layout's term with operand f: 0 on a chain that
    does not decrease, f read once where there is no integral, and
    otherwise one nested quadrature per depth and mu, whose rows are the
    layouts."""
    out = [0.0 + 0j] * len(lays)
    nested: dict[tuple[int, complex], list[int]] = {}
    for k, lay in enumerate(lays):
        n_y = len(lay.levels) - 1
        if n_y > QUAD_NEST_CAP:
            raise ValueError(f"more than {QUAD_NEST_CAP} nested integrals requested")
        if any(lay.levels[m] >= lay.levels[m - 1] for m in range(1, len(lay.levels))):
            continue
        if n_y == 0:
            out[k] = lay.scalar * lay.x_phase * f.eval(lay.args(()))
        else:
            nested.setdefault((n_y, lay.mu), []).append(k)
    for (n_y, mu), ks in nested.items():
        for k, value in zip(ks, _nested([lays[k] for k in ks], n_y, mu, f)):
            out[k] = complex(value)
    return out


def _nested(lays: Sequence[_Layout], n_y: int, mu: complex, f: AlcoveFunction) -> np.ndarray:
    """The nested integrals of layouts with n_y integrals each and a common
    mu, integrated level by level with one row per layout and outer node.

    Rows carry the index of their layout, which gives them their interval
    and breakpoints (the layout's x) at each level, their operand slots and
    their prefactor scalar * x_phase."""
    x = np.array([lay.x for lay in lays], dtype=float)
    slots = np.array([lay.slots for lay in lays], dtype=int)
    prefactor = np.array([lay.scalar * lay.x_phase for lay in lays])
    segments = [
        _segments([(lay.levels[m], lay.levels[m - 1], lay.x) for lay in lays])
        for m in range(1, n_y + 1)
    ]

    def level(m: int, outer: np.ndarray, lay: np.ndarray) -> np.ndarray:
        # the integral over y_m, ..., y_n_y for each row (y_1, ..., y_m-1)
        def batch(rows: np.ndarray, ts: np.ndarray) -> np.ndarray:
            ys = _extend(outer, rows, ts)
            at = np.repeat(lay[rows], ts.shape[1])
            if m < n_y:
                return level(m + 1, ys, at).reshape(ts.shape)
            phase = np.exp(-1j * mu * sum(ys.T))
            points = np.hstack([ys, x[at]])[np.arange(len(ys))[:, None], slots[at]]
            return (prefactor[at] * phase * f.eval_many(points)).reshape(ts.shape)

        return _quad_rows(batch, lay, segments[m - 1])

    return level(1, np.empty((len(lays), 0)), np.arange(len(lays)))


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
    return _quad_layouts([_layout_elementary(kind, mu, tuple(i), f.n, len(x), length)(tuple(x))], f)[0]


def quad_apply_many(
    family: str,
    mu: complex,
    f: AlcoveFunction,
    gamma: float,
    length: float,
    xs: Sequence[tuple[float, ...]],
) -> list[complex]:
    """Values at each point of xs of a generator (a, b+, b-, c+, c-, d, A,
    B, C, D) applied to f, via the gamma-weighted sums of elementary
    quadratures; the elementary terms of every point are integrated
    together, as rows.

    A point must have finite coordinates and the family's output size:
    N+1 for b+/-, B; N for a, d, A, D; N-1 for c+/-, C (with N = f.n), or
    none on the vacuum, which c+/-, C take to zero."""
    N = f.n
    size = (
        dict.fromkeys(("b+", "b-", "B"), N + 1)
        | dict.fromkeys(("a", "d", "A", "D"), N)
        | dict.fromkeys(("c+", "c-", "C"), max(N - 1, 0))
    )
    if family not in size:
        raise ValueError(f"unknown family {family!r}")
    xs = [tuple(x) for x in xs]
    for x in xs:
        if len(x) != size[family]:
            raise ValueError(f"{family} takes points of {size[family]} coordinates, not {len(x)}")
        if not all(math.isfinite(t) for t in x):
            raise ValueError(f"point {x} has a coordinate that is not finite")
    # a and d are b+ and b- with the created coordinate at -L/2 and L/2
    if family == "a":
        family, xs = "b+", [(-length / 2,) + x for x in xs]
    elif family == "d":
        family, xs = "b-", [x + (length / 2,) for x in xs]
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
    kind, indices, top, extra, scalar = sums[family]
    if indices is combinations:
        # the output is symmetric, so evaluate on the decreasing rearrangement
        xs = [tuple(sorted(x, reverse=True)) for x in xs]
    # c+/-, C on the vacuum have no index range: the sum is zero
    terms = [
        (n, i) for n in range(top - extra + 1) for i in indices(range(1, top + 1), n + extra)
    ]
    binds = [_layout_elementary(kind, mu, i, N, size[family], length) for _, i in terms]
    layouts = [bind(x) for x in xs for bind in binds]
    values = iter(_quad_layouts(layouts, f))
    return [scalar * sum((gamma**n * next(values) for n, _ in terms), 0j) for _ in xs]


def quad_apply(
    family: str,
    mu: complex,
    f: AlcoveFunction,
    gamma: float,
    length: float,
    x: tuple[float, ...],
) -> complex:
    """Value at x of a generator applied to f: quad_apply_many at one point."""
    return quad_apply_many(family, mu, f, gamma, length, [x])[0]


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
    if not 1 <= j <= len(x):
        raise ValueError(f"coordinate {j} out of range 1..{len(x)}")
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
