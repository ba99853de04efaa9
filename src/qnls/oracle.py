"""Independent numerical cross-checks for the exact operator calculus.

Everything here evaluates operands strictly pointwise and integrates with
adaptive Gauss-Legendre quadrature; no symbolic integration code is shared
with the exact path.  Operands are evaluated in panel batches: each
adaptive step evaluates its integrand once, on the nodes of an interval
and of its two halves, through AlcoveFunction.eval_many at the innermost
integral.  The nested-integral layouts of the operators are restated from
their definitions rather than imported, so a bookkeeping error on either
side shows up as a cross-check failure.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .alcovefn import AlcoveFunction, ordering_permutation
from .symgroup import all_permutations

__all__ = [
    "QuadConfig",
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


@dataclass(frozen=True)
class QuadConfig:
    """Adaptive Gauss-Legendre settings."""

    rtol: float = 1e-8
    abs_floor: float = 1e-12
    max_subdivisions: int = 20
    nodes: int = 15


_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    if count not in _NODE_CACHE:
        _NODE_CACHE[count] = np.polynomial.legendre.leggauss(count)
    return _NODE_CACHE[count]


def _adaptive(
    batch: Callable[[np.ndarray], np.ndarray], a: float, b: float, config: QuadConfig, depth: int
) -> complex:
    """One step: the panel rule on (a, b) against the sum over its halves,
    with the integrand evaluated once on the nodes of all three panels."""
    xs, ws = _nodes(config.nodes)
    mid = (a + b) / 2
    lo, hi = np.array([a, a, mid]), np.array([b, mid, b])
    centers, halves = (lo + hi) / 2, (hi - lo) / 2
    values = batch((centers[:, None] + halves[:, None] * xs).reshape(-1))
    whole, left, right = halves * (values.reshape(3, -1) @ ws)
    split = left + right
    if abs(split - whole) <= max(config.rtol * abs(split), config.abs_floor):
        return complex(split)
    if depth >= config.max_subdivisions:
        raise RuntimeError("quadrature failed to converge within the depth limit")
    return _adaptive(batch, a, mid, config, depth + 1) + _adaptive(
        batch, mid, b, config, depth + 1
    )


def _quad_batched(
    batch: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    config: QuadConfig,
    breaks: Sequence[float] = (),
) -> complex:
    """Integral over (a, b) of an integrand that maps an array of nodes to
    an array of values, split first at the interior breakpoints."""
    if a == b:
        return 0.0 + 0j
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    cuts = sorted({a, b, *(t for t in breaks if a < t < b)})
    total = 0.0 + 0j
    for lo, hi in zip(cuts, cuts[1:]):
        total += _adaptive(batch, lo, hi, config, 0)
    return sign * total


def adaptive_quad(
    func: Callable[[float], complex],
    a: float,
    b: float,
    config: QuadConfig = QuadConfig(),
    breaks: Sequence[float] = (),
) -> complex:
    """Integral of a complex-valued func over (a, b), split first at the
    supplied interior breakpoints (kink locations)."""
    return _quad_batched(
        lambda ts: np.array([func(t) for t in ts], dtype=complex), a, b, config, breaks
    )


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
    (levels[m], levels[m-1]).  Step factors in the definitions make the
    term vanish unless the chain really decreases.  args maps the y tuple
    to the operand's argument point; x_phase and the uniform -mu on every
    y give the exponential prefactor, times scalar.
    """

    levels: tuple[float, ...]
    args: Callable[[tuple[float, ...]], tuple[float, ...]]
    x_phase: complex
    mu: complex
    scalar: complex
    n_y: int


def _layout_elementary(
    kind: str, mu: complex, i: tuple[int, ...], N: int, x: tuple[float, ...], length: float
) -> _Layout:
    """Restated definitions; N is the input particle number."""
    k = len(i)
    half = length / 2
    if kind == "e_hat-":
        levels = (x[N],) + tuple(x[p - 1] for p in i)
        coords = [x[N]] + [x[p - 1] for p in i]

        def args(ys, i=i, x=x, N=N):
            return tuple(
                ys[i.index(r)] if r in i else x[r - 1] for r in range(1, N + 1)
            )

        n_y = k
    elif kind == "e_hat+":
        levels = tuple(x[p] for p in i) + (x[0],)
        coords = [x[0]] + [x[p] for p in i]

        def args(ys, i=i, x=x, N=N):
            return tuple(ys[i.index(r)] if r in i else x[r] for r in range(1, N + 1))

        n_y = k
    elif kind in ("e_bar+", "e_bar-"):
        body = tuple(x[p - 1] for p in i)
        levels = body + (-half,) if kind == "e_bar+" else (half,) + body
        coords = list(body)

        def args(ys, i=i, x=x, N=N):
            return tuple(
                ys[i.index(r)] if r in i else x[r - 1] for r in range(1, N + 1)
            )

        n_y = k
    elif kind in ("e_check+", "e_check-"):
        out_n = N - 1
        levels = (half,) + tuple(x[p - 1] for p in i) + (-half,)
        coords = [x[p - 1] for p in i]
        if kind == "e_check+":

            def args(ys, i=i, x=x, out_n=out_n):
                return tuple(
                    ys[i.index(r) + 1] if r in i else x[r - 1]
                    for r in range(1, out_n + 1)
                ) + (ys[0],)

        else:

            def args(ys, i=i, x=x, out_n=out_n, k=k):
                return (ys[k],) + tuple(
                    ys[i.index(r)] if r in i else x[r - 1]
                    for r in range(1, out_n + 1)
                )

        n_y = k + 1
    elif kind == "E_hat":
        levels = tuple(x[p - 1] for p in i)
        coords = [x[p - 1] for p in i]
        rest = [r for r in range(1, N + 2) if r not in i]

        def args(ys, rest=rest, x=x):
            return tuple(x[r - 1] for r in rest) + tuple(ys)

        n_y = k - 1
    elif kind in ("E_bar+", "E_bar-"):
        body = tuple(x[p - 1] for p in i)
        levels = body + (-half,) if kind == "E_bar+" else (half,) + body
        coords = list(body)
        rest = [r for r in range(1, N + 1) if r not in i]

        def args(ys, rest=rest, x=x):
            return tuple(x[r - 1] for r in rest) + tuple(ys)

        n_y = k
    elif kind == "E_check":
        out_n = N - 1
        levels = (half,) + tuple(x[p - 1] for p in i) + (-half,)
        coords = [x[p - 1] for p in i]
        rest = [r for r in range(1, out_n + 1) if r not in i]

        def args(ys, rest=rest, x=x):
            return tuple(x[r - 1] for r in rest) + tuple(ys)

        n_y = k + 1
    else:
        raise ValueError(f"unknown elementary kind {kind!r}")
    scalar = 1.0 + 0j
    if kind in ("e_bar+", "E_bar+"):
        scalar = cmath.exp(-1j * mu * half)
    elif kind in ("e_bar-", "E_bar-"):
        scalar = cmath.exp(1j * mu * half)
    x_phase = cmath.exp(1j * mu * sum(coords))
    return _Layout(levels, args, x_phase, mu, scalar, n_y)


def quad_elementary(
    kind: str,
    mu: complex,
    i: tuple[int, ...],
    f: AlcoveFunction,
    length: float,
    x: tuple[float, ...],
    config: QuadConfig = QuadConfig(),
) -> complex:
    """Value at x of one elementary operator applied to f, by nested
    adaptive quadrature of the defining integral."""
    lay = _layout_elementary(kind, mu, tuple(i), f.n, tuple(x), length)
    if lay.n_y > QUAD_NEST_CAP:
        raise ValueError(f"more than {QUAD_NEST_CAP} nested integrals requested")
    if any(
        lay.levels[m] >= lay.levels[m - 1] for m in range(1, len(lay.levels))
    ):
        return 0.0 + 0j
    if lay.n_y == 0:
        return lay.scalar * lay.x_phase * f.eval(lay.args(()))
    breaks = tuple(x)

    def innermost(ys: tuple) -> np.ndarray:
        # ys ends with the node array of the innermost variable
        phase = np.exp(-1j * lay.mu * sum(ys))
        values = f.eval_many(_points(lay.args(ys), len(ys[-1])))
        return lay.scalar * lay.x_phase * phase * values

    def nest(m: int, ys: tuple[float, ...]) -> complex:
        lower, upper = lay.levels[m], lay.levels[m - 1]
        if m == lay.n_y:
            return _quad_batched(lambda ts: innermost(ys + (ts,)), lower, upper, config, breaks)
        return adaptive_quad(lambda t: nest(m + 1, ys + (t,)), lower, upper, config, breaks)

    return nest(1, ())


def _multi_indices(n: int, N: int, ordered: bool) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    out = []

    def rec(prefix: tuple[int, ...]) -> None:
        if len(prefix) == n:
            out.append(prefix)
            return
        for p in range(1, N + 1):
            if p in prefix:
                continue
            if ordered and prefix and p <= prefix[-1]:
                continue
            rec(prefix + (p,))

    rec(())
    return out


def quad_apply(
    family: str,
    mu: complex,
    f: AlcoveFunction,
    gamma: float,
    length: float,
    x: tuple[float, ...],
    config: QuadConfig = QuadConfig(),
) -> complex:
    """Value at x of a generator (a, b+, b-, c+, c-, d, A, B, C, D)
    applied to f, via the gamma-weighted sums of elementary quadratures."""
    x = tuple(x)
    N = f.n
    if family in ("b+", "b-"):
        kind = "e_hat+" if family == "b+" else "e_hat-"
        return sum(
            gamma**n * quad_elementary(kind, mu, i, f, length, x, config)
            for n in range(N + 1)
            for i in _multi_indices(n, N, ordered=False)
        )
    if family == "a":
        return quad_apply("b+", mu, f, gamma, length, (-length / 2,) + x, config)
    if family == "d":
        return quad_apply("b-", mu, f, gamma, length, x + (length / 2,), config)
    if family in ("c+", "c-"):
        if N == 0:
            return 0.0 + 0j
        kind = "e_check+" if family == "c+" else "e_check-"
        return sum(
            gamma**n * quad_elementary(kind, mu, i, f, length, x, config)
            for n in range(N)
            for i in _multi_indices(n, N - 1, ordered=False)
        )
    if family in ("A", "B", "C", "D"):
        # the output is symmetric, so evaluate on the decreasing rearrangement
        xs = tuple(sorted(x, reverse=True))
        if family in ("A", "D"):
            kind = "E_bar+" if family == "A" else "E_bar-"
            return sum(
                gamma**n * quad_elementary(kind, mu, i, f, length, xs, config)
                for n in range(N + 1)
                for i in _multi_indices(n, N, ordered=True)
            )
        if family == "B":
            return (1.0 / (N + 1)) * sum(
                gamma**n * quad_elementary("E_hat", mu, i, f, length, xs, config)
                for n in range(N + 1)
                for i in _multi_indices(n + 1, N + 1, ordered=True)
            )
        if N == 0:
            return 0.0 + 0j
        return float(N) * sum(
            gamma**n * quad_elementary("E_check", mu, i, f, length, xs, config)
            for n in range(N)
            for i in _multi_indices(n, N - 1, ordered=True)
        )
    raise ValueError(f"unknown family {family!r}")


def inner_product(
    f: AlcoveFunction,
    g: AlcoveFunction,
    length: float,
    config: QuadConfig = QuadConfig(),
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

        def innermost(ts: tuple) -> np.ndarray:
            # ts ends with the node array of the innermost variable
            x = [0.0] * n
            for r, t in enumerate(ts, start=1):
                x[sigma(r) - 1] = t
            pts = _points(x, len(ts[-1]))
            return np.conj(f.eval_many(pts, side=sigma)) * g.eval_many(pts, side=sigma)

        def region(m: int, ts: tuple[float, ...]) -> complex:
            upper = half if m == 1 else ts[-1]
            if m == n:
                return _quad_batched(lambda t: innermost(ts + (t,)), -half, upper, config)
            return adaptive_quad(
                lambda t: region(m + 1, ts + (t,)), -half, upper, config
            )

        total += region(1, ())
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
