"""Closed algebra of exp-polynomial functions p(x) * exp(i<mu, x>).

Every analytic piece handled by the engine lives in this ring: plane waves,
their polynomial-prefactor degenerate limits, and everything the nested
integral operators produce.  Derivatives, definite integrals with constant
or coordinate bounds, substitutions and linear changes of variables are
all computed in closed form, so downstream identity checks are exact up to
float rounding.

Sums merge by one rule, combine's: canonicalize and merge_rows follow it,
and so does the array form of many sums at once.  to_arrays reads sums
into one coefficient array over their distinct monomials (SumArrays);
a caller merges its entries with the written-out complex product
(_times), SumArrays.prune and SumArrays.to_sums, bit for bit as combine
would (the deformed words of momrep).

>>> f = plane_wave((2.0, -1.0))          # e^{i(2 x1 - x2)}
>>> g = derivative(f, 1)
>>> g.eval((0.3, 0.7)) == 2j * f.eval((0.3, 0.7))
True
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping

import numpy as np

__all__ = [
    "Bound",
    "ExpPolyTerm",
    "ExpPolySum",
    "DegreeCapError",
    "plane_wave",
    "constant",
    "zero",
    "monomial",
    "add",
    "scale",
    "mul",
    "derivative",
    "integrate",
    "substitute",
    "pullback",
    "canonicalize",
    "combine",
    "merge_rows",
    "SumArrays",
    "to_arrays",
    "to_json",
    "from_json",
    "MERGE_TOL",
    "PRUNE_TOL",
    "ZERO_WAVENUMBER_TOL",
    "SMALL_WAVENUMBER_TOL",
    "DEGREE_CAP",
]

# canonicalize merges wavevectors that share a cell of side MERGE_TOL * scale / 2,
# so merged ones are closer than MERGE_TOL * scale (scale: largest finite entry, >= 1)
MERGE_TOL = 1e-12
# monomial coefficients below PRUNE_TOL * (largest coefficient) are dropped
PRUNE_TOL = 1e-14
# below this a wavenumber is treated as exactly zero (polynomial branch)
ZERO_WAVENUMBER_TOL = 1e-12
# below this (but nonzero) integration switches to the series branch to
# avoid the 1/mu cancellation
SMALL_WAVENUMBER_TOL = 1e-6
# coordinate magnitude assumed when sizing the series truncation
_SERIES_XSCALE = 100.0

# total polynomial degree cap per term; degrees only grow through degenerate
# limits and repeated reflection integrals, so blowing past this is a bug
DEGREE_CAP = 8
# _term checks a term (lengths, DEGREE_CAP) and is used wherever degrees can
# rise or come from outside; where they come from a checked term and cannot
# rise (derivative, exact antiderivative, substitution, relabelling),
# _build only drops zero coefficients and sorts the rest.
# _embed takes a plane-wave term (one degree-0 monomial) in closed form, with the
# general path's float operations and _build's checks; every other term takes
# that path.  The Yang-Baxter block engine repeats, on bare (wavevector,
# coefficient) rows, that closed form and the float operations that
# _exp_antiderivative and _at_bound make on a plane wave, and merges the rows
# with merge_rows, which builds terms only for the rows that survive


class DegreeCapError(ValueError):
    pass


@dataclass(frozen=True)
class Bound:
    """Integration/substitution limit: a constant or another coordinate."""

    kind: str  # "constant" | "coordinate"
    value: complex | int

    @staticmethod
    def const(c: complex) -> "Bound":
        return Bound("constant", complex(c))

    @staticmethod
    def coord(k: int) -> "Bound":
        if k < 1:
            raise ValueError("coordinate index is 1-based")
        return Bound("coordinate", int(k))


@dataclass(slots=True)
class ExpPolyTerm:
    """One term p(x) * exp(i <mu, x>); coeffs maps multidegree -> complex.
    Built by _term or _build; nothing checks it on construction, and nothing
    mutates it once built."""

    n: int
    wavevector: tuple[complex, ...]
    coeffs: tuple[tuple[tuple[int, ...], complex], ...]


def _term(n: int, wavevector, coeffs: Mapping[tuple[int, ...], complex]) -> ExpPolyTerm:
    # the one place a term is checked: every degree-raising operation builds here
    wv = tuple(complex(m) for m in wavevector)
    items = tuple(sorted((tuple(d), complex(c)) for d, c in coeffs.items() if c != 0))
    if len(wv) != n:
        raise ValueError("wavevector length mismatch")
    for deg, _ in items:
        if len(deg) != n:
            raise ValueError("degree length mismatch")
        if sum(deg) > DEGREE_CAP:
            raise DegreeCapError(f"total degree {sum(deg)} exceeds cap {DEGREE_CAP}")
    return ExpPolyTerm(n, wv, items)


def _build(n: int, wavevector, coeffs: dict[tuple[int, ...], complex]) -> ExpPolyTerm:
    """The term on the first n slots: zero coefficients dropped (a NaN is
    kept), the rest sorted, then the slots past n dropped, which must be
    unused: an exactly zero wavenumber and no degree."""
    items = sorted([item for item in coeffs.items() if item[1]])
    if len(wavevector) > n:
        unused = (0,) * (len(wavevector) - n)
        kept = [(d[:n], c) for d, c in items if d[n:] == unused]
        if any(wavevector[n:]) or len(kept) < len(items):
            raise ValueError(f"a dropped slot past {n} carries a wavenumber or a monomial")
        items = kept
    return ExpPolyTerm(n, tuple(wavevector[:n]), tuple(items))


@dataclass(frozen=True)
class ExpPolySum:
    """Finite sum of ExpPolyTerms over the same variable set."""

    n: int
    terms: tuple[ExpPolyTerm, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for t in self.terms:
            if t.n != self.n:
                raise ValueError("term dimension mismatch")

    def eval(self, x: Iterable[complex]) -> complex:
        """The value at x, term by term: the monomials c * x**deg summed in
        order, times exp(i <mu, x>) with the phase summed slot by slot."""
        xv = tuple(x)
        if len(xv) != self.n:
            raise ValueError("dimension mismatch")
        total = 0j
        for t in self.terms:
            poly = 0j
            for deg, c in t.coeffs:
                if any(deg):
                    for xj, dj in zip(xv, deg):
                        if dj:
                            c *= xj**dj
                poly += c
            total += poly * cmath.exp(1j * sum(map(operator.mul, t.wavevector, xv)))
        return total

    @cached_property
    def _packed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Wavevectors (terms x n), monomial degrees (monomials x n), the
        monomials' coefficients and the index of the term owning each."""
        rows = [(k, d, c) for k, t in enumerate(self.terms) for d, c in t.coeffs]
        waves = np.array([t.wavevector for t in self.terms], dtype=complex)
        degs = np.array([d for _, d, _ in rows], dtype=int)
        return (
            waves.reshape(len(self.terms), self.n),
            degs.reshape(len(rows), self.n),
            np.array([c for _, _, c in rows], dtype=complex),
            np.array([k for k, _, _ in rows], dtype=int),
        )

    def eval_many(self, X) -> np.ndarray:
        """Values at the rows of the real array X (points x n), packing the
        terms into arrays on the first call.

        Each value follows eval's loop, term after term, so the two agree
        to the bit except in the sign of a zero and through x**d on
        nonzero degrees (numpy's power may round differently).

        >>> plane_wave((2.0, -1.0)).eval_many([(0.0, 0.0), (1.0, 2.0)])
        array([1.+0.j, 1.+0.j])
        """
        X = np.asarray(X, dtype=float)
        waves, degs, coeffs, owner = self._packed
        if not len(waves):
            return np.zeros(len(X), dtype=complex)
        # one row per term (monos: per monomial), one column per point
        phase = np.zeros((len(waves), len(X)), dtype=complex)
        for j in range(self.n):
            phase = phase + waves[:, j, None] * X[:, j]
        wave = np.exp(1j * phase)
        if degs.any():
            monos = coeffs[:, None]
            for j in np.flatnonzero(degs.any(axis=0)):
                monos = monos * X[:, j] ** degs[:, j, None]
            poly = np.zeros(phase.shape, dtype=complex)
            for k, t in enumerate(owner):
                poly[t] = poly[t] + monos[k]
        else:
            # all degrees zero: one monomial per term, owner is the identity
            poly = coeffs[:, None]
        # numpy's complex product may fuse multiply-adds; eval's does not
        values = np.empty(phase.shape, dtype=complex)
        values.real = poly.real * wave.real - poly.imag * wave.imag
        values.imag = poly.real * wave.imag + poly.imag * wave.real
        # a running sum, term after term, as eval adds them
        return np.add.accumulate(values)[-1]

    def __add__(self, other: "ExpPolySum") -> "ExpPolySum":
        return add(self, other)

    def __sub__(self, other: "ExpPolySum") -> "ExpPolySum":
        return add(self, scale(-1.0, other))

    def __mul__(self, other):
        if isinstance(other, ExpPolySum):
            return mul(self, other)
        return scale(other, self)

    __rmul__ = __mul__


def zero(n: int) -> ExpPolySum:
    return ExpPolySum(n, ())


def constant(c: complex, n: int) -> ExpPolySum:
    return ExpPolySum(n, (_term(n, (0.0,) * n, {(0,) * n: complex(c)}),))


def plane_wave(mu: Iterable[complex]) -> ExpPolySum:
    """exp(i <mu, x>).

    >>> plane_wave((0.0,)).eval((123.0,))
    (1+0j)
    """
    mv = tuple(complex(m) for m in mu)
    n = len(mv)
    return ExpPolySum(n, (_term(n, mv, {(0,) * n: 1.0 + 0j}),))


def monomial(deg: tuple[int, ...], coeff: complex, mu: Iterable[complex]) -> ExpPolySum:
    """coeff * x^deg * exp(i <mu, x>)."""
    mv = tuple(complex(m) for m in mu)
    return ExpPolySum(len(mv), (_term(len(mv), mv, {tuple(deg): complex(coeff)}),))


def add(f: ExpPolySum, g: ExpPolySum) -> ExpPolySum:
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    return ExpPolySum(f.n, f.terms + g.terms)


def scale(c: complex, f: ExpPolySum) -> ExpPolySum:
    c = complex(c)
    if c == 0:
        return zero(f.n)
    # degrees and ordering are unchanged, so terms rebuild directly
    return ExpPolySum(
        f.n,
        tuple(
            ExpPolyTerm(
                t.n, t.wavevector, tuple((d, c * a) for d, a in t.coeffs)
            )
            for t in f.terms
        ),
    )


def mul(f: ExpPolySum, g: ExpPolySum) -> ExpPolySum:
    """Pointwise product: polynomials multiply, wavevectors add."""
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    out: list[ExpPolyTerm] = []
    for s in f.terms:
        for t in g.terms:
            wv = tuple(a + b for a, b in zip(s.wavevector, t.wavevector))
            coeffs: dict[tuple[int, ...], complex] = {}
            for d1, c1 in s.coeffs:
                for d2, c2 in t.coeffs:
                    d = tuple(a + b for a, b in zip(d1, d2))
                    coeffs[d] = coeffs.get(d, 0j) + c1 * c2
            out.append(_term(f.n, wv, coeffs))
    return canonicalize(ExpPolySum(f.n, tuple(out)))


def derivative(f: ExpPolySum, j: int) -> ExpPolySum:
    """Exact d/dx_j (1-based j).

    >>> derivative(plane_wave((3.0,)), 1).eval((0.0,))
    3j
    """
    out: list[ExpPolyTerm] = []
    for t in f.terms:
        muj = t.wavevector[j - 1]
        coeffs: dict[tuple[int, ...], complex] = {}
        for deg, c in t.coeffs:
            dj = deg[j - 1]
            if dj:
                lower = deg[: j - 1] + (dj - 1,) + deg[j:]
                coeffs[lower] = coeffs.get(lower, 0j) + dj * c
            if muj != 0:
                coeffs[deg] = coeffs.get(deg, 0j) + 1j * muj * c
        if coeffs:
            out.append(_build(t.n, t.wavevector, coeffs))
    return ExpPolySum(f.n, tuple(out))


def _poly_antiderivative(t: ExpPolyTerm, j: int) -> ExpPolyTerm:
    coeffs: dict[tuple[int, ...], complex] = {}
    for deg, c in t.coeffs:
        dj = deg[j - 1]
        up = deg[: j - 1] + (dj + 1,) + deg[j:]
        coeffs[up] = coeffs.get(up, 0j) + c / (dj + 1)
    wv = t.wavevector[: j - 1] + (0j,) + t.wavevector[j:]
    return _term(t.n, wv, coeffs)


def _exp_antiderivative(t: ExpPolyTerm, j: int) -> ExpPolyTerm:
    # F = e^{i mu_j x_j} sum_k (-1)^k p^{(k)} / (i mu_j)^{k+1}, with p^{(k)}
    # the k-th x_j-derivative of the polynomial part; the sum terminates
    muj = t.wavevector[j - 1]
    inv = 1.0 / (1j * muj)
    coeffs: dict[tuple[int, ...], complex] = {}
    work = dict(t.coeffs)
    sign = 1.0
    power = inv
    while work:
        nxt: dict[tuple[int, ...], complex] = {}
        for deg, c in work.items():
            coeffs[deg] = coeffs.get(deg, 0j) + sign * power * c
            dj = deg[j - 1]
            if dj:
                lower = deg[: j - 1] + (dj - 1,) + deg[j:]
                nxt[lower] = nxt.get(lower, 0j) + dj * c
        work = nxt
        sign = -sign
        power *= inv
    return _build(t.n, t.wavevector, coeffs)


def _series_antiderivative(t: ExpPolyTerm, j: int) -> ExpPolyTerm:
    # tiny but nonzero wavenumber: integrate the truncated Taylor expansion
    # of e^{i mu_j x_j}, avoiding the 1/mu_j cancellation of the exact form
    muj = t.wavevector[j - 1]
    u = abs(muj) * _SERIES_XSCALE
    nterms, bound = 1, u
    while bound > 2.0**-53 and nterms < 12:
        nterms += 1
        bound *= u / (nterms + 1)
    coeffs: dict[tuple[int, ...], complex] = {}
    factor = 1.0 + 0j
    for k in range(nterms + 1):
        for deg, c in t.coeffs:
            up = deg[j - 1] + k + 1
            d = deg[: j - 1] + (up,) + deg[j:]
            coeffs[d] = coeffs.get(d, 0j) + c * factor / up
        factor *= 1j * muj / (k + 1)
    wv = t.wavevector[: j - 1] + (0j,) + t.wavevector[j:]
    return _term(t.n, wv, coeffs)


def _antiderivative(t: ExpPolyTerm, j: int) -> ExpPolyTerm:
    """One term whose x_j-derivative is t: polynomial below
    ZERO_WAVENUMBER_TOL, a Taylor series below SMALL_WAVENUMBER_TOL, exact
    above."""
    a = abs(t.wavevector[j - 1])
    if a < ZERO_WAVENUMBER_TOL:
        return _poly_antiderivative(t, j)
    if a < SMALL_WAVENUMBER_TOL:
        return _series_antiderivative(t, j)
    return _exp_antiderivative(t, j)


def _at_bound(t: ExpPolyTerm, j: int, b: Bound, n: int, sign: float = 1.0) -> ExpPolyTerm:
    """sign * t with x_j := b on its first n slots: the one substitution rule."""
    muj = t.wavevector[j - 1]
    wv = list(t.wavevector)
    wv[j - 1] = 0j
    coeffs: dict[tuple[int, ...], complex] = {}
    if b.kind == "coordinate":
        # x_j^a e^{i mu_j x_j} -> x_k^a e^{i mu_j x_k}
        k = b.value
        wv[k - 1] += muj
        for deg, c in t.coeffs:
            d = list(deg)
            d[k - 1] += d[j - 1]
            d[j - 1] = 0
            d = tuple(d)
            coeffs[d] = coeffs.get(d, 0j) + sign * c
    else:
        const = b.value
        phase = sign * cmath.exp(1j * muj * const)
        for deg, c in t.coeffs:
            w = 1.0 + 0j
            for _ in range(deg[j - 1]):
                w *= const
            d = deg[: j - 1] + (0,) + deg[j:]
            coeffs[d] = coeffs.get(d, 0j) + c * w * phase
    return _build(n, wv, coeffs)


def _integrate_term(
    t: ExpPolyTerm, j: int, lower: Bound, upper: Bound, n: int
) -> tuple[ExpPolyTerm, ExpPolyTerm]:
    """The integral of t over x_j as two terms on the first n slots: the
    antiderivative at the upper bound, and minus it at the lower bound."""
    anti = _antiderivative(t, j)
    return _at_bound(anti, j, upper, n), _at_bound(anti, j, lower, n, -1.0)


def integrate(f: ExpPolySum, j: int, lower: Bound, upper: Bound) -> ExpPolySum:
    """Definite integral over x_j between bounds free of x_j.

    >>> f = constant(1.0, 2)
    >>> integrate(f, 1, Bound.const(0.0), Bound.coord(2)).eval((9.0, 0.5))
    (0.5+0j)
    """
    for b in (lower, upper):
        if b.kind == "coordinate" and b.value == j:
            raise ValueError("bound references the integration variable")
    terms = tuple(u for t in f.terms for u in _integrate_term(t, j, lower, upper, f.n))
    return canonicalize(ExpPolySum(f.n, terms))


def substitute(f: ExpPolySum, j: int, b: Bound) -> ExpPolySum:
    """Set x_j := b (constant, or another coordinate x_k), exactly.

    The result no longer depends on x_j (slot kept, unused).

    >>> g = substitute(plane_wave((2.0, 5.0)), 1, Bound.coord(2))
    >>> g.eval((0.0, 1.0)) == cmath.exp(7j)
    True
    """
    if b.kind == "coordinate" and b.value == j:
        raise ValueError("self-substitution")
    return ExpPolySum(f.n, tuple(_at_bound(t, j, b, f.n) for t in f.terms))


def _linear_power(
    lin: Mapping[int, complex], a: int, n: int
) -> list[tuple[tuple[int, ...], complex]]:
    """Multidegree/coefficient expansion of (sum lin[m] x_m)^a."""
    expansion: dict[tuple[int, ...], complex] = {(0,) * n: 1.0 + 0j}
    for _ in range(a):
        nxt: dict[tuple[int, ...], complex] = {}
        for deg, w in expansion.items():
            for m, cm in lin.items():
                d = deg[: m - 1] + (deg[m - 1] + 1,) + deg[m:]
                nxt[d] = nxt.get(d, 0j) + w * cm
        expansion = nxt
    return list(expansion.items())


def pullback(
    f: ExpPolySum, rows: Mapping[int, Mapping[int, complex]], new_n: int
) -> ExpPolySum:
    """Simultaneous linear change of variables g(x) = f(y),
    y_m = sum_p rows[m][p] * x_p.

    All input slots are substituted at once, so replacement expressions may
    freely mention output slots that share indices with replaced inputs.
    """
    if set(rows) != set(range(1, f.n + 1)):
        raise ValueError("rows must cover every input slot")
    out: list[ExpPolyTerm] = []
    for t in f.terms:
        wv = [0j] * new_n
        for m in range(1, f.n + 1):
            mum = t.wavevector[m - 1]
            if mum == 0:
                continue
            for p, cp in rows[m].items():
                wv[p - 1] += mum * cp
        coeffs: dict[tuple[int, ...], complex] = {}
        for deg, c in t.coeffs:
            expansion: dict[tuple[int, ...], complex] = {(0,) * new_n: c}
            for m in range(1, f.n + 1):
                a = deg[m - 1]
                if a == 0:
                    continue
                factors = _linear_power(rows[m], a, new_n)
                nxt: dict[tuple[int, ...], complex] = {}
                for d1, w1 in expansion.items():
                    for d2, w2 in factors:
                        d = tuple(b + e for b, e in zip(d1, d2))
                        nxt[d] = nxt.get(d, 0j) + w1 * w2
                expansion = nxt
            for d, w in expansion.items():
                coeffs[d] = coeffs.get(d, 0j) + w
        out.append(_term(new_n, tuple(wv), coeffs))
    return ExpPolySum(new_n, tuple(out))


def _embed(
    t: ExpPolyTerm, slots, wavevector: list[complex], c: complex
) -> ExpPolyTerm:
    """c * t(x[slots]) * exp(i <wavevector, x>) on len(wavevector) slots:
    term t with its slot r moved to slot slots[r], the slots distinct.
    This is pullback by a map of distinct unit rows, then mul by a plane
    wave, in one step."""
    n = len(wavevector)
    wv = list(wavevector)
    for s, m in zip(slots, t.wavevector):
        # a zero entry takes m itself: a relabelled term shares the
        # wavenumber objects of t instead of holding fresh copies
        wv[s - 1] = wv[s - 1] + m if wv[s - 1] else m
    if len(t.coeffs) == 1 and not any(t.coeffs[0][0]):
        value = t.coeffs[0][1] * c
        return ExpPolyTerm(n, tuple(wv), (((0,) * n, value),) if value else ())
    coeffs: dict[tuple[int, ...], complex] = {}
    for deg, a in t.coeffs:
        d = [0] * n
        for s, e in zip(slots, deg):
            d[s - 1] = e
        coeffs[tuple(d)] = a * c
    return _build(n, wv, coeffs)


def _truncate(t: ExpPolyTerm, n: int) -> ExpPolyTerm:
    """t on its first n slots, which _build checks are the used ones."""
    return _build(n, t.wavevector, dict(t.coeffs))


def canonicalize(f: ExpPolySum) -> ExpPolySum:
    """Merge terms whose wavevectors share a cell, prune tiny coefficients,
    in one pass over the terms: combine with f as its one part.

    >>> f = plane_wave((1.0,))
    >>> canonicalize(f - f).terms
    ()
    """
    return combine(f.n, [((), f)])


def _cell_keys(entries) -> dict:
    """Each wavevector entry's cell key, as combine states it; the cell scales
    with the largest finite entry, so a non-finite one merges only with its equal."""
    cell = MERGE_TOL * max([1.0] + [a for m in entries if (a := abs(m)) < math.inf]) / 2
    return {m: (round(m.real / cell), round(m.imag / cell)) if cmath.isfinite(m) else m for m in entries}


def _modulus(c: complex) -> float:
    try:
        return abs(c)
    except OverflowError:
        return math.inf


def _floor(coefficients: list[complex]) -> tuple[Iterator[float], float]:
    """The moduli, one past the float range read as infinite, in order, and
    PRUNE_TOL times the largest finite one (so an infinite one prunes nothing)."""
    try:
        moduli = list(map(abs, coefficients))
    except OverflowError:
        # only where abs raises: a finite coefficient past the float range
        moduli = list(map(_modulus, coefficients))
    return iter(moduli), PRUNE_TOL * max([0.0] + [a for a in moduli if a < math.inf])


def combine(n: int, parts: Iterable[tuple[Iterable[complex], ExpPolySum]]) -> ExpPolySum:
    """The canonical form of the sum of every f in parts, each part (factors,
    f) scaled by its factors in turn, made in one merge with no intermediate
    sum or term: canonicalize(add(scale(c_k, ... scale(c_1, f)), ...)).

    A coefficient a becomes c_k * (... (c_1 * a)) with c = complex(factor),
    read as it merges; a part with a zero factor adds nothing.  A finite
    entry m is keyed (round(m.real / cell), round(m.imag / cell)), cell =
    MERGE_TOL * scale / 2 with scale the largest finite |entry| (at least
    1); a non-finite entry is keyed as itself, and one of modulus past the
    float range raises OverflowError.  Terms of one cell, whose entries
    differ by less than MERGE_TOL * scale, merge into the first, which
    keeps its wavevector; a close pair split by a cell edge stays two terms.
    Monomials below PRUNE_TOL times the largest finite coefficient are
    dropped; a coefficient of modulus past the float range is infinite.
    """
    scaled = []
    for factors, f in parts:
        if f.n != n:
            raise ValueError("dimension mismatch")
        factors = [complex(c) for c in factors]
        if all(factors):
            scaled.append((factors, f.terms))
    # each distinct entry is keyed once
    cells = _cell_keys({m for _, terms in scaled for t in terms for m in t.wavevector})
    # cell key -> (the representative's wavevector, its merged coefficients)
    merged: dict[tuple, tuple[tuple[complex, ...], dict[tuple[int, ...], complex]]] = {}
    for factors, terms in scaled:
        for t in terms:
            key = tuple(map(cells.__getitem__, t.wavevector))
            rep = merged.get(key)
            fresh = rep is None
            if fresh:
                rep = merged[key] = (t.wavevector, {})
            coeffs = rep[1]
            for deg, a in t.coeffs:
                for c in factors:
                    a = c * a
                # a cell's first term keeps its coefficients as they are,
                # where 0j + a would turn a -0.0 part of a into 0.0
                coeffs[deg] = a if fresh else coeffs.get(deg, 0j) + a
    moduli, floor = _floor([c for _, coeffs in merged.values() for c in coeffs.values()])
    out = []
    for wv, coeffs in merged.values():
        # written so that a NaN coefficient is kept, not pruned; a zero is pruned
        kept = [item for item, a in zip(coeffs.items(), moduli) if not a <= floor]
        if kept:
            kept.sort()
            out.append(ExpPolyTerm(n, wv, tuple(kept)))
    return ExpPolySum(n, tuple(out))


def merge_rows(n: int, rows: list[tuple[list[complex], complex]]) -> ExpPolySum:
    """canonicalize of the plane waves c e^{i <wv, x>}, one per (wv, c) row on
    n slots, each c nonzero, by combine's rules, building only the surviving terms."""
    cells = _cell_keys({m for wv, _ in rows for m in wv})
    merged: dict[tuple, list] = {}
    for wv, c in rows:
        key = tuple(map(cells.__getitem__, wv))
        rep = merged.get(key)
        if rep is None:
            merged[key] = [wv, c]
        else:
            rep[1] = rep[1] + c
    moduli, floor = _floor([c for _, c in merged.values()])
    deg = (0,) * n
    kept = zip(merged.values(), moduli)
    return ExpPolySum(n, tuple(ExpPolyTerm(n, tuple(wv), ((deg, c),)) for (wv, c), a in kept if not a <= floor))


@dataclass(frozen=True)
class SumArrays:
    """Sums on n slots (entries, the last axis) over their distinct
    monomials (columns): per column the index of its wavevector in waves
    and its degree, the columns of one wavevector adjacent and by degree;
    same_term marks pairs of columns of one wavevector (None when each
    wavevector has one column).  Per column and entry: the coefficient,
    real and imaginary parts on the first axis, 0.0 where absent; whether
    the monomial is present; and the rank of its term in the entry's term
    order, -1 where the entry has no term of that wavevector.  Made by
    to_arrays; a caller merges the entries of these arrays by combine's
    rule with _times, prune and to_sums."""

    n: int
    wave_of: tuple[int, ...]
    degs: tuple[tuple[int, ...], ...]
    waves: tuple[tuple[complex, ...], ...]
    same_term: np.ndarray | None
    coeffs: np.ndarray
    present: np.ndarray
    rank: np.ndarray

    def prune(self, coeffs: np.ndarray, present: np.ndarray, rank: np.ndarray):
        """combine's floor on each entry of the arrays (coeffs, present,
        rank) over all columns: a monomial at most PRUNE_TOL times the
        entry's largest finite modulus is dropped (coefficient 0.0), a NaN
        is kept, and a term left with no monomial loses its rank (-1)."""
        # a finite coefficient whose modulus exceeds the float range reads as
        # infinite, as in combine: kept, and left out of the floor
        with np.errstate(over="ignore"):
            mag = np.hypot(*coeffs)
        floor = PRUNE_TOL * np.where(mag < np.inf, mag, 0.0).max(axis=0, initial=0.0)
        # present and not (mag <= floor), so that a NaN is kept
        present = np.greater(present, mag <= floor)
        terms = present if self.same_term is None else self.same_term @ present
        return np.where(present, coeffs, 0.0), present, np.where(terms, rank, -1)

    def to_sums(self, coeffs: np.ndarray, present: np.ndarray, rank: np.ndarray) -> list[ExpPolySum]:
        """The entries of the arrays (coeffs, present, rank) over all columns
        as sums, terms in rank order, each term's monomials by degree; the
        terms share the wavevector tuples of waves."""
        width = len(self.degs)
        key = np.where(present, rank * width + np.arange(width)[:, None], _LAST)
        z = np.empty(present.shape, dtype=complex)
        z.real, z.imag = coeffs
        out = []
        for order, count, values in zip(np.argsort(key, axis=0).T.tolist(), present.sum(axis=0).tolist(), z.T.tolist()):
            terms = []
            for m in order[:count]:
                w = self.wave_of[m]
                if terms and terms[-1][0] == w:
                    terms[-1][1].append((self.degs[m], values[m]))
                else:
                    terms.append((w, [(self.degs[m], values[m])]))
            out.append(ExpPolySum(self.n, tuple(ExpPolyTerm(self.n, self.waves[w], tuple(items)) for w, items in terms)))
        return out


# a sort key above every present monomial's
_LAST = np.iinfo(np.int64).max


def to_arrays(n: int, sums: list[ExpPolySum]) -> SumArrays:
    """sums as arrays.  An entry's terms are read as combine merges one
    part: the first term of a wavevector keeps its coefficients as they
    are, a later term of the same wavevector adds its own, so a repeated
    wavevector becomes one term (nothing is pruned).  Wavevectors are told
    apart by their bits; non-finite ones, and two that are within MERGE_TOL
    times the largest wavenumber in every slot (which combine might merge
    into one term), are refused with ValueError."""
    by_id, by_bits, waves, columns, rows = {}, {}, [], {}, []
    for f in sums:
        if f.n != n:
            raise ValueError("dimension mismatch")
        values, ranks = {}, {}
        for t in f.terms:
            w = by_id.get(id(t.wavevector))
            if w is None:
                w = by_id[id(t.wavevector)] = by_bits.setdefault(
                    np.array(t.wavevector, dtype=complex).tobytes(), len(waves)
                )
                if w == len(waves):
                    waves.append(t.wavevector)
            fresh = w not in ranks
            if fresh:
                ranks[w] = len(ranks)
            for deg, c in t.coeffs:
                m = columns.setdefault((w, deg), len(columns))
                values[m] = c if fresh else values.get(m, 0j) + c
        rows.append((values, ranks))
    W = np.array(waves, dtype=complex).reshape(len(waves), n)
    if not np.isfinite(W).all():
        raise ValueError("the array form needs finite wavevectors")
    tol = MERGE_TOL * max(1.0, np.abs(W).max(initial=0.0))
    W = np.concatenate((W.real, W.imag), axis=1)
    for i in range(0, len(W), 64):
        # each wavevector is near itself
        if (abs(W[i:i + 64, None] - W) <= tol).all(axis=2).sum() > len(W[i:i + 64]):
            raise ValueError(f"two wavevectors are within {tol:.3g} of each other in every slot")

    keys = sorted(columns)
    position = np.empty(len(keys), dtype=int)
    position[[columns[k] for k in keys]] = np.arange(len(keys))
    wave_of = [w for w, _ in keys]
    r_at, m_at, c_at, r_rank, w_rank, ranks_at = [], [], [], [], [], []
    for r, (values, ranks) in enumerate(rows):
        r_at += [r] * len(values)
        m_at += values
        c_at += values.values()
        r_rank += [r] * len(ranks)
        w_rank += ranks
        ranks_at += ranks.values()
    m_at = position[m_at]
    z = np.zeros((len(keys), len(rows)), dtype=complex)
    z[m_at, r_at] = c_at
    present = np.zeros(z.shape, dtype=bool)
    present[m_at, r_at] = True
    wave_rank = np.full((len(waves), len(rows)), -1)
    wave_rank[w_rank, r_rank] = ranks_at
    return SumArrays(
        n,
        tuple(wave_of),
        tuple(d for _, d in keys),
        tuple(waves),
        None if len(set(wave_of)) == len(keys) else np.equal.outer(wave_of, wave_of),
        np.array((z.real, z.imag)),
        present,
        wave_rank[wave_of],
    )


def _times(re, im_signed: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(re + i im) * y for y held as real and imaginary parts on its third
    axis from the end, im_signed = (-im, im) on that axis: Python's complex
    product, written out so that numpy cannot fuse a multiply-add."""
    return re * y + im_signed * y[..., ::-1, :, :]


def to_json(f: ExpPolySum) -> dict:
    return {
        "terms": [
            {
                "wavevector": [[m.real, m.imag] for m in t.wavevector],
                "monomials": [
                    {"deg": list(d), "coeff": [c.real, c.imag]} for d, c in t.coeffs
                ],
            }
            for t in f.terms
        ]
    }


def from_json(data: dict, n: int | None = None) -> ExpPolySum:
    terms = []
    for td in data["terms"]:
        wv = tuple(complex(re, im) for re, im in td["wavevector"])
        if n is None:
            n = len(wv)
        coeffs = {
            tuple(m["deg"]): complex(m["coeff"][0], m["coeff"][1])
            for m in td["monomials"]
        }
        terms.append(_term(n, wv, coeffs))
    if n is None:
        raise ValueError("cannot infer dimension from an empty sum")
    return ExpPolySum(n, tuple(terms))

