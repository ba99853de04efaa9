"""Closed algebra of exp-polynomial functions p(x) * exp(i<mu, x>).

Every analytic piece handled by the engine lives in this ring: plane waves,
their polynomial-prefactor degenerate limits, and everything the nested
integral operators produce.  Derivatives, definite integrals with constant
or coordinate bounds, substitutions and linear changes of variables are
all computed in closed form, so downstream identity checks are exact up to
float rounding.

Sums merge by one rule, combine's: canonicalize and merge_rows follow it,
and so does the array form of many plane-wave sums at once.  to_arrays
reads plane-wave sums over wavevectors that its caller names, rows in the
caller's order, into a coefficient array and a rank array; a term that is
not one degree-0 monomial, or whose wavevector is not named, is refused
with ValueError.  A caller merges their entries with the written-out
complex product (_times), prune and to_sums, bit for bit as combine would
(the deformed words of momrep, over the orbit's points).

A sum is read at a point by eval, from a flat form of its terms cached
on the sum at the first read (_flat): a plane-wave term (one degree-0
monomial c) keeps its polynomial part 0j + c, any other term its
monomials, and both keep their wavevector object.  Sums on 2 to 4 slots,
which the suites, the route cross-checks and qnls eval read most, each
have a reader of their own (_READERS): it unpacks the point and each
wavevector into locals and writes the phase sum out slot by slot, where
the generic loop (_read_any, which every other n takes) spends most of a
term on reduce(add, map(mul, ...), 0).  Both make the phase as the same
left fold from int 0 (the fold sum() made before CPython 3.14, which
sums complex items with compensation), so both read the same value to
the bit on every interpreter.  eval_many reads many points at once from
the terms packed into arrays (_packed).

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
from functools import cached_property, reduce
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
    "merge_row_arrays",
    "to_arrays",
    "prune",
    "to_sums",
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
# A plane-wave term (one degree-0 monomial c) skips _build wherever it is
# moved or differentiated, with the general path's float operations in the
# same order: derivative makes 0j + 1j * mu_j * c on its wavevector, _embed
# builds it in closed form in _placed, and _relabel gathers each wavevector
# through the inverse permutation and shares one coefficient tuple (c * 1.0)
# among all the permutations it is given; scale multiplies a one-monomial
# term without a loop (_scaled).  The Yang-Baxter block engine and
# alcovefn's reflection integral repeat, on bare (wavevector, coefficient)
# rows, the closed form of _placed (or pullback's), integrate each row with
# _integrate_row, the float operations that _exp_antiderivative and
# _at_bound make on a plane wave, and merge the rows with merge_rows, which
# builds terms only for the rows that survive, keys them by their
# wavevector where no cell holds two distinct entries, and keeps a term that
# combine handed it unmerged and unscaled as it is


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


def _poly(coeffs, xv: tuple) -> complex:
    """The monomials c * x**deg of a flat term summed in order from 0j."""
    poly = 0j
    for deg, c in coeffs:
        if any(deg):
            for xj, dj in zip(xv, deg):
                if dj:
                    c *= xj**dj
        poly += c
    return poly


def _read_any(flat: tuple, xv: tuple) -> complex:
    """The terms of a flat form read at xv and summed in order from 0j,
    each phase summed slot by slot in a left fold from int 0."""
    total = 0j
    for wave, poly, coeffs in flat:
        if coeffs is not None:
            poly = _poly(coeffs, xv)
        total += poly * cmath.exp(1j * reduce(operator.add, map(operator.mul, wave, xv), 0))
    return total


# _read_any for n = 2..4 with the phase fold written out, so the same float
# operations in the same order; one slot gains too little to have its own


def _read2(flat: tuple, xv: tuple) -> complex:
    x0, x1 = xv
    exp = cmath.exp
    total = 0j
    for (w0, w1), poly, coeffs in flat:
        if coeffs is not None:
            poly = _poly(coeffs, xv)
        total += poly * exp(1j * (0 + w0 * x0 + w1 * x1))
    return total


def _read3(flat: tuple, xv: tuple) -> complex:
    x0, x1, x2 = xv
    exp = cmath.exp
    total = 0j
    for (w0, w1, w2), poly, coeffs in flat:
        if coeffs is not None:
            poly = _poly(coeffs, xv)
        total += poly * exp(1j * (0 + w0 * x0 + w1 * x1 + w2 * x2))
    return total


def _read4(flat: tuple, xv: tuple) -> complex:
    x0, x1, x2, x3 = xv
    exp = cmath.exp
    total = 0j
    for (w0, w1, w2, w3), poly, coeffs in flat:
        if coeffs is not None:
            poly = _poly(coeffs, xv)
        total += poly * exp(1j * (0 + w0 * x0 + w1 * x1 + w2 * x2 + w3 * x3))
    return total


_READERS = {2: _read2, 3: _read3, 4: _read4}


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
        order from 0j, times exp(i <mu, x>) with the phase summed slot by
        slot, and the terms summed in order from 0j.  The terms are read
        from their flat form (_flat), cached on the sum at the first read,
        where a plane-wave term's monomial sum is already 0j + c."""
        xv = tuple(x)
        if len(xv) != self.n:
            raise ValueError("dimension mismatch")
        return self._value(xv)

    @cached_property
    def _flat(self) -> tuple[tuple, ...]:
        """Per term (wavevector, poly, coeffs): poly is 0j + c and coeffs
        None for a term with one degree-0 monomial c; otherwise poly is None
        and coeffs the term's monomials."""
        return tuple(
            (t.wavevector, 0j + t.coeffs[0][1], None)
            if len(t.coeffs) == 1 and not any(t.coeffs[0][0])
            else (t.wavevector, None, t.coeffs)
            for t in self.terms
        )

    def _value(self, xv: tuple) -> complex:
        """eval's body at a tuple xv of length n: the flat form read by the
        reader of _READERS for n, or else by _read_any."""
        return _READERS.get(self.n, _read_any)(self._flat, xv)

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
        if X.ndim != 2 or X.shape[1] != self.n:
            raise ValueError("dimension mismatch")
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
    return ExpPolySum(f.n, _scaled(c, f.terms))


def _scaled(c: complex, terms) -> tuple[ExpPolyTerm, ...]:
    """c * t for each term t, c a nonzero complex: degrees and ordering are
    unchanged, so terms rebuild directly, a one-monomial term without a loop."""
    return tuple(
        ExpPolyTerm(t.n, t.wavevector, ((t.coeffs[0][0], c * t.coeffs[0][1]),))
        if len(t.coeffs) == 1
        else ExpPolyTerm(t.n, t.wavevector, tuple((d, c * a) for d, a in t.coeffs))
        for t in terms
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


def _check_slots(n: int, j: int, *bounds: Bound) -> None:
    """Refuse a slot j, or a coordinate bound, outside 1..n."""
    for k in (j, *(b.value for b in bounds if b.kind == "coordinate")):
        if not 1 <= k <= n:
            raise ValueError(f"slot {k} out of range 1..{n}")


def derivative(f: ExpPolySum, j: int) -> ExpPolySum:
    """Exact d/dx_j (1-based j).

    >>> derivative(plane_wave((3.0,)), 1).eval((0.0,))
    3j
    """
    _check_slots(f.n, j)
    deg0 = (0,) * f.n
    out: list[ExpPolyTerm] = []
    for t in f.terms:
        muj = t.wavevector[j - 1]
        if len(t.coeffs) == 1 and t.coeffs[0][0] == deg0:
            # a plane wave: the general path's one sum, no term where mu_j
            # is 0, and one without coefficients where the sum is zero
            if muj != 0:
                value = 0j + 1j * muj * t.coeffs[0][1]
                out.append(ExpPolyTerm(t.n, t.wavevector, ((deg0, value),) if value else ()))
            continue
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


def _integrate_row(wv: list[complex], c: complex, j: int, bounds, consts) -> list | None:
    """_integrate_term on the plane wave c e^{i <wv, x>} over its last slot
    j, as bare (wavevector, coefficient) rows on the slots before j: the
    upper bound's row, then the lower's, with the float operations of
    _exp_antiderivative, then _at_bound per bound.  bounds is (lower,
    upper), each ("coord", k) for x_k or (kind, key) for the constant
    consts[key].  None where |mu_j| is below SMALL_WAVENUMBER_TOL (or NaN)
    or a coefficient is zero, which only the general path handles."""
    muj = wv[j - 1]
    if not abs(muj) >= SMALL_WAVENUMBER_TOL or not (a := 0j + (1.0 * (1.0 / (1j * muj))) * c):
        return None
    lower, upper = bounds
    rows = []
    for b, sign in ((upper, 1.0), (lower, -1.0)):
        w = wv[: j - 1]
        if b[0] == "coord":
            w[b[1] - 1] += muj
            value = 0j + sign * a
        else:
            value = 0j + a * (1.0 + 0j) * (sign * cmath.exp(1j * muj * consts[b[1]]))
        if not value:
            return None
        rows.append((w, value))
    return rows


def integrate(f: ExpPolySum, j: int, lower: Bound, upper: Bound) -> ExpPolySum:
    """Definite integral over x_j between bounds free of x_j.

    >>> f = constant(1.0, 2)
    >>> integrate(f, 1, Bound.const(0.0), Bound.coord(2)).eval((9.0, 0.5))
    (0.5+0j)
    """
    _check_slots(f.n, j, lower, upper)
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
    _check_slots(f.n, j, b)
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
    for p in {p for row in rows.values() for p in row}:
        _check_slots(new_n, p)
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
    wv = list(wavevector)
    for s, m in zip(slots, t.wavevector):
        # a zero entry takes m itself: a relabelled term shares the
        # wavenumber objects of t instead of holding fresh copies
        wv[s - 1] = wv[s - 1] + m if wv[s - 1] else m
    return _placed(len(wv), t, tuple(wv), slots, c)


def _relabel(f: ExpPolySum, perms) -> list[ExpPolySum]:
    """f with slot r moved to slot slots[r], for each permutation slots of
    1..n in perms: _embed of every term with no plane wave and factor 1.0.
    Each wavevector is read through the inverse permutation by one gather,
    and a plane-wave term's coefficients are made once for all of perms."""
    n = f.n
    deg0 = (0,) * n
    # per term: a plane wave's coefficients as _placed makes them, else None
    plane = [
        (((deg0, value),) if (value := t.coeffs[0][1] * 1.0) else ())
        if len(t.coeffs) == 1 and t.coeffs[0][0] == deg0
        else None
        for t in f.terms
    ]
    out = []
    for slots in perms:
        back = [0] * n
        for r, s in enumerate(slots):
            back[s - 1] = r
        # itemgetter of one index returns the entry, not a tuple
        gather = operator.itemgetter(*back) if n > 1 else tuple
        out.append(ExpPolySum(n, tuple(
            ExpPolyTerm(n, gather(t.wavevector), coeffs) if coeffs is not None
            else _placed(n, t, gather(t.wavevector), slots, 1.0)
            for t, coeffs in zip(f.terms, plane)
        )))
    return out


def _placed(n: int, t: ExpPolyTerm, wv: tuple, slots, c: complex) -> ExpPolyTerm:
    """c * t with its slot r moved to slot slots[r], on n slots and with
    wavevector wv: a plane-wave term (one degree-0 monomial) in closed form,
    with the general path's float operations and _build's checks; any other
    term through _build."""
    if len(t.coeffs) == 1 and t.coeffs[0][0] == (0,) * t.n:
        value = t.coeffs[0][1] * c
        return ExpPolyTerm(n, wv, (((0,) * n, value),) if value else ())
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
    Where every term is a plane wave (one degree-0 monomial), their scaled
    coefficients are merged as rows by merge_rows, which is this rule.
    """
    scaled = []
    for factors, f in parts:
        if f.n != n:
            raise ValueError("dimension mismatch")
        factors = [complex(c) for c in factors]
        if all(factors):
            scaled.append((factors, f.terms))
    deg = (0,) * n
    if all(len(t.coeffs) == 1 and t.coeffs[0][0] == deg for _, terms in scaled for t in terms):
        # plane waves only: merge_rows is this rule on their rows
        rows, sources = [], []
        for factors, terms in scaled:
            for t in terms:
                a = t.coeffs[0][1]
                for c in factors:
                    a = c * a
                rows.append((t.wavevector, a))
            sources += terms
        return _merge_rows(n, rows, sources)
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
    n slots, by combine's rules, building only the surviving terms (a zero c
    is pruned, as combine prunes it)."""
    return _merge_rows(n, rows, None)


def _merge_rows(n: int, rows, sources: list[ExpPolyTerm] | None) -> ExpPolySum:
    """merge_rows, where sources, if given, holds the term each row was read
    from: a surviving row that merged with nothing and kept that term's
    coefficient object is that term, not a new equal one."""
    cells = _cell_keys({m for wv, _ in rows for m in wv})
    # where no two distinct entries share a cell, rows share one exactly
    # where their wavevectors are equal, so the wavevector is the key
    by_wave = len(set(cells.values())) == len(cells)
    merged: dict[tuple, list] = {}
    for r, (wv, c) in enumerate(rows):
        wv = tuple(wv)
        key = wv if by_wave else tuple(map(cells.__getitem__, wv))
        rep = merged.get(key)
        if rep is None:
            merged[key] = [wv, c, r]
        else:
            rep[1] = rep[1] + c
    moduli, floor = _floor([c for _, c, _ in merged.values()])
    deg = (0,) * n
    out = []
    for (wv, c, r), a in zip(merged.values(), moduli):
        if not a <= floor:
            t = sources[r] if sources is not None else None
            out.append(t if t is not None and c is t.coeffs[0][1] else ExpPolyTerm(n, wv, ((deg, c),)))
    return ExpPolySum(n, tuple(out))


def merge_row_arrays(n: int, sets: np.ndarray, waves: np.ndarray, coeffs: np.ndarray, count: int) -> list[ExpPolySum]:
    """merge_rows on many sets of rows at once, one sum per set 0..count-1:
    row r is coeffs[r] e^{i <waves[:, r], x>} in set sets[r] (nondecreasing),
    every wavenumber and coefficient of finite modulus, every coefficient
    nonzero.  Per set, by combine's rules: the rows of one cell merge into
    the first, which keeps its wavevector and coefficient as they are, the
    others added in row order; then _floor's prune.  A set without rows is
    the zero sum."""
    terms, ends = [], [0] * (count + 1)
    if len(coeffs):
        # each set's cell from its largest wavenumber modulus, at least 1 (a
        # row of no slots, as c+/- make on one particle, has no wavenumber)
        scale = np.ones(count)
        np.maximum.at(scale, sets, np.hypot(waves.real, waves.imag).max(axis=0, initial=0.0))
        cell = (MERGE_TOL * scale / 2)[sets]
        keys = np.concatenate(([sets], np.rint(waves.real / cell), np.rint(waves.imag / cell))).astype(np.int64)
        # the rows of one (set, cell)
        firsts, group = _groups(keys)
        total = coeffs[firsts]
        later = np.ones(len(coeffs), dtype=bool)
        later[firsts] = False
        # unbuffered, so each group's rows add in row order
        np.add.at(total, group[later], coeffs[later])
        with np.errstate(over="ignore"):
            mag = np.hypot(total.real, total.imag)
        owner = sets[firsts]
        floor = np.zeros(count)
        np.maximum.at(floor, owner, np.where(mag < np.inf, mag, 0.0))
        kept = np.flatnonzero(~(mag <= PRUNE_TOL * floor[owner]))
        deg = (0,) * n
        wvs = np.take(waves, firsts[kept], axis=1).T.tolist()
        terms = [ExpPolyTerm(n, tuple(wv), ((deg, c),)) for wv, c in zip(wvs, total[kept].tolist())]
        ends = np.searchsorted(owner[kept], np.arange(count + 1)).tolist()
    return [ExpPolySum(n, tuple(terms[a:b])) for a, b in zip(ends, ends[1:])]


def _groups(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each group of equal rows of keys (the last axis is
    the row's), in row order, and each row's group."""
    order = np.lexsort(keys[::-1])
    ordered = np.take(keys, order, axis=1)
    head = np.ones(len(order), dtype=bool)
    head[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    # lexsort is stable: a group's first place holds its first row
    firsts = order[head]
    by_first = np.argsort(firsts)
    rank = np.empty_like(by_first)
    rank[by_first] = np.arange(len(by_first))
    group = np.empty_like(order)
    group[order] = rank[np.cumsum(head) - 1]
    return firsts[by_first], group


def to_arrays(n: int, sums: list[ExpPolySum], waves: list[tuple[complex, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Plane-wave sums (entries, the last axis) as arrays over the
    wavevectors waves (rows, in their order): per row and entry, the
    coefficient, real and imaginary parts on the first axis, 0.0 where
    absent, and the rank of its term in the entry's term order, -1 where
    absent.  A term that is not one degree-0 monomial, or whose wavevector
    does not equal one of waves, is refused with ValueError.  An entry's
    terms are read as combine merges one part: the first term of a
    wavevector keeps its coefficient, a later one adds its own (nothing is
    pruned).  Non-finite waves, and two within MERGE_TOL times the largest
    wavenumber of each other in every slot (equal ones too: combine might
    merge them into one term), are refused with ValueError."""
    W = np.array(waves, dtype=complex).reshape(len(waves), n)
    if not np.isfinite(W).all():
        raise ValueError("the array form needs finite wavevectors")
    tol = MERGE_TOL * max(1.0, np.abs(W).max(initial=0.0))
    W = np.concatenate((W.real, W.imag), axis=1)
    for i in range(0, len(W), 64):
        # each wavevector is near itself
        if (abs(W[i:i + 64, None] - W) <= tol).all(axis=2).sum() > len(W[i:i + 64]):
            raise ValueError(f"two wavevectors are within {tol:.3g} of each other in every slot")
    # a term's row, by the value of its wavevector (no two waves are equal)
    row = {wave: w for w, wave in enumerate(waves)}
    # per term of an entry: its row, the entry, its coefficient and its rank
    # (its place in the entry's term order)
    w_at, r_at, c_at, k_at = [], [], [], []
    for r, f in enumerate(sums):
        if f.n != n:
            raise ValueError("dimension mismatch")
        # row -> coefficient, in the order of the entry's terms
        values = {}
        for t in f.terms:
            if len(t.coeffs) != 1 or any(t.coeffs[0][0]):
                raise ValueError("the array form reads plane-wave sums only: one degree-0 monomial per term")
            w = row.get(t.wavevector)
            if w is None:
                raise ValueError("the array form reads terms on the named wavevectors only")
            c = t.coeffs[0][1]
            values[w] = values[w] + c if w in values else c
        w_at += values
        r_at += [r] * len(values)
        c_at += values.values()
        k_at += range(len(values))
    z = np.zeros((len(waves), len(sums)), dtype=complex)
    z[w_at, r_at] = c_at
    rank = np.full(z.shape, -1)
    rank[w_at, r_at] = k_at
    return np.array((z.real, z.imag)), rank


def prune(coeffs: np.ndarray, rank: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """combine's floor on each entry (column) of the arrays (coeffs, rank)
    of to_arrays: a term whose modulus is at most PRUNE_TOL times the
    entry's largest finite modulus is dropped (coefficient 0.0, rank -1), a
    NaN is kept."""
    # a finite coefficient whose modulus exceeds the float range reads as
    # infinite, as in combine: kept, and left out of the floor
    with np.errstate(over="ignore"):
        mag = np.hypot(*coeffs)
    floor = PRUNE_TOL * np.where(mag < np.inf, mag, 0.0).max(axis=0, initial=0.0)
    # present and not (mag <= floor), so that a NaN is kept
    kept = np.greater(rank >= 0, mag <= floor)
    return np.where(kept, coeffs, 0.0), np.where(kept, rank, -1)


def to_sums(n: int, waves: list[tuple[complex, ...]], coeffs: np.ndarray, rank: np.ndarray) -> list[ExpPolySum]:
    """The entries of the arrays (coeffs, rank) of to_arrays over waves as
    sums, terms in rank order; the terms share the tuples of waves."""
    deg = (0,) * n
    z = np.empty(rank.shape, dtype=complex)
    z.real, z.imag = coeffs
    present = rank >= 0
    order = np.argsort(np.where(present, rank, _LAST), axis=0).T.tolist()
    return [
        ExpPolySum(n, tuple(ExpPolyTerm(n, waves[w], ((deg, values[w]),)) for w in ws[:count]))
        for ws, count, values in zip(order, present.sum(axis=0).tolist(), z.T.tolist())
    ]


# a sort key above every present term's
_LAST = np.iinfo(np.int64).max


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

