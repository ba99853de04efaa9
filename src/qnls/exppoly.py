"""Closed algebra of exp-polynomial functions p(x) * exp(i<mu, x>).

Every analytic piece handled by the engine lives in this ring: plane waves,
their polynomial-prefactor degenerate limits, and everything the nested
integral operators produce.  Derivatives, definite integrals with constant
or coordinate bounds, and (affine) substitutions are all computed in closed
form, so downstream identity checks are exact up to float rounding.

>>> f = plane_wave((2.0, -1.0))          # e^{i(2 x1 - x2)}
>>> g = derivative(f, 1)
>>> g.eval((0.3, 0.7)) == 2j * f.eval((0.3, 0.7))
True
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

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
    "subst_affine",
    "pullback",
    "remap",
    "canonicalize",
    "to_json",
    "from_json",
    "MERGE_TOL",
    "PRUNE_TOL",
    "ZERO_WAVENUMBER_TOL",
    "SMALL_WAVENUMBER_TOL",
    "DEGREE_CAP",
]

# wavevectors closer than MERGE_TOL * scale are merged by canonicalize
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


class DegreeCapError(ValueError):
    pass


def _check_degree(deg: tuple[int, ...]) -> None:
    if sum(deg) > DEGREE_CAP:
        raise DegreeCapError(f"total degree {sum(deg)} exceeds cap {DEGREE_CAP}")


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


@dataclass(frozen=True)
class ExpPolyTerm:
    """One term p(x) * exp(i <mu, x>); coeffs maps multidegree -> complex."""

    n: int
    wavevector: tuple[complex, ...]
    coeffs: tuple[tuple[tuple[int, ...], complex], ...]

    def __post_init__(self) -> None:
        if len(self.wavevector) != self.n:
            raise ValueError("wavevector length mismatch")
        for deg, _ in self.coeffs:
            if len(deg) != self.n:
                raise ValueError("degree length mismatch")
            _check_degree(deg)

    def coeff_map(self) -> dict[tuple[int, ...], complex]:
        return dict(self.coeffs)

    def eval(self, x: Iterable[complex]) -> complex:
        xv = tuple(x)
        if len(xv) != self.n:
            raise ValueError("dimension mismatch")
        poly = 0j
        for deg, c in self.coeffs:
            m = c
            for xj, dj in zip(xv, deg):
                if dj:
                    m *= xj**dj
            poly += m
        phase = sum(mj * xj for mj, xj in zip(self.wavevector, xv))
        return poly * cmath.exp(1j * phase)


def _term(n: int, wavevector, coeffs: Mapping[tuple[int, ...], complex]) -> ExpPolyTerm:
    items = tuple(sorted((tuple(d), complex(c)) for d, c in coeffs.items() if c != 0))
    return ExpPolyTerm(n, tuple(complex(m) for m in wavevector), items)


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
        xv = tuple(x)
        return sum((t.eval(xv) for t in self.terms), 0j)

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

        Each value takes eval's operations in eval's order, so the two
        agree to the bit except in the sign of a zero and through x**d on
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
            out.append(_term(t.n, t.wavevector, coeffs))
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
    return _term(t.n, t.wavevector, coeffs)


def _series_integral(t: ExpPolyTerm, j: int, lower: Bound, upper: Bound) -> ExpPolySum:
    # tiny but nonzero wavenumber: integrate the truncated Taylor expansion
    # of e^{i mu_j x_j}, avoiding the 1/mu_j cancellation of the exact form
    muj = t.wavevector[j - 1]
    u = abs(muj) * _SERIES_XSCALE
    nterms, bound = 1, u
    while bound > 1e-18 and nterms < 12:
        nterms += 1
        bound *= u / (nterms + 1)
    pieces: list[ExpPolyTerm] = []
    factor = 1.0 + 0j
    for k in range(nterms + 1):
        coeffs = {}
        for deg, c in t.coeffs:
            dk = deg[: j - 1] + (deg[j - 1] + k,) + deg[j:]
            coeffs[dk] = coeffs.get(dk, 0j) + c * factor
        wv = t.wavevector[: j - 1] + (0j,) + t.wavevector[j:]
        pieces.append(_poly_antiderivative(_term(t.n, wv, coeffs), j))
        factor *= 1j * muj / (k + 1)
    anti = ExpPolySum(t.n, tuple(pieces))
    return substitute(anti, j, upper) - substitute(anti, j, lower)


def integrate(f: ExpPolySum, j: int, lower: Bound, upper: Bound) -> ExpPolySum:
    """Definite integral over x_j between bounds free of x_j.

    >>> f = constant(1.0, 2)
    >>> integrate(f, 1, Bound.const(0.0), Bound.coord(2)).eval((9.0, 0.5))
    (0.5+0j)
    """
    for b in (lower, upper):
        if b.kind == "coordinate" and b.value == j:
            raise ValueError("bound references the integration variable")
    out = zero(f.n)
    for t in f.terms:
        muj = t.wavevector[j - 1]
        if abs(muj) < ZERO_WAVENUMBER_TOL:
            wv = t.wavevector[: j - 1] + (0j,) + t.wavevector[j:]
            anti = ExpPolySum(t.n, (_poly_antiderivative(_term(t.n, wv, t.coeff_map()), j),))
            out = out + substitute(anti, j, upper) - substitute(anti, j, lower)
        elif abs(muj) < SMALL_WAVENUMBER_TOL:
            out = out + _series_integral(t, j, lower, upper)
        else:
            anti = ExpPolySum(t.n, (_exp_antiderivative(t, j),))
            out = out + substitute(anti, j, upper) - substitute(anti, j, lower)
    return canonicalize(out)


def substitute(f: ExpPolySum, j: int, b: Bound) -> ExpPolySum:
    """Set x_j := b (constant, or another coordinate x_k).

    The result no longer depends on x_j (slot kept, unused).

    >>> g = substitute(plane_wave((2.0, 5.0)), 1, Bound.coord(2))
    >>> g.eval((0.0, 1.0)) == cmath.exp(7j)
    True
    """
    if b.kind == "coordinate":
        if b.value == j:
            raise ValueError("self-substitution")
        return subst_affine(f, j, {int(b.value): 1.0 + 0j}, 0j)
    return subst_affine(f, j, {}, complex(b.value))


def subst_affine(
    f: ExpPolySum, j: int, lin: Mapping[int, complex], const: complex
) -> ExpPolySum:
    """Set x_j := const + sum_m lin[m] * x_m (m != j), exactly.

    The workhorse behind substitute, the reflection integral's shear, and
    the nested-integral engine.
    """
    if j in lin:
        raise ValueError("affine substitution may not reference the target slot")
    out: list[ExpPolyTerm] = []
    for t in f.terms:
        muj = t.wavevector[j - 1]
        wv = list(t.wavevector)
        wv[j - 1] = 0j
        phase = cmath.exp(1j * muj * const) if muj != 0 or const != 0 else 1.0 + 0j
        for m, cm in lin.items():
            wv[m - 1] += muj * cm
        coeffs: dict[tuple[int, ...], complex] = {}
        for deg, c in t.coeffs:
            a = deg[j - 1]
            base = deg[: j - 1] + (0,) + deg[j:]
            # expand (const + sum_m c_m x_m)^a term by term
            for extra, w in _affine_power(lin, const, a, t.n):
                d = tuple(b + e for b, e in zip(base, extra))
                coeffs[d] = coeffs.get(d, 0j) + c * w * phase
        out.append(_term(t.n, wv, coeffs))
    return ExpPolySum(f.n, tuple(out))


def _affine_power(
    lin: Mapping[int, complex], const: complex, a: int, n: int
) -> list[tuple[tuple[int, ...], complex]]:
    """Multidegree/coefficient expansion of (const + sum lin[m] x_m)^a."""
    expansion: dict[tuple[int, ...], complex] = {(0,) * n: 1.0 + 0j}
    for _ in range(a):
        nxt: dict[tuple[int, ...], complex] = {}
        for deg, w in expansion.items():
            if const != 0:
                nxt[deg] = nxt.get(deg, 0j) + w * const
            for m, cm in lin.items():
                d = deg[: m - 1] + (deg[m - 1] + 1,) + deg[m:]
                nxt[d] = nxt.get(d, 0j) + w * cm
        expansion = nxt
    return list(expansion.items())


def pullback(
    f: ExpPolySum,
    rows: Mapping[int, tuple[Mapping[int, complex], complex]],
    new_n: int,
) -> ExpPolySum:
    """Simultaneous affine change of variables g(x) = f(y),
    y_m = const_m + sum_p lin_m[p] * x_p with (lin_m, const_m) = rows[m].

    All input slots are substituted at once, so replacement expressions may
    freely mention output slots that share indices with replaced inputs.
    """
    if set(rows) != set(range(1, f.n + 1)):
        raise ValueError("rows must cover every input slot")
    out: list[ExpPolyTerm] = []
    for t in f.terms:
        wv = [0j] * new_n
        phase = 0j
        for m in range(1, f.n + 1):
            mum = t.wavevector[m - 1]
            if mum == 0:
                continue
            lin, const = rows[m]
            phase += mum * const
            for p, cp in lin.items():
                wv[p - 1] += mum * cp
        factor = cmath.exp(1j * phase) if phase != 0 else 1.0 + 0j
        coeffs: dict[tuple[int, ...], complex] = {}
        for deg, c in t.coeffs:
            expansion: dict[tuple[int, ...], complex] = {(0,) * new_n: c * factor}
            for m in range(1, f.n + 1):
                a = deg[m - 1]
                if a == 0:
                    continue
                lin, const = rows[m]
                factors = _affine_power(lin, const, a, new_n)
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


def remap(f: ExpPolySum, mapping: Mapping[int, int], new_n: int) -> ExpPolySum:
    """Relabel variable slots: old slot j becomes new slot mapping[j].

    Unmapped old slots must be unused (zero wavenumber and degree); the map
    must be injective into 1..new_n.
    """
    values = list(mapping.values())
    if len(set(values)) != len(values):
        raise ValueError("non-injective remap")
    if any(not (1 <= v <= new_n) for v in values):
        raise ValueError("remap target out of range")
    out: list[ExpPolyTerm] = []
    for t in f.terms:
        wv = [0j] * new_n
        for old in range(1, f.n + 1):
            m = t.wavevector[old - 1]
            if old in mapping:
                wv[mapping[old] - 1] = m
            elif abs(m) > 0:
                raise ValueError(f"dropped slot {old} carries a wavenumber")
        coeffs: dict[tuple[int, ...], complex] = {}
        for deg, c in t.coeffs:
            d = [0] * new_n
            for old in range(1, f.n + 1):
                if deg[old - 1] == 0:
                    continue
                if old not in mapping:
                    raise ValueError(f"dropped slot {old} carries a monomial")
                d[mapping[old] - 1] = deg[old - 1]
            coeffs[tuple(d)] = coeffs.get(tuple(d), 0j) + c
        out.append(_term(new_n, wv, coeffs))
    return ExpPolySum(new_n, tuple(out))


def canonicalize(f: ExpPolySum) -> ExpPolySum:
    """Merge terms with (numerically) equal wavevectors, prune tiny coefficients.

    >>> f = plane_wave((1.0,))
    >>> canonicalize(f - f).terms
    ()
    """
    scale_ = max(
        [1.0]
        + [abs(m) for t in f.terms for m in t.wavevector]
    )
    tol = MERGE_TOL * scale_
    reps: list[tuple[tuple[complex, ...], dict[tuple[int, ...], complex]]] = []
    # wavevector -> the coefficients of the first rep within tol of it; kept
    # reps are more than tol apart, so an exact hit is the scan's answer
    seen: dict[tuple[complex, ...], dict[tuple[int, ...], complex]] = {}
    for t in f.terms:
        coeffs = seen.get(t.wavevector)
        if coeffs is None:
            for wv, cand in reps:
                if all(abs(a - b) <= tol for a, b in zip(wv, t.wavevector)):
                    coeffs = cand
                    break
        if coeffs is None:
            coeffs = t.coeff_map()
            reps.append((t.wavevector, coeffs))
        else:
            for deg, c in t.coeffs:
                coeffs[deg] = coeffs.get(deg, 0j) + c
        seen[t.wavevector] = coeffs
    out: list[ExpPolyTerm] = []
    biggest = max(
        [0.0] + [abs(c) for _, coeffs in reps for c in coeffs.values()]
    )
    floor = PRUNE_TOL * biggest
    for wv, coeffs in reps:
        kept = {d: c for d, c in coeffs.items() if abs(c) > floor}
        if kept:
            out.append(_term(f.n, wv, kept))
    return ExpPolySum(f.n, tuple(out))


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

