"""Regular (momentum-space) representation on orbit-indexed data.

An OrbitFunction tabulates a momentum-space object f by its values on the
finite orbit {sigma lambda}: entries[sigma] represents f(sigma lambda), each
value itself an exp-polynomial in x so position evaluation stays available.

Index convention, fixed once: the table transform for the permutation
action s_tau is entries'[sigma] = entries[tau^{-1} sigma], i.e.
(tau f)(lambda) = f(tau^{-1} lambda).  Divided differences, the deformed
transpositions s_{j,gamma} = s_j - i gamma Delta_j, deformed words, and the
symmetrizers are built from that single rule.

A sum merges once per entry: entry sigma of orbit_add (both symmetrizers
included) and each entry of a deformed transposition is one
exppoly.combine of its parts (see combine for the rule), so an entry of a
deformed word on a regular orbit holds at most N! terms, however long the
word.  Scaling does not merge: orbit_scale and mult_* scale each term, and
an entry of divided_difference holds the terms of both entries it differs.

Deformed words run on arrays.  s_{j,gamma} is linear with scalar weights:
entry sigma of s_{j,gamma} o is swapped + (-i gamma / d)(here - swapped)
with here = o[sigma], swapped = o[s_j sigma] and d = (sigma lambda)_j -
(sigma lambda)_{j+1}.  Each table names its orbit points once (_points,
in all_permutations order), and exppoly.to_arrays reads its plane-wave
sums over them once (kept with it): the arrays are N! points by N!
entries, indexed like the entries.  The read refuses a polynomial term, a
term on any other wavevector, and orbit points that combine might merge
into one term, with ValueError.  Each letter of a reduced word is then a
few array steps over all entries at once that repeat combine's merge of
[((), swapped), ((1/d, -i gamma), here), ((-1, 1/d, -i gamma), swapped)]
to the bit: exppoly's written-out complex products, the same sums in the
same order, exppoly.prune and the same term order; exppoly.to_sums builds
the entries at the end.  A step computes only the entries that the
wanted ones depend on, so deformed_word_entries, which keeps one entry of
each relabelled table (the orbit route), does a fraction of the work of
apply_deformed_word.  Every set of words runs through _entries, the
gamma-symmetrizer's N! together.  The index work of a run (the start
gather, the reduced words, the entries each step holds and their
partners) depends on N, the (tau, w) pairs and the wanted entries alone:
_schedule, a bounded cache, keeps it per those, and _run does only the
arithmetic, one _step per letter.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Callable, Mapping

import numpy as np

from . import exppoly
from .exppoly import ExpPolySum
from .symgroup import Permutation, all_permutations, compose, identity, reduced_word, simple, transposition

__all__ = [
    "OrbitFunction",
    "EPS_REG",
    "is_regular",
    "orbit_planewave",
    "act_table",
    "divided_difference",
    "deformed_transposition_momentum",
    "apply_deformed_word",
    "deformed_word_entries",
    "symmetrizer",
    "gamma_symmetrizer",
    "mult_symbol",
    "mult_scalar",
    "coeff_G",
    "tau_pm",
    "orbit_add",
    "orbit_scale",
]

# pairwise rapidity gaps at or below this make divided differences unreliable
EPS_REG = 1e-8


def is_regular(lam: tuple[complex, ...]) -> bool:
    """The one regularity rule: every rapidity finite and every pairwise
    gap above EPS_REG.  Orbit tables, and the routes that divide by
    rapidity differences, need it."""
    return all(map(cmath.isfinite, lam)) and all(abs(a - b) > EPS_REG for a, b in combinations(lam, 2))


@dataclass(frozen=True)
class OrbitFunction:
    """Values of a momentum-space function on the S_N-orbit of lambda."""

    lam: tuple[complex, ...]
    entries: Mapping[Permutation, ExpPolySum]

    def __post_init__(self) -> None:
        # complex, as the orbit's plane waves carry it: the orbit points are
        # the wavevectors that deformed words read and build
        object.__setattr__(self, "lam", tuple(map(complex, self.lam)))
        if not is_regular(self.lam):
            raise ValueError(f"rapidities must be finite with pairwise gaps above {EPS_REG}")
        if set(self.entries) != set(all_permutations(len(self.lam))):
            raise ValueError("orbit table must cover all of S_N")

    @property
    def n(self) -> int:
        return len(self.lam)

    def point(self, sigma: Permutation) -> tuple[complex, ...]:
        """The orbit point sigma lambda."""
        return sigma.act_vector(self.lam)

    @cached_property
    def _points(self) -> list[tuple[complex, ...]]:
        """The orbit points, in all_permutations order: the rows of _arrays,
        whose columns (the entries) and _weights follow the same order."""
        return list(map(self.point, all_permutations(self.n)))

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The table as arrays over _points, read once for deformed words."""
        return exppoly.to_arrays(self.n, [self.entries[s] for s in all_permutations(self.n)], self._points)

    @cached_property
    def _weights(self) -> np.ndarray:
        """weights[:, j] holds 1 / (p_j - p_{j+1}) for each orbit point p of
        _points (j = 0: 1) as its real part, minus its imaginary part and
        its imaginary part."""
        points = self._points
        weights = np.array([[1.0 + 0j] * len(points)] + [
            [complex(1.0 / (p[j - 1] - p[j])) for p in points] for j in range(1, self.n)
        ])
        return np.array((weights.real, -weights.imag, weights.imag))


def orbit_planewave(lam: tuple[complex, ...]) -> OrbitFunction:
    """The seed orbit: entries[sigma] = exp(i <sigma lambda, x>)."""
    lam = tuple(complex(v) for v in lam)
    return OrbitFunction(
        lam,
        {s: exppoly.plane_wave(s.act_vector(lam)) for s in all_permutations(len(lam))},
    )


def orbit_add(*tables: OrbitFunction) -> OrbitFunction:
    """Entrywise sum of tables on one orbit: entry sigma is one
    exppoly.combine over every table's entry sigma, in order."""
    if not tables:
        raise ValueError("orbit_add needs at least one table")
    lam = tables[0].lam
    if any(o.lam != lam for o in tables):
        raise ValueError("tables on different orbits")
    return OrbitFunction(
        lam, {s: exppoly.combine(p.n, [((), o.entries[s]) for o in tables]) for s, p in tables[0].entries.items()}
    )


def orbit_scale(c: complex, o: OrbitFunction) -> OrbitFunction:
    return OrbitFunction(o.lam, {s: exppoly.scale(c, p) for s, p in o.entries.items()})


def act_table(tau: Permutation, o: OrbitFunction) -> OrbitFunction:
    """The permutation action: entries'[sigma] = entries[tau^{-1} sigma]."""
    taui = tau.inverse()
    return OrbitFunction(
        o.lam, {s: o.entries[compose(taui, s)] for s in o.entries}
    )


def divided_difference(o: OrbitFunction, j: int, k: int) -> OrbitFunction:
    """Delta_jk: entries'[sigma] = (f(sigma lam) - f(s_jk sigma lam)) /
    ((sigma lam)_j - (sigma lam)_k)."""
    sjk = transposition(j, k, o.n)
    gaps = {sigma: o.point(sigma)[j - 1] - o.point(sigma)[k - 1] for sigma in o.entries}
    return OrbitFunction(
        o.lam,
        {
            sigma: exppoly.scale(1.0 / gaps[sigma], val - o.entries[compose(sjk, sigma)])
            for sigma, val in o.entries.items()
        },
    )


@lru_cache(maxsize=None)
def _group(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 0-based one-line images of all_permutations(n), the codes of
    the images in base n (ascending: the order is lexicographic), and row j
    of the positions of s_j rho for every rho (row 0: of rho).  Cached."""
    images = np.array([p.images for p in all_permutations(n)], dtype=int).reshape(-1, n) - 1
    swaps = np.tile(np.arange(n), (n, 1))
    for j in range(1, n):
        swaps[j, j - 1:j + 1] = j, j - 1
    codes = images @ n ** np.arange(n - 1, -1, -1)
    return images, codes, np.searchsorted(codes, swaps[:, images] @ n ** np.arange(n - 1, -1, -1))


def _products(left: np.ndarray) -> np.ndarray:
    """For each row u of left (0-based images), the positions of u rho in
    all_permutations(n) for every rho."""
    n = left.shape[1]
    images, codes, _ = _group(n)
    return np.searchsorted(codes, left[:, images] @ n ** np.arange(n - 1, -1, -1))


# the factor -1 of the part -swapped, as exppoly.combine applies it: (-1 + 0j) * a
_MINUS = np.array([-0.0, 0.0]).reshape(2, 1, 1)


def _step(state, here, swapped, factor, gamma_factor, top, active):
    """One letter: the entry at position here[k] of the state (coefficients,
    ranks) becomes entry k of s_{j,gamma} applied to its table, with the
    entry at position swapped[k] as its s_j partner, as exppoly.combine
    makes it from [((), swapped), ((f, g), here), ((-1, f, g), swapped)]
    with f = factor[:, k], g = -i gamma (gamma_factor None when g is zero).
    A part with a zero factor adds nothing; each entry is pruned against
    its own largest finite coefficient; swapped's terms come first, then
    here's new ones, whose ranks move up by top (above every rank held).
    Entries outside active (a mask, or None for all) stay as they are."""
    c, rank = (x[..., here] for x in state)
    cs, ks = (x[..., swapped] for x in state)
    out, order = cs, ks
    if gamma_factor is not None:
        fr, fs = factor[0], factor[1:, None, :]
        y = exppoly._times(fr, fs, np.array((c, exppoly._times(-1.0, _MINUS, cs))))
        vh, vn = exppoly._times(*gamma_factor, y)
        qs, present = ks >= 0, rank >= 0
        # here's term: swapped's + it, or it as it is where swapped lacks the term
        mid = np.where(present, np.where(qs, cs + vh, vh), cs)
        out = np.where(qs, mid + vn, mid)
        order = np.where(qs, ks, np.where(present, rank + top, -1))
        if not fr.all():
            live = (fr != 0) | (fs[1, 0] != 0)
            out, order = np.where(live, out, cs), np.where(live, order, ks)
    out, order = exppoly.prune(out, order)
    if active is not None:
        out, order = np.where(active, out, c), np.where(active, order, rank)
    return out, order


# wavevectors x entries of the tables that _entries runs together
_BATCH = 1 << 18


@lru_cache(maxsize=128)
def _schedule(n: int, pairs: tuple, rows: tuple) -> tuple:
    """The index work of _run for the entries at the positions rows of
    w_gamma act_table(tau, o) for each (tau, w) in pairs, on any table o of
    n particles and any gamma, the tables' entries placed one table after
    another: the positions in o of the entries held before the first letter,
    and per letter of the reduced words, right to left, _step's here,
    swapped and active and the columns of o._weights it reads (a letter j
    at orbit point p: j * N! + p).  A step makes only the entries that the
    wanted ones depend on, found from the last step back.  Every array is
    read-only.  Kept per (n, pairs, rows), which recur across tables and
    gammas (qnls verify --max-n 3 makes 58 runs of 7 schedules)."""
    size = len(all_permutations(n))
    taus = np.array([tau.images for tau, _ in pairs], dtype=int).reshape(-1, n) - 1
    start = _products(np.argsort(taus, axis=1)).ravel()
    swaps = _group(n)[2]
    words = [reduced_word(w) for _, w in pairs]
    offsets = np.arange(0, len(start), size)[:, None]
    letters = [
        np.array([word[-1 - t] if t < len(word) else 0 for word in words])
        for t in range(max(map(len, words), default=0))
    ]
    partner = [(offsets + swaps[js]).ravel() for js in letters]
    # held[t]: the entries held before step t; the last is wanted
    held = [(offsets + rows).ravel()]
    for sw in reversed(partner):
        mask = np.zeros(len(start), dtype=bool)
        mask[held[0]] = True
        mask[sw[held[0]]] = True
        held.insert(0, np.flatnonzero(mask))
    steps = []
    for t, (js, sw) in enumerate(zip(letters, partner)):
        before, after = held[t], held[t + 1]
        js = js[after // size]
        steps.append((np.searchsorted(before, after), np.searchsorted(before, sw[after]),
                      None if js.all() else js > 0, js * size + after % size))
    gather = start[held[0]]
    for a in (gather, *(a for step in steps for a in step if a is not None)):
        a.flags.writeable = False
    return gather, tuple(steps)


def _run(o: OrbitFunction, pairs: tuple, gamma: float, rows: tuple):
    """The entries at the positions rows (ascending) of w_gamma
    act_table(tau, o) for each (tau, w) in pairs, the tables' entries
    placed one table after another, as arrays.  The letters of the reduced
    words run right to left, one array step per position for all the
    tables at once, on _schedule's indices."""
    gather, steps = _schedule(o.n, pairs, rows)
    (coeffs, rank), size = o._arrays, len(o._points)
    weights = o._weights.reshape(3, -1)
    state = coeffs[..., gather], rank[:, gather]
    g = complex(-1j * gamma)
    gamma_factor = (g.real, np.array([-g.imag, g.imag]).reshape(2, 1, 1)) if g else None
    with np.errstate(all="ignore"):
        for t, (here, swapped, active, columns) in enumerate(steps):
            state = _step(state, here, swapped, weights[:, columns], gamma_factor, size << t, active)
    return state


def _entries(o: OrbitFunction, pairs, gamma: float, rows: tuple) -> list[ExpPolySum]:
    """The entries at the positions rows (ascending, in all_permutations
    order) of w_gamma act_table(tau, o) for each (tau, w) in pairs, table
    after table, the tables run together in batches of at most _BATCH array
    cells."""
    pairs, size = tuple(pairs), len(o._points)
    per_batch = max(1, _BATCH // (size * size))
    out = []
    for start in range(0, len(pairs), per_batch):
        out += exppoly.to_sums(o.n, o._points, *_run(o, pairs[start:start + per_batch], gamma, rows))
    return out


def _word_tables(o: OrbitFunction, words, gamma: float) -> list[OrbitFunction]:
    """w_gamma o for each w in words, entries in the order of o's."""
    perms = all_permutations(o.n)
    values = _entries(o, [(identity(o.n), w) for w in words], gamma, tuple(range(len(perms))))
    tables = [dict(zip(perms, values[k:k + len(perms)])) for k in range(0, len(values), len(perms))]
    return [OrbitFunction(o.lam, {s: table[s] for s in o.entries}) for table in tables]


def deformed_transposition_momentum(o: OrbitFunction, j: int, gamma: float) -> OrbitFunction:
    """s_{j,gamma} = s_j - i gamma Delta_{j,j+1}."""
    return apply_deformed_word(o, simple(j, o.n), gamma)


def apply_deformed_word(o: OrbitFunction, w: Permutation, gamma: float) -> OrbitFunction:
    """w_gamma: the product of deformed transpositions along a reduced word
    of w (well-defined independently of the word chosen)."""
    return _word_tables(o, [w], gamma)[0]


def deformed_word_entries(o: OrbitFunction, pairs, gamma: float, sigma: Permutation) -> list[ExpPolySum]:
    """Entry sigma of w_gamma act_table(tau, o) for each (tau, w) in pairs
    (equal to apply_deformed_word(act_table(tau, o), w, gamma).entries[sigma])."""
    return _entries(o, pairs, gamma, (all_permutations(o.n).index(sigma),))


def symmetrizer(o: OrbitFunction, leading: int | None = None) -> OrbitFunction:
    """(1/k!) sum_w w over the permutations w of the first k = leading slots
    (by default all N), acting by table permutation."""
    k = o.n if leading is None else leading
    perms = [Permutation(w.images + tuple(range(k + 1, o.n + 1))) for w in all_permutations(k)]
    return orbit_scale(1.0 / len(perms), orbit_add(*(act_table(w, o) for w in perms)))


def gamma_symmetrizer(o: OrbitFunction, gamma: float) -> OrbitFunction:
    """(1/N!) sum_w w_gamma, the gamma-deformed symmetrizer."""
    perms = all_permutations(o.n)
    return orbit_scale(1.0 / len(perms), orbit_add(*_word_tables(o, perms, gamma)))


def mult_symbol(o: OrbitFunction, j: int) -> OrbitFunction:
    """Multiplication by the symbol lambda_j: entry at sigma gains the
    factor (sigma lambda)_j."""
    if not 1 <= j <= o.n:
        raise ValueError(f"symbol index {j} out of range 1..{o.n}")
    return mult_scalar(o, lambda p: p[j - 1])


def mult_scalar(o: OrbitFunction, field: Callable[[tuple[complex, ...]], complex]) -> OrbitFunction:
    """Multiply entries[sigma] by field(sigma lambda)."""
    out = {}
    for s, p in o.entries.items():
        value = field(o.point(s))
        if not cmath.isfinite(value):
            raise ValueError("scalar field singular at an orbit point")
        out[s] = exppoly.scale(value, p)
    return OrbitFunction(o.lam, out)


def coeff_G(lam: tuple[complex, ...], gamma: float) -> complex:
    """G_gamma(lambda) = prod_{j<k} (lambda_j - lambda_k - i gamma) /
    (lambda_j - lambda_k)."""
    out = 1.0 + 0j
    n = len(lam)
    for j in range(n):
        for k in range(j + 1, n):
            d = lam[j] - lam[k]
            if d == 0:
                raise ZeroDivisionError("pole of G_gamma at coinciding rapidities")
            out *= (d - 1j * gamma) / d
    return out


def tau_pm(mu: complex, lam: tuple[complex, ...], gamma: float, sign: int) -> complex:
    """tau^+/-_mu(lambda) = prod_j (lambda_j - mu -/+ i gamma)/(lambda_j - mu);
    sign=+1 picks tau^+, sign=-1 picks tau^-."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = 1.0 + 0j
    for lj in lam:
        d = lj - mu
        if d == 0:
            raise ZeroDivisionError("tau has a pole at mu = lambda_j")
        out *= (d - sign * 1j * gamma) / d
    return out
