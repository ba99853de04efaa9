"""Regular (momentum-space) representation on orbit-indexed data.

An OrbitFunction tabulates a momentum-space object f by its values on the
finite orbit {sigma lambda}: entries[sigma] represents f(sigma lambda), each
value itself an exp-polynomial in x so position evaluation stays available.

Index convention, fixed once: the table transform for the permutation
action s_tau is entries'[sigma] = entries[tau^{-1} sigma], i.e.
(tau f)(lambda) = f(tau^{-1} lambda).  Divided differences, the deformed
transpositions s_{j,gamma} = s_j - i gamma Delta_j, deformed words, and the
symmetrizers are built from that single rule.

Table entries are kept canonical: tables are summed only by orbit_add
(both symmetrizers included), and each entry of a deformed transposition
is made in one pass by exppoly.combine, which scales the entries it is
built from as it merges them, with no intermediate sum: wavevectors
sharing a cell of side MERGE_TOL / 2, scaled by the largest wavenumber,
merge, and monomials below PRUNE_TOL relative to the entry's own largest
coefficient are dropped.  So an entry of a deformed word applied to a
regular orbit holds no more terms than there are orbit points, N!,
however long the word, unless round-off puts two copies of one
wavevector on two sides of a cell edge.

Deformed words are evaluated entry by entry, with one rule for one entry
of s_{j,gamma} o.  Entry sigma after a step needs only the entries sigma
and s_j sigma before it, so deformed_word_entry computes one entry of
w_gamma o from the few entries it depends on; apply_deformed_word asks
for every entry and so computes the whole table, each (step, entry) pair
once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Callable, Mapping

from . import exppoly
from .exppoly import ExpPolySum
from .symgroup import Permutation, all_permutations, compose, reduced_word, simple, transposition

__all__ = [
    "OrbitFunction",
    "EPS_REG",
    "orbit_planewave",
    "act_table",
    "divided_difference",
    "deformed_transposition_momentum",
    "apply_deformed_word",
    "deformed_word_entry",
    "symmetrizer",
    "gamma_symmetrizer",
    "mult_symbol",
    "mult_scalar",
    "coeff_G",
    "tau_pm",
    "orbit_add",
    "orbit_scale",
]

# pairwise rapidity gaps below this make divided differences unreliable
EPS_REG = 1e-8


def _check_regular(lam: tuple[complex, ...]) -> None:
    n = len(lam)
    for a in range(n):
        for b in range(a + 1, n):
            if abs(lam[a] - lam[b]) < EPS_REG:
                raise ValueError(
                    f"degenerate rapidities: |lambda_{a+1} - lambda_{b+1}| < {EPS_REG}"
                )


@dataclass(frozen=True)
class OrbitFunction:
    """Values of a momentum-space function on the S_N-orbit of lambda."""

    lam: tuple[complex, ...]
    entries: Mapping[Permutation, ExpPolySum]

    def __post_init__(self) -> None:
        _check_regular(self.lam)
        if set(self.entries) != set(all_permutations(len(self.lam))):
            raise ValueError("orbit table must cover all of S_N")

    @property
    def n(self) -> int:
        return len(self.lam)

    def point(self, sigma: Permutation) -> tuple[complex, ...]:
        """The orbit point sigma lambda."""
        return sigma.act_vector(self.lam)


def orbit_planewave(lam: tuple[complex, ...]) -> OrbitFunction:
    """The seed orbit: entries[sigma] = exp(i <sigma lambda, x>)."""
    lam = tuple(complex(v) for v in lam)
    _check_regular(lam)
    return OrbitFunction(
        lam,
        {s: exppoly.plane_wave(s.act_vector(lam)) for s in all_permutations(len(lam))},
    )


def orbit_add(o1: OrbitFunction, o2: OrbitFunction) -> OrbitFunction:
    """Entrywise sum, each entry merged in one pass by exppoly.combine:
    wavevectors in one cell of side MERGE_TOL * scale / 2 merge (scale: the
    largest finite wavenumber, at least 1) and monomials below PRUNE_TOL
    relative to the entry's own largest coefficient are dropped."""
    return OrbitFunction(
        o1.lam,
        {s: exppoly.combine(p.n, [((), p), ((), o2.entries[s])]) for s, p in o1.entries.items()},
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


def _deformed_entry(
    point: tuple[complex, ...], j: int, gamma: float, here: ExpPolySum, swapped: ExpPolySum
) -> ExpPolySum:
    """Entry of s_{j,gamma} o = s_j o - i gamma Delta_{j,j+1} o at the orbit
    point sigma lambda = point, from here = o[sigma] and swapped =
    o[s_j sigma], in one merge: swapped + (-i gamma / d) (here - swapped)
    with d = point_j - point_{j+1}, each factor applied as scale would."""
    factors = (1.0 / (point[j - 1] - point[j]), -1j * gamma)
    return exppoly.combine(here.n, [((), swapped), (factors, here), ((-1.0, *factors), swapped)])


def _deformed_word(
    o: OrbitFunction, w: Permutation, gamma: float, sigmas
) -> Mapping[Permutation, ExpPolySum]:
    """A table of w_gamma o that holds at least the entries sigmas.

    Entry rho after a step s_j needs only the entries rho and s_j rho
    before it, so the entries each step needs are found from the last step
    back, then made from the first step on: each (step, entry) pair that
    sigmas depend on is computed once, and two steps' tables are held at
    a time.
    """
    word = reduced_word(w)
    # needed[i]: the entries wanted once the letters word[i:] have acted
    # (the word acts right to left, word[-1] first)
    needed = [dict.fromkeys(sigmas)]
    for j in word:
        sj = simple(j, o.n)
        needed.append(dict.fromkeys(r for rho in needed[-1] for r in (rho, compose(sj, rho))))
    table = o.entries
    for j, rhos in zip(reversed(word), reversed(needed[:-1])):
        sj = simple(j, o.n)
        table = {rho: _deformed_entry(o.point(rho), j, gamma, table[rho], table[compose(sj, rho)]) for rho in rhos}
    return table


def deformed_transposition_momentum(
    o: OrbitFunction, j: int, gamma: float
) -> OrbitFunction:
    """s_{j,gamma} = s_j - i gamma Delta_{j,j+1}."""
    return apply_deformed_word(o, simple(j, o.n), gamma)


def apply_deformed_word(o: OrbitFunction, w: Permutation, gamma: float) -> OrbitFunction:
    """w_gamma: the product of deformed transpositions along a reduced word
    of w (well-defined independently of the word chosen)."""
    table = _deformed_word(o, w, gamma, o.entries)
    return OrbitFunction(o.lam, {s: table[s] for s in o.entries})


def deformed_word_entry(
    o: OrbitFunction, w: Permutation, gamma: float, sigma: Permutation
) -> ExpPolySum:
    """Entry sigma of w_gamma o, computing only the entries it depends on
    (equal to apply_deformed_word(o, w, gamma).entries[sigma])."""
    return _deformed_word(o, w, gamma, [sigma])[sigma]


def _average(perms, term: Callable[[Permutation], OrbitFunction]) -> OrbitFunction:
    """(1/len(perms)) sum over w in perms of term(w), each table made as it
    is added, in order, by orbit_add."""
    return orbit_scale(1.0 / len(perms), reduce(orbit_add, map(term, perms)))


def symmetrizer(o: OrbitFunction) -> OrbitFunction:
    """(1/N!) sum_w w, acting by table permutation."""
    return _average(all_permutations(o.n), lambda w: act_table(w, o))


def gamma_symmetrizer(o: OrbitFunction, gamma: float) -> OrbitFunction:
    """(1/N!) sum_w w_gamma, the gamma-deformed symmetrizer."""
    return _average(all_permutations(o.n), lambda w: apply_deformed_word(o, w, gamma))


def mult_symbol(o: OrbitFunction, j: int) -> OrbitFunction:
    """Multiplication by the symbol lambda_j: entry at sigma gains the
    factor (sigma lambda)_j."""
    return OrbitFunction(
        o.lam,
        {s: exppoly.scale(o.point(s)[j - 1], p) for s, p in o.entries.items()},
    )


def mult_scalar(
    o: OrbitFunction, field: Callable[[tuple[complex, ...]], complex]
) -> OrbitFunction:
    """Multiply entries[sigma] by field(sigma lambda)."""
    out = {}
    for s, p in o.entries.items():
        value = field(o.point(s))
        if value != value or abs(value) == float("inf"):
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
