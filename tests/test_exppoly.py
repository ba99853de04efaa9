"""Exponential-polynomial ring: algebra, calculus, serialization."""

import cmath
import math
import random
from functools import lru_cache, reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnls import alcovefn, exppoly, momrep, wavefn, ybops
from qnls.exppoly import Bound
from qnls.symgroup import Permutation, all_permutations, compose, identity, reduced_word, simple


def _random_sum(rng, n, terms=3):
    out = exppoly.zero(n)
    for _ in range(terms):
        mu = tuple(rng.uniform(-2, 2) + 1j * rng.uniform(-0.3, 0.3) for _ in range(n))
        deg = tuple(rng.randint(0, 2) for _ in range(n))
        coeff = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
        out = exppoly.add(out, exppoly.monomial(deg, coeff, mu))
    return out


def _points(rng, n, count=5):
    return [tuple(rng.uniform(-3, 3) for _ in range(n)) for _ in range(count)]


def test_plane_wave_value():
    f = exppoly.plane_wave((0.5, -1.2))
    x = (0.3, 0.7)
    assert abs(f.eval(x) - cmath.exp(1j * (0.5 * 0.3 - 1.2 * 0.7))) < 1e-15


def test_ring_axioms_pointwise():
    rng = random.Random(3)
    f = _random_sum(rng, 2)
    g = _random_sum(rng, 2)
    h = _random_sum(rng, 2)
    fg = exppoly.mul(f, g)
    for x in _points(rng, 2):
        assert abs(fg.eval(x) - f.eval(x) * g.eval(x)) < 1e-12
        lhs = exppoly.mul(f, exppoly.add(g, h)).eval(x)
        rhs = exppoly.add(exppoly.mul(f, g), exppoly.mul(f, h)).eval(x)
        assert abs(lhs - rhs) < 1e-12


def test_derivative_leibniz():
    rng = random.Random(4)
    f = _random_sum(rng, 2)
    g = _random_sum(rng, 2)
    lhs = exppoly.derivative(exppoly.mul(f, g), 1)
    rhs = exppoly.add(
        exppoly.mul(exppoly.derivative(f, 1), g),
        exppoly.mul(f, exppoly.derivative(g, 1)),
    )
    for x in _points(rng, 2):
        assert abs(lhs.eval(x) - rhs.eval(x)) < 1e-11


def test_integrate_constant_bounds_against_closed_form():
    f = exppoly.plane_wave((0.7,))
    g = exppoly.integrate(f, 1, Bound.const(-1.0), Bound.const(2.0))
    want = (cmath.exp(0.7j * 2) - cmath.exp(-0.7j)) / (0.7j)
    assert abs(g.eval((0.0,)) - want) < 1e-14


def test_integrate_coordinate_bound_fundamental_theorem():
    # with f depending on x1 only: d/dx2 int_{-1}^{x2} f(t) dt = f(x2)
    rng = random.Random(5)
    f = exppoly.zero(2)
    for _ in range(3):
        mu = (rng.uniform(-2, 2), 0.0)
        deg = (rng.randint(0, 2), 0)
        f = exppoly.add(f, exppoly.monomial(deg, rng.uniform(-1, 1), mu))
    F = exppoly.integrate(f, 1, Bound.const(-1.0), Bound.coord(2))
    dF = exppoly.derivative(F, 2)
    at_x2 = exppoly.substitute(f, 1, Bound.coord(2))
    for x in _points(rng, 2):
        assert abs(dF.eval(x) - at_x2.eval(x)) < 1e-11


# a wavenumber in each branch of integrate: zero, Taylor series, exact
_BRANCH_WAVENUMBERS = {
    "zero": lambda rng: rng.choice([0.0, 4e-13]),
    "series": lambda rng: rng.uniform(1e-8, 8e-7) * cmath.exp(1j * rng.uniform(0, 6.3)),
    "exact": lambda rng: complex(rng.uniform(-2, 2), rng.uniform(-0.3, 0.3)),
}


@pytest.mark.parametrize("branch", sorted(_BRANCH_WAVENUMBERS))
@pytest.mark.parametrize("bound_kind", ["constant", "coordinate"])
def test_integrate_is_the_substituted_antiderivative(branch, bound_kind):
    # integrate's one term per bound against substitute(anti, upper) -
    # substitute(anti, lower): the same terms to the bit, signs of zeros too
    rng = random.Random(f"{branch}-{bound_kind}")
    for _ in range(25):
        n = rng.randint(2, 3)
        j = rng.randint(1, n)
        mu = [complex(rng.uniform(-2, 2), rng.uniform(-0.3, 0.3)) for _ in range(n)]
        mu[j - 1] = complex(_BRANCH_WAVENUMBERS[branch](rng))
        coeffs = {
            tuple(rng.randint(0, 3) for _ in range(n)): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(rng.randint(1, 4))
        }
        t = exppoly._term(n, mu, {d: c for d, c in coeffs.items() if sum(d) <= 3})
        if not t.coeffs:
            continue
        others = [k for k in range(1, n + 1) if k != j]
        if bound_kind == "constant":
            lower, upper = (Bound.const(rng.uniform(-4, 4)) for _ in range(2))
        else:
            lower, upper = (Bound.coord(k) for k in rng.sample(others * 2, 2))
        f = exppoly.ExpPolySum(n, (t,))
        anti = exppoly.ExpPolySum(n, (exppoly._antiderivative(t, j),))
        want = exppoly.canonicalize(exppoly.substitute(anti, j, upper) - exppoly.substitute(anti, j, lower))
        got = exppoly.integrate(f, j, lower, upper)
        assert repr(got.terms) == repr(want.terms)
        # and the antiderivative is one: d/dx_j of it gives t back
        back = exppoly.derivative(anti, j)
        for x in _points(rng, n):
            assert abs(back.eval(x) - f.eval(x)) <= 1e-11 * max(1.0, abs(f.eval(x)))


def _stepwise_integral(t, j, lower, upper, keep):
    """_antiderivative, substitute per bound, then _truncate to keep slots."""
    anti = exppoly.ExpPolySum(t.n, (exppoly._antiderivative(t, j),))
    return (
        exppoly._truncate(exppoly.substitute(anti, j, upper).terms[0], keep),
        exppoly._truncate(exppoly.scale(-1.0, exppoly.substitute(anti, j, lower)).terms[0], keep),
    )


@pytest.mark.parametrize("branch", sorted(_BRANCH_WAVENUMBERS))
@pytest.mark.parametrize("bound_kind", ["constant", "coordinate"])
@pytest.mark.parametrize("dropped", [0, 1, 2])
def test_fused_integration_step_is_the_stepwise_one(branch, bound_kind, dropped):
    # one step (antiderivative, both bounds, the last `dropped` slots cut)
    # against _antiderivative, substitute per bound, then _truncate: the
    # same terms to the bit; the integrated slot is the last one, and any
    # other dropped slot is unused.  Each random term comes with a plane
    # wave of its wavevector
    rng = random.Random(f"fused-{branch}-{bound_kind}-{dropped}")
    for _ in range(25):
        n = rng.randint(2, 3) + dropped
        j = n if dropped else rng.randint(1, n)
        keep = n - dropped
        unused = range(keep + 1, n)
        mu = [0j if k in unused else complex(rng.uniform(-2, 2), rng.uniform(-0.3, 0.3)) for k in range(1, n + 1)]
        mu[j - 1] = complex(_BRANCH_WAVENUMBERS[branch](rng))
        coeffs = {
            tuple(0 if k in unused else rng.randint(0, 3) for k in range(1, n + 1)): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            for _ in range(rng.randint(1, 4))
        }
        t = exppoly._term(n, mu, {d: c for d, c in coeffs.items() if sum(d) <= 3})
        wave = exppoly._term(n, mu, {(0,) * n: next(iter(coeffs.values()))})
        if bound_kind == "constant":
            lower, upper = (Bound.const(rng.uniform(-4, 4)) for _ in range(2))
        else:
            others = [k for k in range(1, keep + 1) if k != j]
            lower, upper = (Bound.coord(k) for k in rng.sample(others * 2, 2))
        for u in (t, wave) if t.coeffs else (wave,):
            want = _stepwise_integral(u, j, lower, upper, keep)
            assert repr(exppoly._integrate_term(u, j, lower, upper, keep)) == repr(want)


def test_fused_integration_step_refuses_a_used_dropped_slot():
    lower, upper = Bound.const(-1.0), Bound.coord(1)
    # slot 2 carries a wavenumber, a NaN one, then a monomial; slot 3 is
    # integrated
    for t in (
        exppoly.plane_wave((0.5, 0.25, 1.0)).terms[0],
        exppoly.plane_wave((0.5, math.nan, 1.0)).terms[0],
        exppoly.monomial((0, 1, 2), 1.0, (0.5, 0.0, 1.0)).terms[0],
    ):
        exppoly._integrate_term(t, 3, lower, upper, 2)
        with pytest.raises(ValueError, match="dropped slot"):
            exppoly._integrate_term(t, 3, lower, upper, 1)


def test_truncate_drops_zero_coefficients_first():
    # a zero entry on a dropped slot is dropped, not refused, and does not
    # overwrite the kept entry of the same truncated degree
    t = exppoly.ExpPolyTerm(2, (1 + 0j, 0j), (((0, 0), 3 + 0j), ((0, 1), 0j)))
    kept = exppoly._truncate(t, 1)
    assert (kept.wavevector, kept.coeffs) == ((1 + 0j,), (((0,), 3 + 0j),))


def _general_embed(t, slots, wavevector, c):
    """_embed's general path: every monomial relabelled, then _build."""
    n = len(wavevector)
    wv = list(wavevector)
    for s, m in zip(slots, t.wavevector):
        wv[s - 1] = wv[s - 1] + m if wv[s - 1] else m
    coeffs = {}
    for deg, a in t.coeffs:
        d = [0] * n
        for s, e in zip(slots, deg):
            d[s - 1] = e
        coeffs[tuple(d)] = a * c
    return exppoly._build(n, wv, coeffs)


def test_embed_of_one_monomial_is_the_general_one():
    # degree 0 takes the plane-wave step, any other degree the general path;
    # the coefficients include signed zeros, NaN, infinity and a product
    # that rounds to zero
    rng = random.Random("embed")
    coefficients = [0.6 - 0.8j, complex(-0.0, 0.7), complex(0.7, -0.0), complex(math.nan, 1.0), complex(math.inf, 0.0), 1e-200]
    scalars = [0.8 - 0.3j, complex(-1.0, 0.0), complex(-0.0, -1.0), 1e-200]
    for _ in range(40):
        n = rng.randint(1, 3)
        ext_n = n + rng.randint(0, 2)
        slots = rng.sample(range(1, ext_n + 1), n)
        mu = [complex(rng.uniform(-2, 2), rng.choice([-0.0, 0.0, 0.3])) for _ in range(n)]
        wavevector = [rng.choice([0j, complex(-0.0, -0.0), complex(rng.uniform(-1, 1), -0.0)]) for _ in range(ext_n)]
        for deg in ((0,) * n, tuple(rng.randint(0, 2) for _ in range(n))):
            for a in coefficients:
                t = exppoly._term(n, mu, {deg: a})
                for c in scalars:
                    want = _general_embed(t, slots, wavevector, c)
                    assert repr(exppoly._embed(t, slots, wavevector, c)) == repr(want), (t, slots, wavevector, c)


# The general term paths as they were before plane-wave terms took paths of
# their own; each direct path is pinned to one of them by repr


def _frozen_derivative(f, j):
    """derivative's general path: every term through a coefficient dict and
    _build."""
    out = []
    for t in f.terms:
        muj = t.wavevector[j - 1]
        coeffs = {}
        for deg, c in t.coeffs:
            dj = deg[j - 1]
            if dj:
                lower = deg[: j - 1] + (dj - 1,) + deg[j:]
                coeffs[lower] = coeffs.get(lower, 0j) + dj * c
            if muj != 0:
                coeffs[deg] = coeffs.get(deg, 0j) + 1j * muj * c
        if coeffs:
            out.append(exppoly._build(t.n, t.wavevector, coeffs))
    return exppoly.ExpPolySum(f.n, tuple(out))


def _frozen_scale(c, f):
    """scale's general path: every term's monomials multiplied in one loop."""
    c = complex(c)
    if c == 0:
        return exppoly.zero(f.n)
    return exppoly.ExpPolySum(f.n, tuple(exppoly.ExpPolyTerm(t.n, t.wavevector, tuple((d, c * a) for d, a in t.coeffs)) for t in f.terms))


def _frozen_merge_rows(n, rows):
    """merge_rows with every row keyed by its entries' cell keys."""
    cells = exppoly._cell_keys({m for wv, _ in rows for m in wv})
    merged = {}
    for wv, c in rows:
        key = tuple(map(cells.__getitem__, wv))
        rep = merged.get(key)
        if rep is None:
            merged[key] = [wv, c]
        else:
            rep[1] = rep[1] + c
    moduli, floor = exppoly._floor([c for _, c in merged.values()])
    deg = (0,) * n
    kept = zip(merged.values(), moduli)
    return exppoly.ExpPolySum(n, tuple(exppoly.ExpPolyTerm(n, tuple(wv), ((deg, c),)) for (wv, c), a in kept if not a <= floor))


_ODD_COEFFICIENTS = [0.6 - 0.8j, 0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), complex(-0.0, 0.7),
                     complex(0.7, -0.0), complex(math.nan, 1.0), complex(math.inf, -0.0), complex(-math.inf, math.inf), 1e-200]


def _plane_wave_mix(n, rng):
    """A sum on n slots of plane waves with every coefficient of
    _ODD_COEFFICIENTS and wavenumbers 0, -0.0, complex, tiny and NaN, one
    term with polynomial monomials and one with no monomials."""
    entries = [0j, complex(-0.0, 0.0), complex(-0.0, -0.0), 0.8 - 0.3j, complex(-0.45, -0.0), 1e-200, complex(math.nan, 0.0)]
    terms = [exppoly.ExpPolyTerm(n, tuple(rng.choice(entries) for _ in range(n)), (((0,) * n, c),)) for c in _ODD_COEFFICIENTS]
    if n:
        deg = tuple(rng.randint(0, 2) for _ in range(n))
        terms.append(exppoly._term(n, tuple(rng.choice(entries[3:5]) for _ in range(n)), {deg: 0.5 - 0.25j, (0,) * n: -1.5}))
    terms.append(exppoly.ExpPolyTerm(n, (0.3 + 0j,) * n, ()))
    return exppoly.ExpPolySum(n, tuple(terms))


def test_derivative_of_a_plane_wave_is_the_general_one():
    # mu_j of 0, -0.0, complex(-0.0, -0.0), complex, tiny and NaN, times
    # zero, signed-zero, NaN, infinite and underflowing coefficients
    rng = random.Random("derivative")
    mus = [0j, complex(-0.0, 0.0), complex(-0.0, -0.0), 0.8 - 0.3j, complex(-0.45, -0.0), 1e-200, complex(math.nan, 0.0), complex(math.inf, 0.0)]
    for n in (1, 2, 3):
        cases = [_plane_wave_mix(n, rng) for _ in range(4)]
        for j in range(1, n + 1):
            for mu in mus:
                wave = [complex(rng.uniform(-1, 1), rng.choice([-0.0, 0.0, 0.3])) for _ in range(n)]
                wave[j - 1] = mu
                cases.append(exppoly.ExpPolySum(n, tuple(exppoly.ExpPolyTerm(n, tuple(wave), (((0,) * n, c),)) for c in _ODD_COEFFICIENTS)))
            for f in cases:
                got = exppoly.derivative(f, j)
                assert repr(got) == repr(_frozen_derivative(f, j)), (f, j)
                # a plane wave keeps its wavevector object
                kept = {id(t.wavevector) for t in f.terms}
                assert all(id(t.wavevector) in kept for t in got.terms)


def test_scale_is_the_general_one():
    rng = random.Random("scale")
    scalars = [0.8 - 0.3j, -1.0, complex(-0.0, -1.0), complex(-1.0, 0.0), 1e-200, 1e200, math.nan, math.inf, complex(0.0, -math.inf), 0.0, -0.0, 0j]
    for n in (0, 1, 2, 3):
        f = _plane_wave_mix(n, rng)
        many = exppoly.ExpPolySum(n, tuple(exppoly.ExpPolyTerm(n, t.wavevector, (((1,) + (0,) * (n - 1), 2.0),) + t.coeffs) for t in f.terms[:6] if n))
        for c in scalars:
            for g in (f, many, exppoly.zero(n)):
                assert repr(exppoly.scale(c, g)) == repr(_frozen_scale(c, g)), (c, g)


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_relabelling_every_permutation_at_once_is_one_relabelling_per_permutation(n):
    # each relabelling of many equals the one-permutation call and, term by
    # term, _embed's general path; a plane wave's coefficients are shared
    f = _plane_wave_mix(n, random.Random(f"relabel {n}"))
    perms = [w.images for w in all_permutations(n)]
    got = exppoly._relabel(f, perms)
    assert len(got) == len(perms)
    for g, slots in zip(got, perms):
        assert repr(g) == repr(exppoly._relabel(f, [slots])[0])
        assert repr(g) == repr(exppoly.ExpPolySum(n, tuple(_general_embed(t, slots, [0j] * n, 1.0) for t in f.terms)))
    plane = [k for k, t in enumerate(f.terms) if len(t.coeffs) == 1 and not any(t.coeffs[0][0])]
    assert len(plane) == len(_ODD_COEFFICIENTS)
    assert all(g.terms[k].coeffs is got[0].terms[k].coeffs for g in got for k in plane)


def _merge_rows_cases():
    """(rows on 2 slots, whether no two distinct entries share a cell)."""
    nan, inf = math.nan, math.inf
    nan_wave = complex(nan, 0.0)
    a, b, c = 0.8 - 0.3j, complex(-0.45, -0.0), 0.25 + 0j
    # repeated wavevectors, as tuples and as lists, signed zeros that are
    # one entry, a cancellation the floor prunes
    yield [((a, b), 1.0), ([a, b], 0.5j), ((b, a), -2.0), ((0j, a), complex(-0.0, 1.0)), ((complex(-0.0, 0.0), a), 2.0),
           ((b, a), complex(2.0, 1e-17)), ((c, c), 3.0)], True
    # two distinct entries in one cell, merged, and either on its own
    yield [((0.5, a), 1.0), ((0.5 + 1e-13, a), 2.0), ((a, 0.5 + 1e-13), 0.25), ((a, b), 1.0), ((b, a), -1.0)], False
    # NaN entries: one object twice, merged, an equal one apart; infinite
    # entries, equal ones merged
    yield [((nan_wave, a), 1.0), ((nan_wave, a), 2.0), ((complex(nan, 0.0), a), 3.0), ((complex(inf, 0.0), b), 1.0),
           ((complex(inf, -0.0), b), complex(nan, 1.0)), ((a, b), complex(0.0, -inf))], True
    # a NaN entry beside two distinct entries of one cell
    yield [((nan_wave, 0.5), 1.0), ((nan_wave, 0.5 + 1e-13), 2.0), ((0.5, nan_wave), 1.0)], False
    # an overflowing modulus next to ones it would otherwise prune
    yield [((0.5, 0.2), complex(1.5e308, 1.5e308)), ((0.7, 0.2), 1.0), ((0.5, 0.2), 1.0)], True
    yield [], True


def test_merge_rows_keyed_by_wavevector_is_the_cell_keyed_merge():
    cases = list(_merge_rows_cases())
    for rows, by_wave in cases:
        cells = exppoly._cell_keys({m for wv, _ in rows for m in wv})
        assert (len(set(cells.values())) == len(cells)) == by_wave
        assert repr(exppoly.merge_rows(2, rows)) == repr(_frozen_merge_rows(2, rows)), rows
    assert {by_wave for _, by_wave in cases} == {True, False}


def test_a_merged_term_is_its_source_only_where_it_was_neither_merged_nor_scaled():
    reused = 0
    for rows, _ in _merge_rows_cases():
        f = exppoly.ExpPolySum(2, tuple(exppoly.ExpPolyTerm(2, tuple(wv), (((0, 0), c),)) for wv, c in rows))
        cells = exppoly._cell_keys({m for wv, _ in rows for m in wv})
        keys = [tuple(map(cells.__getitem__, t.wavevector)) for t in f.terms]
        alone = [t for t, key in zip(f.terms, keys) if keys.count(key) == 1]
        for g in (exppoly.canonicalize(f), exppoly.combine(2, [((), f), ((), exppoly.zero(2))])):
            assert repr(g) == repr(_frozen_merge_rows(2, rows))
            # the terms alone in their cells that survive are f's, the rest new
            kept = [t for t in g.terms if any(t is s for s in f.terms)]
            assert all(any(t is s for s in alone) for t in kept)
            assert len(kept) == sum(any(repr(t) == repr(s) for t in g.terms) for s in alone)
            reused += len(kept)
        # scaled, or merged by merge_rows: every term is new
        for g in (exppoly.combine(2, [((1.0,), f)]), exppoly.merge_rows(2, rows)):
            assert not any(t is s for t in g.terms for s in f.terms)
    assert reused
    f = exppoly.plane_wave((0.5, 0.25)) + exppoly.plane_wave((0.75, 0.25)) + exppoly.plane_wave((0.5, 0.25))
    g = exppoly.canonicalize(f)
    assert g.terms[0] is not f.terms[0] and g.terms[1] is f.terms[1]


def _gauss_legendre(func, a, b, nodes=60):
    """The nodes-point Gauss-Legendre rule for func over [a, b], and the
    same rule for |func|, the scale its error is measured against."""
    xs, ws = np.polynomial.legendre.leggauss(nodes)
    values = [func(0.5 * (b - a) * t + 0.5 * (a + b)) for t in xs]
    half = 0.5 * (b - a)
    return half * sum(w * v for w, v in zip(ws, values)), half * sum(w * abs(v) for w, v in zip(ws, values))


def test_series_branch_keeps_the_degree_within_the_cap():
    # the Taylor series stops once its remainder bound is below double
    # rounding, so a cubic integrates below SMALL_WAVENUMBER_TOL as it does above
    f = exppoly.monomial((3, 0), 1.0, (9e-7, 0.0))
    got = exppoly.integrate(f, 1, Bound.const(0.0), Bound.const(1.0)).eval((0.0, 0.0))
    want, size = _gauss_legendre(lambda t: t**3 * cmath.exp(9e-7j * t), 0.0, 1.0)
    assert abs(got - want) <= 1e-13 * size
    for deg in range(4):
        for mu in (1e-9, 1e-8, 1e-7, 5e-7, 9e-7, 9.99e-7):
            f = exppoly.monomial((deg, 0), 1.0, (mu, 0.0))
            got = exppoly.integrate(f, 1, Bound.const(-5.0), Bound.const(5.0)).eval((0.0, 0.0))
            want, size = _gauss_legendre(lambda t: t**deg * cmath.exp(1j * mu * t), -5.0, 5.0)
            assert abs(got - want) <= 1e-13 * size


def test_dropped_slots_refuse_any_nonzero_wavenumber():
    # NaN > 0 is False, so a NaN wavenumber must be refused as nonzero
    nan_wave = exppoly.plane_wave((1.0, math.nan))
    assert cmath.isnan(nan_wave.eval((0.5, 0.5)))
    with pytest.raises(ValueError):
        exppoly._truncate(exppoly.plane_wave((1.0, math.nan, 0.0)).terms[0], 1)
    with pytest.raises(ValueError):
        exppoly._truncate(nan_wave.terms[0], 1)
    with pytest.raises(ValueError):
        exppoly._truncate(exppoly.monomial((0, 1), 1.0, (1.0, 0.0)).terms[0], 1)
    kept = exppoly._truncate(exppoly.monomial((2, 0), 3.0, (1.0, 0.0)).terms[0], 1)
    assert (kept.wavevector, kept.coeffs) == ((1 + 0j,), (((2,), 3 + 0j),))


def test_substitute_and_swap_pointwise():
    rng = random.Random(6)
    f = _random_sum(rng, 2)
    at = exppoly.substitute(f, 1, Bound.const(0.4))
    for x in _points(rng, 2):
        assert abs(at.eval(x) - f.eval((0.4, x[1]))) < 1e-12
    swapped = alcovefn.act_analytic(Permutation((2, 1)), f)
    for x in _points(rng, 2):
        assert abs(swapped.eval(x) - f.eval((x[1], x[0]))) < 1e-12


@pytest.mark.parametrize("j", (0, -1, 3))
def test_derivative_refuses_a_slot_outside_one_to_n(j):
    for f in (exppoly.plane_wave((1.0, 2.0)), exppoly.zero(2)):
        with pytest.raises(ValueError, match="out of range"):
            exppoly.derivative(f, j)


def test_integrate_refuses_a_slot_or_coordinate_bound_outside_one_to_n():
    f = exppoly.plane_wave((1.0, 2.0))
    zero, one = Bound.const(0.0), Bound.const(1.0)
    for j, lower, upper in ((0, zero, one), (-1, zero, one), (3, zero, one), (1, zero, Bound.coord(5)), (1, Bound.coord(3), one)):
        with pytest.raises(ValueError, match="out of range"):
            exppoly.integrate(f, j, lower, upper)


def test_substitute_refuses_a_slot_or_coordinate_bound_outside_one_to_n():
    f = exppoly.plane_wave((1.0, 2.0))
    for j, b in ((0, Bound.const(0.5)), (-1, Bound.const(0.5)), (3, Bound.const(0.5)), (1, Bound.coord(5)), (1, Bound.coord(3))):
        with pytest.raises(ValueError, match="out of range"):
            exppoly.substitute(f, j, b)


def test_pullback_refuses_an_output_slot_outside_one_to_new_n():
    # slot 0 would write through index -1, slot 3 past the end; an empty
    # sum is refused too, as the rows are checked once per call
    for f in (exppoly.plane_wave((1.5,)), exppoly.zero(1)):
        for p in (0, 3):
            with pytest.raises(ValueError, match="out of range"):
                exppoly.pullback(f, {1: {p: 1.0}}, 2)


def test_eval_many_refuses_points_that_are_not_rows_of_length_n():
    for f in (exppoly.plane_wave((2.0, -1.0)), exppoly.zero(2)):
        for X in ([(0.3, 0.7, 99.0)], [(0.3,)], [0.3, 0.7], 0.3, np.zeros((1, 1, 2))):
            with pytest.raises(ValueError, match="dimension mismatch"):
                f.eval_many(X)
        assert f.eval_many(np.zeros((0, 2))).shape == (0,)


def test_canonicalize_merges_cancellations():
    f = exppoly.plane_wave((0.5,))
    g = exppoly.scale(-1.0, f)
    total = exppoly.canonicalize(exppoly.add(f, g))
    assert not total.terms


def test_canonicalize_keeps_nan():
    f = exppoly.canonicalize(exppoly.scale(float("nan"), exppoly.plane_wave((0.5,))))
    assert cmath.isnan(f.eval((0.3,)))


def test_canonicalize_keeps_infinity():
    # the prune floor scales with the largest finite coefficient only
    wave = exppoly.plane_wave((0.5,))
    f = exppoly.canonicalize(exppoly.scale(float("inf"), wave))
    (coeff,) = [c for t in f.terms for _, c in t.coeffs]
    assert not cmath.isfinite(coeff)
    g = exppoly.canonicalize(exppoly.add(exppoly.scale(float("inf"), wave), exppoly.plane_wave((0.7,))))
    assert len(g.terms) == 2


def test_combine_reads_an_overflowing_modulus_as_infinite():
    # |1.5e308 (1 + i)| exceeds the float range, so abs raises on it: the
    # coefficient is kept and sets no floor, as an infinite one
    huge = complex(1.5e308, 1.5e308)
    wave = exppoly.plane_wave((0.5,))
    assert exppoly.canonicalize(exppoly.scale(huge, wave)).terms[0].coeffs == (((0,), huge),)
    g = exppoly.canonicalize(exppoly.add(exppoly.scale(huge, wave), exppoly.plane_wave((0.7,))))
    assert [t.coeffs for t in g.terms] == [(((0,), huge),), (((0,), 1.0),)]
    # a wavenumber of that size still cannot be keyed
    with pytest.raises(OverflowError):
        exppoly.canonicalize(exppoly.plane_wave((huge,)))


def test_merge_rows_is_canonicalize_of_the_plane_waves():
    nan, inf = math.nan, math.inf
    rng = random.Random(12)
    entries = [complex(rng.uniform(-2, 2), rng.uniform(-0.3, 0.3)) for _ in range(3)]
    rows = []
    for _ in range(40):
        wv = [rng.choice(entries) for _ in range(2)]
        # a nearby copy that shares the cell, or not
        if rng.random() < 0.3:
            wv[0] += 1e-13 * rng.uniform(-1, 1)
        rows.append((wv, complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
    rows.append((list(rows[0][0]), -rows[0][1] + 1e-17))
    nan_wave = complex(nan, 0.0)
    cases = [
        rows,
        # signed zeros in the wavenumbers and the coefficients
        [([complex(-0.0, 0.5), 0j], complex(-0.0, 1.0)), ([0j, complex(0.0, -0.0)], complex(2.0, -0.0)),
         ([complex(0.0, 0.5), -0.0 + 0j], complex(-0.0, -0.0) + 1e-300)],
        # non-finite coefficients and wavenumbers, one NaN object twice
        [([nan_wave, 0.5], 1.0), ([nan_wave, 0.5], 2.0), ([complex(nan, 0.0), 0.5], 3.0),
         ([complex(inf, -0.0), 0.5], 1.0), ([complex(inf, 0.0), 0.5], complex(nan, 1.0)), ([0.3, 0.5], complex(0.0, -inf))],
        # an overflowing modulus next to ones it would otherwise prune
        [([0.5, 0.2], complex(1.5e308, 1.5e308)), ([0.7, 0.2], 1.0), ([0.5, 0.2], 1.0)],
        [],
    ]
    for rows in cases:
        terms = tuple(exppoly.ExpPolyTerm(2, tuple(wv), (((0, 0), c),)) for wv, c in rows)
        want = exppoly.canonicalize(exppoly.ExpPolySum(2, terms))
        assert repr(exppoly.merge_rows(2, rows)) == repr(want)


@pytest.mark.parametrize("shared", [True, False])
def test_merge_row_arrays_is_merge_rows_per_set(shared):
    # sets of rows over a few entries, with nearby copies that share a cell
    # or sit across its edge, a cancelling row that the floor prunes, signed
    # zeros, wavenumbers past 1 that set the cell, and sets without rows.
    # Shared, every set draws from the same entries, so rows of different
    # sets have equal cell keys but for the set; otherwise each set has
    # entries of its own besides the signed zeros and the large one.
    # Outside any np.errstate, so a lost guard shows as a RuntimeWarning
    rng = random.Random(14)
    special = [complex(-0.0, 0.5), complex(0.0, -0.0), complex(37.5, -4.0)]
    common = [complex(rng.uniform(-2, 2), rng.uniform(-0.3, 0.3)) for _ in range(3)]
    sets = []
    for k in range(8):
        own = common if shared else [complex(rng.uniform(-2, 2), rng.uniform(-0.3, 0.3)) for _ in range(3)]
        entries = own + special
        rows = []
        for _ in range(rng.choice((0, 1, 5, 40))):
            wv = [rng.choice(entries) for _ in range(3)]
            if rng.random() < 0.3:
                wv[rng.randrange(3)] += 1e-13 * rng.uniform(-40, 40)
            rows.append((wv, complex(rng.choice((-0.0, rng.uniform(-1, 1))), rng.uniform(-1, 1))))
        if rows:
            rows.append((list(rows[0][0]), -rows[0][1] + 1e-17))
        sets.append(rows)
    owner = np.array([k for k, rows in enumerate(sets) for _ in rows], dtype=np.int64)
    waves = np.array([wv for rows in sets for wv, _ in rows], dtype=complex).reshape(-1, 3).T
    coeffs = np.array([c for rows in sets for _, c in rows], dtype=complex)
    got = exppoly.merge_row_arrays(3, owner, waves, coeffs, len(sets))
    assert [repr(f) for f in got] == [repr(exppoly.merge_rows(3, rows)) for rows in sets]
    assert sum(len(f.terms) for f in got) < len(coeffs)


def test_arrays_read_prune_and_build_each_sum_as_canonicalize():
    # plane-wave sums over a few far-apart wavevectors, repeated within a
    # sum; coefficients with signed zeros, NaN, infinities, an overflowing
    # modulus, ones below the floor and 0j; and the empty sum.  Outside any
    # np.errstate, so a lost guard shows as a RuntimeWarning
    rng = random.Random(13)
    waves = [tuple(complex(rng.uniform(-2, 2), rng.uniform(-0.3, 0.3)) for _ in range(2)) for _ in range(4)]
    special = [complex(-0.0, 0.7), complex(0.5, -0.0), complex(math.nan, 1.0), complex(0.0, -math.inf), complex(math.inf, 0.0),
               complex(1.5e308, 1.5e308), 1e-17, 0j]
    deg = (0, 0)
    sums = [exppoly.zero(2)]
    for _ in range(30):
        terms = []
        for _ in range(rng.randint(1, 6)):
            c = rng.choice(special) if rng.random() < 0.3 else complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            terms.append(exppoly.ExpPolyTerm(2, rng.choice(waves), ((deg, c),)))
        sums.append(exppoly.ExpPolySum(2, tuple(terms)))
    assert any(len({t.wavevector for t in f.terms}) < len(f.terms) for f in sums)
    a = exppoly.to_arrays(2, sums)
    got = a.to_sums(*a.prune(a.coeffs, a.rank))
    assert repr(got) == repr([exppoly.canonicalize(f) for f in sums])
    with pytest.raises(ValueError, match="dimension mismatch"):
        exppoly.to_arrays(2, [exppoly.plane_wave((1.0,))])
    # a term with a degree-1 monomial, with two monomials, or with none
    for coeffs in ((((1, 0), 1.0 + 0j),), ((deg, 1.0 + 0j), ((0, 1), 2.0 + 0j)), ()):
        f = exppoly.ExpPolySum(2, (exppoly.ExpPolyTerm(2, waves[0], ((deg, 1.0 + 0j),)), exppoly.ExpPolyTerm(2, waves[1], coeffs)))
        with pytest.raises(ValueError, match="plane-wave"):
            exppoly.to_arrays(2, [exppoly.zero(2), f])
    # a deformed word on an orbit table with a polynomial entry
    o = momrep.orbit_planewave((0.3, -0.4))
    entries = dict(o.entries)
    entries[identity(2)] = exppoly.monomial((1, 0), 1.0, (0.3, -0.4))
    with pytest.raises(ValueError, match="plane-wave"):
        momrep.apply_deformed_word(momrep.OrbitFunction(o.lam, entries), simple(1, 2), 1.0)


def test_canonicalize_merges_a_nonfinite_wavevector_only_with_its_equal():
    # the merge tolerance scales with the largest finite wavevector entry
    inf_wave = exppoly.plane_wave((math.inf,))
    f = exppoly.canonicalize(inf_wave + exppoly.plane_wave((0.5,)))
    assert [t.wavevector for t in f.terms] == [(complex(math.inf, 0),), (0.5 + 0j,)]
    g = exppoly.canonicalize(inf_wave + inf_wave)
    assert [(t.wavevector, t.coeffs) for t in g.terms] == [((complex(math.inf, 0),), (((0,), 2 + 0j),))]


_parts = st.floats(-7.0, 7.0)  # |entry| <= 7 * sqrt(2) < 10
_offsets = st.one_of(st.just(0.0), st.floats(-2e-11, 2e-11))


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    st.lists(st.builds(complex, _parts, _parts), min_size=n, max_size=n),
    st.lists(st.builds(complex, _offsets, _offsets), min_size=n, max_size=n),
    st.lists(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n), min_size=3, max_size=3),
)))
def test_canonicalize_merges_only_within_tolerance(case):
    w, delta, points = case
    shifted = tuple(a + d for a, d in zip(w, delta))
    unmerged = exppoly.plane_wave(w) + exppoly.plane_wave(shifted)
    merged = exppoly.canonicalize(unmerged)
    scale = max([1.0] + [abs(m) for m in w + list(shifted)])
    if len(merged.terms) == 1:
        assert all(abs(a - b) <= exppoly.MERGE_TOL * scale for a, b in zip(w, shifted))
    if not any(delta):
        assert [t.coeffs for t in merged.terms] == [(((0,) * len(w), 2 + 0j),)]
    for x in points:
        want = unmerged.eval(x)
        assert abs(merged.eval(x) - want) <= 1e-9 * max(abs(want), 1.0)


def test_canonicalize_keeps_a_close_pair_split_by_a_cell_edge():
    # cells are MERGE_TOL / 2 wide here and 0.5 sits on a cell centre
    wave = exppoly.plane_wave((0.5,))
    assert len(exppoly.canonicalize(wave + exppoly.plane_wave((0.5 + 6e-13,))).terms) == 2
    assert len(exppoly.canonicalize(wave + exppoly.plane_wave((0.5 + 2e-13,))).terms) == 1


def _canonicalize_keying_every_entry(f):
    """canonicalize with each wavevector entry keyed where it occurs, not
    once per distinct entry."""
    scale = max([1.0] + [a for t in f.terms for m in t.wavevector if (a := abs(m)) < math.inf])
    cell = exppoly.MERGE_TOL * scale / 2
    merged = {}
    for t in f.terms:
        key = tuple((round(m.real / cell), round(m.imag / cell)) if cmath.isfinite(m) else m for m in t.wavevector)
        if key not in merged:
            merged[key] = (t.wavevector, dict(t.coeffs))
        else:
            coeffs = merged[key][1]
            for deg, c in t.coeffs:
                coeffs[deg] = coeffs.get(deg, 0j) + c
    magnitudes = [abs(c) for _, coeffs in merged.values() for c in coeffs.values()]
    floor = exppoly.PRUNE_TOL * max([0.0] + [a for a in magnitudes if a < math.inf])
    out = []
    for wv, coeffs in merged.values():
        kept = {d: c for d, c in coeffs.items() if not abs(c) <= floor}
        if kept:
            out.append(exppoly._term(f.n, wv, kept))
    return exppoly.ExpPolySum(f.n, tuple(out))


def _canonicalize_cases():
    nan, inf = math.nan, math.inf
    # terms sharing wavenumber objects: relabelled copies, and the block
    # engine's integrated terms before they are merged
    f = _random_sum(random.Random(8), 3, terms=4)
    yield f + alcovefn.act_analytic(Permutation((2, 3, 1)), f) + alcovefn.act_analytic(Permutation((3, 1, 2)), f)
    psi = wavefn.prewavefunction(wavefn.RapiditySet((0.8, -0.3, 0.45), 1.0, 10.0))
    for i in ((2,), (3, 1)):
        plan = ybops._plan("e_bar+", 0.37, i, 3)
        block = ybops._prepare(0.8, plan, 10.0)
        for sigma in all_permutations(3):
            geometry = ybops._geometry(plan, sigma)
            yield exppoly.ExpPolySum(3, tuple(ybops._terms([(block, geometry)], psi, 10.0) if geometry else ()))
    # signed zeros
    yield exppoly.plane_wave((0.0, 1.0)) + exppoly.plane_wave((-0.0, 1.0)) + exppoly.plane_wave((complex(0.0, -0.0), 1.0))
    yield exppoly.monomial((1, 0), -0.0, (0.5, -0.0)) + exppoly.monomial((1, 0), 2.0, (0.5, 0.0))
    # non-finite entries: one NaN object twice, two NaN objects, infinities
    wave = exppoly.plane_wave((nan, 0.5))
    yield wave + wave + exppoly.plane_wave((nan, 0.5)) + exppoly.plane_wave((0.7, 0.5))
    yield exppoly.plane_wave((inf, 0.5)) + exppoly.plane_wave((complex(inf, -0.0), 0.5)) + exppoly.plane_wave((-inf, 3.0))
    yield exppoly.plane_wave((complex(inf, nan),)) + exppoly.scale(inf, exppoly.plane_wave((0.5,))) + exppoly.plane_wave((0.5,))
    # the cell-edge pair, a pair inside one cell, and a pair that shares a
    # cell only at the scale of its largest entry
    yield exppoly.plane_wave((0.5,)) + exppoly.plane_wave((0.5 + 6e-13,))
    yield exppoly.plane_wave((0.5,)) + exppoly.plane_wave((0.5 + 2e-13,))
    yield exppoly.plane_wave((10.0,)) + exppoly.plane_wave((10.0 + 2e-12,))


def test_canonicalize_keys_each_distinct_entry_as_every_entry_would_be():
    cases = list(_canonicalize_cases())
    assert len(cases) == 21
    for f in cases:
        assert repr(exppoly.canonicalize(f)) == repr(_canonicalize_keying_every_entry(f))


def _scale_add_canonicalize(n, parts):
    """combine's meaning, step by step: each part through scale, factor by
    factor, the parts added in order, then the test-local canonicalize."""
    total = exppoly.zero(n)
    for factors, f in parts:
        for c in factors:
            f = exppoly.scale(c, f)
        total = exppoly.add(total, f)
    return _canonicalize_keying_every_entry(total)


def _plane_wave_parts():
    """Parts whose terms are all plane waves, with signed zeros, non-finite
    and underflowing coefficients and factors, and shared cells."""
    nan, inf = math.nan, math.inf
    psi = wavefn.prewavefunction(wavefn.RapiditySet((0.8 + 0.2j, -0.45 - 0.1j, 0.3), -0.7, 10.0))
    pieces = list(psi.pieces.values())
    yield 3, [((), p) for p in pieces]
    yield 3, [((-0.7,), pieces[0]), ((), pieces[1]), ((-1.0, 1.0 / 3.0), pieces[0])]
    wave = exppoly.plane_wave((0.5, -0.0))
    signed = exppoly.ExpPolySum(2, (
        exppoly.ExpPolyTerm(2, (complex(-0.0, 0.5), 0j), (((0, 0), complex(-0.0, 1.0)),)),
        exppoly.ExpPolyTerm(2, (0.5 + 0j, -0.0 + 0j), (((0, 0), complex(2.0, -0.0)),)),
    ))
    odd = exppoly.ExpPolySum(2, (
        exppoly.ExpPolyTerm(2, (0.5 + 0j, 1.0 + 0j), (((0, 0), complex(inf, -0.0)),)),
        exppoly.ExpPolyTerm(2, (complex(nan, 0.0), 1.0 + 0j), (((0, 0), 1.0 + 0j),)),
        exppoly.ExpPolyTerm(2, (0.7 + 0j, 1.0 + 0j), (((0, 0), 0j),)),
        exppoly.ExpPolyTerm(2, (0.5 + 0j, 1.0 + 0j), (((0, 0), complex(nan, 1.0)),)),
    ))
    yield 2, [((), signed), ((-1.0,), signed), ((), wave), ((-0.0,), odd)]
    yield 2, [((), odd), ((-1.0, inf), wave), ((1e-200, 1e-200), signed), ((), signed)]
    yield 2, [((complex(-0.0, 1.0),), signed), ((nan,), wave), ((), odd), ((-1.0,), odd)]
    yield 2, [((), exppoly.zero(2)), ((0.0,), wave)]


def _combine_cases():
    nan, inf = math.nan, math.inf
    wave = exppoly.plane_wave((0.5, -0.0))
    signed = exppoly.monomial((1, 0), complex(-0.0, 2.0), (0.5, 0.0)) + exppoly.monomial(
        (0, 0), complex(3.0, -0.0), (complex(-0.0, 0.0), 1.0))
    nonfinite = (
        exppoly.monomial((0, 0), complex(inf, 0.0), (0.5, 1.0))
        + exppoly.monomial((0, 1), complex(nan, 1.0), (1.5, -0.0))
        + exppoly.monomial((0, 0), complex(-inf, -0.0), (0.5, 1.0))
    )
    # -1.0 as a factor is complex(-1.0) * a, which is not -a on signed zeros
    # and infinities
    yield 2, [((-1.0,), signed), ((-1.0, -1.0), nonfinite), ((), wave), ((-1.0,), wave)]
    yield 2, [((), signed), ((-1.0, 0.5j), signed), ((2.0, -1.0), nonfinite)]
    # a cell's first term keeps the signed zeros of its coefficients
    yield 2, [((), signed), ((-1.0,), wave)]
    # a zero factor anywhere in the chain drops the part, wavenumbers and all:
    # 1e3 would widen the cells until the cell-edge pair merged
    edge = [((), exppoly.plane_wave((0.5,))), ((), exppoly.plane_wave((0.5 + 6e-13,)))]
    yield 1, edge
    for zero in [(0.0,), (2.0, 0j), (-0.0,), (0j, nan), (nan, complex(-0.0, 0.0))]:
        yield 1, edge[:1] + [(zero, exppoly.plane_wave((1e3,)))] + edge[1:]
    # infinite and NaN factors and coefficients
    yield 2, [((inf,), wave), ((nan,), signed), ((complex(inf, -0.0), -1.0), signed), ((), nonfinite)]
    yield 2, [((), nonfinite), ((-1.0,), nonfinite), ((nan, 0.0), wave)]
    # empty parts, and a term with no coefficients that stands for its cell
    yield 2, []
    yield 2, [((), exppoly.zero(2)), ((3.0,), exppoly.zero(2))]
    bare = exppoly.ExpPolySum(1, (exppoly.ExpPolyTerm(1, (0.5 + 0j,), ()),))
    yield 1, [((), bare), ((-1.0,), exppoly.plane_wave((0.5 + 2e-13,))), ((), exppoly.zero(1))]
    # parts that share wavenumber objects or cells, the cell-edge pair among them
    for f in _canonicalize_cases():
        yield f.n, [((), f), ((-1.0,), f)]
        yield f.n, [((0.5, 2j), f), ((), f), ((-1.0, 1.0 / 3.0), f)]
    yield from _plane_wave_parts()


def test_combine_is_the_scale_add_canonicalize_chain():
    cases = list(_combine_cases())
    # combine hands the cases whose terms are all plane waves to merge_rows
    plane = [all(len(t.coeffs) == 1 and not any(t.coeffs[0][0]) for _, f in parts for t in f.terms) for _, parts in cases]
    assert (len(cases), sum(plane)) == (62, 52)
    for n, parts in cases:
        want = repr(_scale_add_canonicalize(n, parts))
        assert repr(exppoly.combine(n, parts)) == want
    f = _random_sum(random.Random(9), 2)
    assert repr(exppoly.canonicalize(f)) == repr(_scale_add_canonicalize(2, [((), f)]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        exppoly.combine(2, [((), f), ((0.0,), exppoly.plane_wave((1.0,)))])


def _old_canonical_sum(*fs):
    total = exppoly.zero(fs[0].n)
    for f in fs:
        total = exppoly.add(total, f)
    return _canonicalize_keying_every_entry(total)


def _old_deformed_entry(point, j, gamma, here, swapped):
    divided = exppoly.scale(1.0 / (point[j - 1] - point[j]), exppoly.add(here, exppoly.scale(-1.0, swapped)))
    return _old_canonical_sum(swapped, exppoly.scale(-1j * gamma, divided))


def _old_apply_deformed_word(o, w, gamma):
    word = reduced_word(w)
    memo = {}

    def entry(k, rho):
        # entry rho after the last k letters of the word
        if k == 0:
            return o.entries[rho]
        if (k, rho) not in memo:
            j = word[len(word) - k]
            memo[k, rho] = _old_deformed_entry(
                o.point(rho), j, gamma, entry(k - 1, rho), entry(k - 1, compose(simple(j, o.n), rho)))
        return memo[k, rho]

    return momrep.OrbitFunction(o.lam, {s: entry(len(word), s) for s in o.entries})


def _old_orbit_add(o1, o2):
    return momrep.OrbitFunction(o1.lam, {s: _old_canonical_sum(o1.entries[s], o2.entries[s]) for s in o1.entries})


def _old_deformed_transposition_position(f, j, gamma):
    reflected = exppoly.scale(gamma, alcovefn.reflection_integral(f, j, j + 1))
    return _old_canonical_sum(alcovefn.act_analytic(simple(j, f.n), f), reflected)


def _old_symmetrize(F):
    perms = all_permutations(F.n)
    terms = [t for w in perms for t in alcovefn.act_analytic(w, F.pieces[w.inverse()]).terms]
    piece = exppoly.scale(1.0 / len(perms), exppoly.ExpPolySum(F.n, tuple(terms)))
    return alcovefn.extend_symmetric(_old_canonical_sum(piece), F.continuous)


def _old_explicit(r):
    acc = exppoly.zero(r.n)
    for w in all_permutations(r.n):
        wl = w.act_vector(r.lam)
        acc = acc + exppoly.scale(momrep.coeff_G(wl, r.gamma), exppoly.plane_wave(wl))
    piece = _old_canonical_sum(exppoly.scale(1.0 / len(all_permutations(r.n)), acc))
    return alcovefn.extend_symmetric(piece, continuous=True)


def _old_laplace_norms(F, r):
    energy = sum(v * v for v in r.lam)
    norms = []
    for piece in F.pieces.values():
        lap = exppoly.zero(F.n)
        for j in range(1, F.n + 1):
            lap = lap + exppoly.derivative(exppoly.derivative(piece, j), j)
        residual = _old_canonical_sum(lap + exppoly.scale(energy, piece))
        norms += [wavefn._coeff_norm(residual), wavefn._coeff_norm(piece)]
    return norms


def _complex_lam(rng, n):
    return tuple(complex(rng.uniform(-1.6, 1.6), rng.uniform(-0.3, 0.3)) + 0.5 * k for k in range(n))


def _sorted_entries(tables):
    return [dict(sorted(t.entries.items(), key=lambda kv: kv[0].images)) for t in tables]


def _tables(o, words):
    """The deformed-word table of o at each (gamma, w) of words, then its
    gamma-symmetrizer at 1.3 and its symmetrizer."""
    tables = [momrep.apply_deformed_word(o, w, gamma) for gamma, w in words]
    return _sorted_entries(tables + [momrep.gamma_symmetrizer(o, 1.3), momrep.symmetrizer(o)])


def _old_tables(o, words):
    """_tables by the frozen chains, each symmetrizer's tables added one at a
    time into a canonicalized partial sum."""
    perms = all_permutations(o.n)
    word = lru_cache(maxsize=None)(lambda gamma, w: _old_apply_deformed_word(o, w, gamma))
    average = lambda tables: momrep.orbit_scale(1.0 / len(perms), reduce(_old_orbit_add, tables))
    tables = [word(gamma, w) for gamma, w in words]
    tables += [average(word(1.3, w) for w in perms), average(momrep.act_table(w, o) for w in perms)]
    return _sorted_entries(tables)


def test_rerouted_sites_are_their_scale_add_canonicalize_chains(monkeypatch):
    rng = random.Random(19)
    # deformed words over S_3 and S_4, one entry of each, and the
    # symmetrizers that orbit_add sums
    for n in (3, 4):
        o = momrep.orbit_planewave(_complex_lam(rng, n))
        words = [(gamma, w) for gamma in (-0.7, 0.0, 1.3) for w in all_permutations(n)]
        old = _old_tables(o, words)
        assert repr(_tables(o, words)) == repr(old)
        for (gamma, w), table in zip(words, old):
            assert repr(momrep.deformed_word_entries(o, [(identity(o.n), w)], gamma, identity(n))[0]) == repr(table[identity(n)])
    # propagation, symmetrize, the explicit route and the Laplacian norms
    cases = [_complex_lam(rng, 3), _complex_lam(rng, 4), (0.5, 0.5, -0.3), (0.5, 0.5, -0.3, 0.2), (1.0, 1j)]
    for lam, gamma in [(lam, gamma) for lam in cases for gamma in (1.3, 0.0)]:
        psi = alcovefn.propagation(exppoly.plane_wave(lam), gamma)
        with monkeypatch.context() as m:
            m.setattr(alcovefn, "deformed_transposition_position", _old_deformed_transposition_position)
            old = alcovefn.propagation(exppoly.plane_wave(lam), gamma)
        assert repr(psi) == repr(old)
        assert repr(alcovefn.symmetrize(psi)) == repr(_old_symmetrize(psi))
        r = wavefn.RapiditySet(lam, gamma, 10.0)
        norms = []

        def recorded(f, coeff_norm=wavefn._coeff_norm):
            norms.append(coeff_norm(f))
            return norms[-1]

        with monkeypatch.context() as m:
            m.setattr(wavefn, "_coeff_norm", recorded)
            wavefn.verify_qnls(psi, r, check_dunkl=False, samples_per_wall=1)
        assert repr(norms) == repr(_old_laplace_norms(psi, r))
        if r.is_regular():
            assert repr(wavefn.bethe_wavefunction(r, "explicit")) == repr(_old_explicit(r))


def test_json_round_trip():
    rng = random.Random(7)
    f = _random_sum(rng, 3)
    back = exppoly.from_json(exppoly.to_json(f), 3)
    for x in _points(rng, 3):
        assert abs(back.eval(x) - f.eval(x)) < 1e-13


def test_degree_cap_enforced():
    f = exppoly.monomial((exppoly.DEGREE_CAP,), 1.0, (0.0,))
    with pytest.raises(exppoly.DegreeCapError):
        exppoly.mul(f, exppoly.monomial((1,), 1.0, (0.0,)))
    # the zero-wavenumber branch of integrate raises the degree too
    with pytest.raises(exppoly.DegreeCapError):
        exppoly.integrate(f, 1, Bound.const(0.0), Bound.const(1.0))
