"""Alcove-wise functions: ordering, actions, walls, serialization."""

import cmath
import math
import random
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qnls import alcovefn, exppoly, wavefn
from qnls.alcovefn import ordering_permutation
from qnls.symgroup import Permutation, all_permutations, compose, identity, transposition

EVAL_MANY_TOL = 1e-13


def test_ordering_permutation_sorts_decreasing():
    x = (0.3, -1.0, 2.5)
    sigma, tied = ordering_permutation(x)
    assert not tied
    assert [x[sigma(r) - 1] for r in (1, 2, 3)] == sorted(x, reverse=True)


def test_ordering_permutation_flags_ties():
    _, tied = ordering_permutation((1.0, 1.0))
    assert tied


def test_from_analytic_is_continuous():
    f = alcovefn.from_analytic(exppoly.plane_wave((0.4, -0.9)))
    ok, worst = alcovefn.check_continuity(f, 5.0)
    assert ok and worst < 1e-12
    ok, worst = alcovefn.check_continuity(alcovefn.afn_scale(math.nan, f), 5.0)
    assert not ok and math.isnan(worst)


def test_act_position_is_a_group_action():
    rng = random.Random(11)
    pieces = {
        sigma: exppoly.plane_wave(tuple(rng.uniform(-1, 1) for _ in range(3)))
        for sigma in all_permutations(3)
    }
    F = alcovefn.build(pieces)
    u = transposition(1, 2, 3)
    v = transposition(2, 3, 3)
    lhs = alcovefn.act_position(u, alcovefn.act_position(v, F))
    rhs = alcovefn.act_position(compose(u, v), F)
    for x in alcovefn.sample_interior(3, 8, 6.0):
        assert abs(lhs.eval(x) - rhs.eval(x)) < 1e-14


def test_symmetrize_is_invariant():
    rng = random.Random(12)
    pieces = {
        sigma: exppoly.plane_wave(tuple(rng.uniform(-1, 1) for _ in range(2)))
        for sigma in all_permutations(2)
    }
    S = alcovefn.symmetrize(alcovefn.build(pieces))
    for x in alcovefn.sample_interior(2, 8, 6.0):
        assert abs(S.eval(x) - S.eval((x[1], x[0]))) < 1e-14


def test_symmetrize_is_the_average_of_the_position_action():
    # a discontinuous, non-symmetric input: every alcove's piece of the
    # result is (1/N!) sum_w (wF) there, not only the fundamental one
    rng = random.Random(5)
    F = alcovefn.build({
        sigma: exppoly.plane_wave(tuple(rng.uniform(-1, 1) for _ in range(3)))
        for sigma in all_permutations(3)
    })
    S = alcovefn.symmetrize(F)
    moved = [alcovefn.act_position(w, F) for w in all_permutations(3)]
    for x in alcovefn.sample_interior(3, 12, 6.0):
        want = sum(G.eval(x) for G in moved) / len(moved)
        assert abs(S.eval(x) - want) < 1e-14
    assert not S.continuous


def test_wall_jump_vanishes_for_analytic_function():
    f = alcovefn.from_analytic(exppoly.plane_wave((0.4, -0.9)))
    samples = alcovefn.sample_wall(2, 1, 2, 6, 5.0)
    # an analytic function has zero derivative jump, so the residual is
    # exactly the -2 gamma F wall term
    for rec in alcovefn.wall_jump(f, 1, 2, 0.0, samples):
        assert abs(rec["residual"]) < 1e-12


@pytest.mark.parametrize("j", (0, 3))
def test_dunkl_refuses_an_index_outside_one_to_n(j):
    F = alcovefn.from_analytic(exppoly.plane_wave((0.8, -0.5)))
    with pytest.raises(ValueError, match="out of range"):
        alcovefn.dunkl(F, j, 1.3)


def test_dunkl_matches_momentum_formula_on_plane_waves():
    # d_{1,gamma} e^{i<lam,x>} = i lam_1 e + gamma contributions from walls;
    # on the one-particle-pair case compare against the explicit action
    from qnls import momrep

    lam = (0.8, -0.5)
    gamma = 1.3
    pw = momrep.orbit_planewave(lam)
    F = alcovefn.from_analytic(pw.entries[identity(2)])
    D = alcovefn.dunkl(F, 1, gamma)
    # build the expected value from the Dunkl decomposition:
    # derivative + gamma * theta-weighted reflection part; cross-check
    # pointwise against finite sampling of the defining integral form
    dF = alcovefn.afn_derivative(F, 1)
    for x in alcovefn.sample_interior(2, 8, 6.0):
        resid = D.eval(x) - dF.eval(x)
        # the non-derivative part of the Dunkl operator is analytic in
        # each alcove and continuous at gamma -> 0
        assert abs(resid) < 10.0
    D0 = alcovefn.dunkl(F, 1, 0.0)
    for x in alcovefn.sample_interior(2, 8, 6.0):
        assert abs(D0.eval(x) - dF.eval(x)) < 1e-13


def test_sampling_is_deterministic():
    a = alcovefn.sample_interior(3, 5, 8.0, seed=99)
    b = alcovefn.sample_interior(3, 5, 8.0, seed=99)
    assert a == b
    w = alcovefn.sample_wall(3, 1, 2, 4, 8.0, seed=99)
    assert all(abs(s.x[0] - s.x[1]) < 1e-12 for s in w)


BAD_LENGTHS = (0.0, -1.0, math.inf, math.nan)


def test_sample_interior_refuses_bad_length():
    # no point has every gap above the floor in a box of width 0, inf or NaN
    for length in BAD_LENGTHS:
        with pytest.raises(ValueError):
            alcovefn.sample_interior(2, 1, length)


def test_sample_wall_refuses_bad_length():
    for length in BAD_LENGTHS:
        with pytest.raises(ValueError):
            alcovefn.sample_wall(3, 1, 2, 1, length)


def test_samplers_refuse_a_length_without_room():
    # two coordinates cannot keep a gap of WALL_GAP_FLOOR = 1e-6 in a box
    # of width 1e-7; the rejection loops would never end
    with pytest.raises(ValueError):
        alcovefn.sample_interior(2, 1, 1e-7)
    with pytest.raises(ValueError):
        alcovefn.sample_wall(3, 1, 2, 1, 1e-7)
    assert len(alcovefn.sample_interior(3, 2, 1e-5)) == 2
    assert len(alcovefn.sample_interior(1, 2, 1e-7)) == 2


def test_json_round_trip():
    rng = random.Random(13)
    pieces = {
        sigma: exppoly.plane_wave(tuple(rng.uniform(-1, 1) for _ in range(2)))
        for sigma in all_permutations(2)
    }
    F = alcovefn.build(pieces)
    back = alcovefn.from_json(alcovefn.to_json(F))
    for x in alcovefn.sample_interior(2, 6, 6.0):
        assert abs(back.eval(x) - F.eval(x)) < 1e-14
    # a continuous function stays evaluable on walls after the round trip
    Psi = wavefn.bethe_wavefunction(wavefn.RapiditySet((0.8, -0.3), 1.3, 6.0), "explicit")
    back = alcovefn.from_json(alcovefn.to_json(Psi))
    assert back.continuous
    assert abs(back.eval((1.0, 1.0)) - Psi.eval((1.0, 1.0))) < 1e-14


def _distinct_pieces(n, seed, continuous=False):
    rng = random.Random(seed)
    pieces = {
        sigma: exppoly.plane_wave(tuple(rng.uniform(-1, 1) for _ in range(n)))
        for sigma in all_permutations(n)
    }
    return alcovefn.build(pieces, continuous)


def test_eval_on_tie_requires_side():
    F = _distinct_pieces(2, 14)
    with pytest.raises(ValueError):
        F.eval((0.5, 0.5))
    F.eval((0.5, 0.5), side=identity(2))
    F = _distinct_pieces(3, 19)
    sigma = Permutation((3, 2, 1))
    for x in [(0.5, 0.5, -1.0), (0.2, -0.7, 0.2), (0.0, -0.0, 1.0)]:
        with pytest.raises(ValueError):
            F.eval(x)
        assert F.eval(x, side=sigma) == F.pieces[sigma].eval(x)


def test_eval_uses_the_piece_ordering_permutation_names():
    F = _distinct_pieces(3, 17)
    for sigma in all_permutations(3):
        x = sigma.act_vector((2.0, 0.5, -1.0))
        assert ordering_permutation(x) == (sigma, False)
        assert repr(F.eval(x)) == repr(F.pieces[sigma].eval(x))
    # complex coordinates order by their real part; equal real parts with
    # different imaginary parts are no tie, and the index breaks it
    x = (0.5 + 3j, 0.7 - 1j, 0.5 + 0j)
    assert ordering_permutation(x) == (Permutation((2, 1, 3)), False)
    assert F.eval(x) == F.pieces[Permutation((2, 1, 3))].eval(x)


def test_eval_breaks_ties_by_index():
    F = _distinct_pieces(3, 18, continuous=True)
    named = {
        (0.5, 0.5, -1.0): (1, 2, 3),
        (-1.0, 0.5, 0.5): (2, 3, 1),
        (0.5, -1.0, 0.5): (1, 3, 2),
        (0.0, -0.0, 0.0): (1, 2, 3),
        (-2.0, -0.0, 0.0): (2, 3, 1),
    }
    for x, images in named.items():
        assert ordering_permutation(x) == (Permutation(images), True)
        assert repr(F.eval(x)) == repr(F.pieces[Permutation(images)].eval(x))


def test_eval_refuses_a_point_of_the_wrong_length():
    F = _distinct_pieces(3, 20)
    for x in [(0.1, 0.2), (0.1, 0.2, 0.3, 0.4)]:
        with pytest.raises(ValueError):
            F.eval(x)
        with pytest.raises(ValueError):
            F.pieces[identity(3)].eval(x)
    # an empty sum checks the length too, though it has no term to do it
    with pytest.raises(ValueError):
        exppoly.zero(3).eval((0.1,))
    assert exppoly.zero(3).eval((0.1, 0.2, 0.3)) == 0j
    with pytest.raises(ValueError):
        alcovefn.zero_function(3).eval((0.1,))


@lru_cache(maxsize=None)
def _eval_many_cases() -> tuple[alcovefn.AlcoveFunction, ...]:
    """Regular pre- and Bethe wavefunctions at N=2..4 and two functions
    whose pieces carry nonzero monomial degrees: the degenerate limit at
    a coinciding pair (the propagated plane wave) and the coincident-pair
    closed form."""
    rng = random.Random(15)
    cases = []
    for n in (2, 3, 4):
        while True:
            lam = tuple(complex(rng.uniform(-1.6, 1.6), rng.uniform(-0.3, 0.3)) for _ in range(n))
            if min(abs(a - b) for a, b in combinations(lam, 2)) > 0.2:
                break
        r = wavefn.RapiditySet(lam, 1.3, 10.0)
        cases += [wavefn.prewavefunction(r), wavefn.bethe_wavefunction(r, "explicit")]
    degenerate = wavefn.RapiditySet((0.5, 0.5, -0.3), 1.0, 10.0)
    cases.append(wavefn.prewavefunction(degenerate))
    cases.append(wavefn.prewavefunction_coincident_pair(0.5, 1.0))
    return tuple(cases)


@st.composite
def _function_and_batch(draw):
    F = draw(st.sampled_from(_eval_many_cases()))
    coord = st.floats(-5.0, 5.0, allow_nan=False)
    rows = draw(st.lists(st.tuples(*[coord] * F.n), min_size=1, max_size=40))
    if draw(st.booleans()):
        # every row in the first row's alcove: the one-piece path
        sigma, _ = ordering_permutation(rows[0])
        rows = [sigma.act_vector(tuple(sorted(x, reverse=True))) for x in rows]
    return F, rows


@settings(deadline=None, max_examples=80)
@given(_function_and_batch())
def test_eval_many_agrees_with_eval(case):
    F, rows = case
    assert F.continuous  # rows may tie, which a continuous function accepts
    for x, got in zip(rows, F.eval_many(rows)):
        want = F.eval(x)
        assert abs(got - want) <= EVAL_MANY_TOL * max(abs(want), 1.0)


def _eval_many_by_unique(F, points):
    """The reference eval_many: rows grouped by np.unique over their
    ordering arrays."""
    X = np.asarray(points, dtype=float)
    if not F.continuous:
        ranked = np.sort(X, axis=1)
        if (ranked[:, 1:] == ranked[:, :-1]).any():
            raise ValueError("point lies on a wall of a discontinuous function")
    order = np.argsort(-X, axis=1, kind="stable")
    if len(X) and (order == order[0]).all():
        return F.pieces[Permutation(tuple(order[0] + 1))].eval_many(X)
    labels, group = np.unique(order, axis=0, return_inverse=True)
    group = group.reshape(-1)
    out = np.empty(len(X), dtype=complex)
    for g, label in enumerate(labels):
        rows = group == g
        out[rows] = F.pieces[Permutation(tuple(label + 1))].eval_many(X[rows])
    return out


@st.composite
def _mixed_batch(draw):
    """A function of _eval_many_cases, discontinuous or not, and rows from
    several alcoves with ties, signed zeros and NaN."""
    F = draw(st.sampled_from(_eval_many_cases()))
    F = alcovefn.build(F.pieces, draw(st.booleans()))
    coord = st.one_of(st.floats(-5.0, 5.0), st.sampled_from([0.0, -0.0, 1.5, math.nan]))
    rows = draw(st.lists(st.lists(coord, min_size=F.n, max_size=F.n), min_size=1, max_size=30))
    for row in rows:
        for _ in range(draw(st.integers(0, 1))):
            row[draw(st.integers(0, F.n - 1))] = row[draw(st.integers(0, F.n - 1))]
    if draw(st.booleans()):
        # the first row's alcove for every row: the one-piece path
        sigma, _ = ordering_permutation(tuple(rows[0]))
        rows = [list(sigma.act_vector(tuple(sorted(x, reverse=True)))) for x in rows]
    return F, rows


@settings(deadline=None, max_examples=150)
@given(_mixed_batch())
@example((_eval_many_cases()[2], [[0.5, 0.5, -1.0], [-0.0, 0.0, 2.0], [math.nan, 1.0, 0.3]]))
@example((_eval_many_cases()[1], [[1.0, -1.0], [-1.0, 1.0], [0.3, 0.2], [-0.0, 0.0]]))
def test_eval_many_is_the_unique_grouping_to_the_bit(case):
    F, rows = case
    try:
        want = [repr(complex(v)) for v in _eval_many_by_unique(F, rows)]
    except ValueError:
        with pytest.raises(ValueError, match="wall"):
            F.eval_many(rows)
        return
    assert [repr(complex(v)) for v in F.eval_many(rows)] == want


def _eval_with_the_tie_flag(F, x):
    """The reference eval: the tie flag computed on every call."""
    order, tied = _ordering_by_dict(tuple(x))
    if tied and not F.continuous:
        raise ValueError("point lies on a wall of a discontinuous function")
    return F._by_order[order]._value(tuple(x))


@settings(deadline=None, max_examples=150)
@given(
    st.lists(
        st.sampled_from([0.5, -0.0, 0.0, -1.25, 2.0, math.nan, 0.5 + 1j]), min_size=3, max_size=3
    )
)
@example([0.5, 0.5, -1.0])
@example([0.0, -0.0, 1.0])
def test_eval_reads_ties_only_for_a_discontinuous_function(x):
    for continuous in (False, True):
        F = _distinct_pieces(3, 21, continuous)
        try:
            want = repr(_eval_with_the_tie_flag(F, x))
        except ValueError:
            # only the discontinuous function refuses, and only on a wall
            assert not continuous and ordering_permutation(tuple(x))[1]
            with pytest.raises(ValueError, match="wall"):
                F.eval(x)
            continue
        assert repr(F.eval(x)) == want


def test_eval_many_groups_rows_by_alcove():
    F = _eval_many_cases()[4]  # pre-wavefunction at N=4
    rows = alcovefn.sample_interior(4, 60, 10.0)
    assert len({ordering_permutation(x)[0] for x in rows}) > 1
    for x, got in zip(rows, F.eval_many(rows)):
        want = F.eval(x)
        assert abs(got - want) <= EVAL_MANY_TOL * max(abs(want), 1.0)


def test_eval_many_on_a_wall():
    rng = random.Random(16)
    pieces = {
        sigma: exppoly.plane_wave(tuple(rng.uniform(-1, 1) for _ in range(2)))
        for sigma in all_permutations(2)
    }
    rows = [(0.3, -0.2), (0.5, 0.5)]
    with pytest.raises(ValueError):
        alcovefn.build(pieces).eval_many(rows)
    Psi = wavefn.bethe_wavefunction(wavefn.RapiditySet((0.8, -0.3), 1.3, 6.0), "explicit")
    for x, got in zip(rows, Psi.eval_many(rows)):
        want = Psi.eval(x)
        assert abs(got - want) <= EVAL_MANY_TOL * max(abs(want), 1.0)


def _per_term_eval(f, x):
    """Scalar evaluation as the engine did it term by term: each term's
    monomials summed, times exp(i <mu, x>) with the phase summed from int 0,
    and the terms summed from 0j.  Both sums are written as plain left
    folds, the sums sum() made before CPython 3.14 (which sums complex
    items with compensation)."""
    xv = tuple(x)

    def term(t):
        poly = 0j
        for deg, c in t.coeffs:
            m = c
            for xj, dj in zip(xv, deg):
                if dj:
                    m *= xj**dj
            poly += m
        phase = 0
        for mj, xj in zip(t.wavevector, xv):
            phase = phase + mj * xj
        return poly * cmath.exp(1j * phase)

    total = 0j
    for t in f.terms:
        total = total + term(t)
    return total


@lru_cache(maxsize=None)
def _mixed_degree_case() -> alcovefn.AlcoveFunction:
    """An analytic function whose monomials carry several nonzero degrees,
    which no wavefunction case has."""
    rng = random.Random(21)
    f = exppoly.zero(3)
    for deg in [(2, 1, 0), (1, 1, 1), (0, 2, 3), (3, 0, 1), (0, 0, 0)]:
        mu = tuple(complex(rng.uniform(-2, 2), rng.uniform(-0.3, 0.3)) for _ in range(3))
        f = f + exppoly.monomial(deg, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), mu)
    return alcovefn.from_analytic(f)


@lru_cache(maxsize=None)
def _edge_value_case() -> alcovefn.AlcoveFunction:
    """Pieces that no construction makes: signed zeros in wavevectors and
    coefficients, NaN, infinite and overflowing coefficients, terms with
    several monomials or none, next to empty pieces and a mixed-degree
    piece."""
    nan, inf = math.nan, math.inf
    z = complex(-0.0, -0.0)
    terms = [
        ((z, complex(0.7, -0.0), complex(-1.2, 0.1)), {(0, 0, 0): z}),
        ((0.3 + 0j, z, -0.5 + 0j), {(0, 0, 0): complex(-0.0, 2.0)}),
        ((1.1 - 0.2j, 0.4 + 0j, z), {(0, 0, 0): complex(nan, 1.0)}),
        ((-0.6 + 0j, 0.9 + 0.1j, 0.2 + 0j), {(0, 0, 0): complex(inf, -inf)}),
        ((0.5 + 0j, -0.5 + 0j, 1.5 + 0j), {(0, 0, 0): complex(1.5e308, 1.5e308)}),
        ((0.25 + 0j, -1.0 + 0j, 0.0 + 0j), {(0, 0, 0): complex(-0.0, 0.0), (1, 0, 2): z}),
        ((z, z, z), {(0, 2, 0): complex(-inf, 0.0)}),
        ((0.8 + 0j, 0.1 + 0j, -0.3 + 0j), {(1, 1, 0): complex(1.5e308, -0.0), (0, 0, 1): 1.0 + 0j}),
        ((0.2 + 0j, 0.2 + 0j, 0.2 + 0j), {}),
    ]
    edge = exppoly.ExpPolySum(
        3, tuple(exppoly.ExpPolyTerm(3, wv, tuple(sorted(c.items()))) for wv, c in terms)
    )
    mixed = _mixed_degree_case().pieces[identity(3)]
    choices = (edge, exppoly.zero(3), mixed)
    pieces = {s: choices[k % 3] for k, s in enumerate(all_permutations(3))}
    return alcovefn.build(pieces, continuous=True)


def _signed_zero_piece(n: int, seed: int) -> exppoly.ExpPolySum:
    """A piece on n slots whose wavenumbers and coefficients carry signed
    zero parts: one-monomial degree-0 terms next to terms of several
    monomials of mixed degrees (total degree up to 4)."""
    rng = random.Random(seed)
    zeros = [complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.7), 0j]

    def number(spread):
        if rng.random() < 0.4:
            return rng.choice(zeros)
        return complex(rng.uniform(-spread, spread), rng.uniform(-0.3, 0.3))

    def degree():
        picks = rng.choices(range(n), k=rng.randint(0, 4)) if n else []
        return tuple(picks.count(j) for j in range(n))

    terms = []
    for k in range(8):
        wave = tuple(number(2.0) for _ in range(n))
        if k % 2:
            coeffs = {degree(): number(1.0) for _ in range(3)}
        else:
            coeffs = {(0,) * n: number(1.0)}
        terms.append(exppoly.ExpPolyTerm(n, wave, tuple(sorted(coeffs.items()))))
    return exppoly.ExpPolySum(n, tuple(terms))


@lru_cache(maxsize=None)
def _reader_cases(n: int) -> tuple[alcovefn.AlcoveFunction, ...]:
    """Pieces on n slots that no construction makes: _signed_zero_piece
    alone, with one more term of a NaN, an infinite or an overflowing
    coefficient (a plane-wave term or a mixed-degree one), and the empty
    piece, spread over the alcoves of one function, or one function per
    piece where there are fewer alcoves than pieces."""
    nan, inf = math.nan, math.inf
    base = _signed_zero_piece(n, 40 + n)
    wave = tuple(complex(0.5 - j, 0.1) for j in range(n))
    top = (1,) + (0,) * (n - 1) if n else ()
    extras = [
        {(0,) * n: complex(nan, 1.0)},
        {(0,) * n: complex(inf, -inf)},
        {(0,) * n: 2.0 + 0j, top: complex(-inf, 0.0)},
        {(0,) * n: complex(1.5e308, 1.5e308)},
    ]
    pieces = [base, exppoly.zero(n)] + [
        exppoly.ExpPolySum(n, base.terms + (exppoly.ExpPolyTerm(n, wave, tuple(sorted(c.items()))),))
        for c in extras
    ]
    perms = all_permutations(n)
    return tuple(
        alcovefn.build({s: pieces[(k + shift) % len(pieces)] for k, s in enumerate(perms)}, continuous=True)
        for shift in range(len(pieces) if len(perms) < len(pieces) else 1)
    )


@lru_cache(maxsize=None)
def _wavefunctions_at_one_and_five() -> tuple[alcovefn.AlcoveFunction, ...]:
    """A 1-particle Bethe wavefunction and a 5-particle pre-wavefunction
    (120 terms per piece), the latter read by the generic loop."""
    one = wavefn.RapiditySet((0.8 + 0.1j,), 1.3, 10.0)
    five = wavefn.RapiditySet((0.8 + 0.1j, -0.45, 0.3, 1.1 - 0.2j, -1.2), 1.3, 10.0)
    return (wavefn.bethe_wavefunction(one, "explicit"), wavefn.prewavefunction(five))


@st.composite
def _function_and_point(draw):
    """A case of _eval_many_cases, the mixed-degree case, the edge-value
    case or a case of _wavefunctions_at_one_and_five, and a point of real or
    complex coordinates, at times with -0.0 parts and with one coordinate
    copied onto another (a tie)."""
    cases = _eval_many_cases() + (_mixed_degree_case(), _edge_value_case())
    cases += _wavefunctions_at_one_and_five()
    F = draw(st.sampled_from(cases))
    part = st.one_of(st.floats(-5.0, 5.0, allow_nan=False), st.sampled_from([0.0, -0.0]))
    coord = part
    if draw(st.booleans()):
        coord = st.builds(complex, part, part)
    x = draw(st.lists(coord, min_size=F.n, max_size=F.n))
    if F.n >= 2 and draw(st.booleans()):
        a, b = draw(st.permutations(range(F.n)))[:2]
        x[b] = x[a]
    return F, tuple(x)


@settings(deadline=None, max_examples=300)
@given(_function_and_point())
def test_eval_is_the_per_term_evaluation_to_the_bit(case):
    F, x = case
    sigma, _ = ordering_permutation(x)
    assert repr(F.eval(x)) == repr(_per_term_eval(F.pieces[sigma], x))
    for tau, piece in F.pieces.items():
        assert repr(F.eval(x, side=tau)) == repr(_per_term_eval(piece, x))


def _reader_points(n: int) -> list[tuple]:
    """Points on n slots: real and complex coordinates, all -0.0, all
    complex(-0.0, 0.0), and a real point with a tie."""
    rng = random.Random(60 + n)
    real = tuple(rng.uniform(-5.0, 5.0) for _ in range(n))
    points = [
        real,
        tuple(complex(rng.uniform(-5.0, 5.0), rng.uniform(-1.0, 1.0)) for _ in range(n)),
        (-0.0,) * n,
        (complex(-0.0, 0.0),) * n,
    ]
    if n >= 2:
        points.append(real[:1] + real[:1] + real[2:])
    return points


@pytest.mark.parametrize("n", range(6))
def test_each_reader_is_the_per_term_evaluation_to_the_bit(n):
    """The reader _value takes on n slots, and the generic loop, read every
    piece of _reader_cases(n) at every point of _reader_points(n) as
    _per_term_eval does, to the bit."""
    readers = {exppoly._READERS.get(n, exppoly._read_any), exppoly._read_any}
    for F in _reader_cases(n):
        for piece in F.pieces.values():
            for x in _reader_points(n):
                want = repr(_per_term_eval(piece, x))
                for read in readers:
                    assert repr(read(piece._flat, x)) == want
                assert repr(piece.eval(x)) == want


def _order_by_lambda(x):
    """The reference _order: a lambda key per coordinate."""
    return tuple(sorted(range(1, len(x) + 1), key=lambda j: -x[j - 1].real))


def _ordering_by_dict(x):
    """The reference _ordering: the sort keys kept in a dict per point."""
    keys = {j: -xj.real for j, xj in enumerate(x, 1)}
    order = tuple(sorted(keys, key=keys.__getitem__))
    return order, any(x[a - 1] == x[b - 1] for a, b in zip(order, order[1:]))


@st.composite
def _points_with_ties(draw):
    part = st.one_of(st.floats(allow_nan=True), st.sampled_from([0.0, -0.0, math.nan]))
    coord = st.one_of(part, st.builds(complex, part, part))
    x = draw(st.lists(coord, min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(0, len(x) - 1)), draw(st.integers(0, len(x) - 1))
        x[b] = x[a]
    return tuple(x)


@settings(deadline=None, max_examples=300)
@given(_points_with_ties())
@example((0.5, 0.5, -1.0))
@example((0.0, -0.0, 0.0, -0.0))
@example((math.nan, 0.3, math.nan, -1.0))
@example((math.inf, -math.inf, math.nan, math.inf))
@example((0.5 + 3j, 0.7 - 1j, 0.5 + 0j, 0.5 + 3j))
@example((complex(math.nan, 1.0), 0.2 + 0j, complex(-0.0, 0.0)))
def test_ordering_is_the_dict_keyed_ordering(x):
    """Same order and tie flag on ties, signed zeros, NaN, infinities and
    complex coordinates, and the order of the lambda key."""
    assert alcovefn._ordering(x) == _ordering_by_dict(x)
    assert alcovefn._order(x) == _order_by_lambda(x)


def _dunkl_through_act_position(F, j, gamma):
    """The reference dunkl: s_jk F built in full by act_position for every k."""
    n = F.n
    pieces = {s: exppoly.derivative(p, j) for s, p in F.pieces.items()}
    for k in range(1, n + 1):
        if k == j:
            continue
        swapped = alcovefn.act_position(transposition(j, k, n), F)
        for sigma in pieces:
            rank = sigma.inverse()
            if k < j:
                active = rank(j) < rank(k)
                coeff = -gamma
            else:
                active = rank(k) < rank(j)
                coeff = gamma
            if active:
                pieces[sigma] = pieces[sigma] + exppoly.scale(coeff, swapped.pieces[sigma])
    return alcovefn.AlcoveFunction(n, pieces, continuous=False)


def test_dunkl_is_the_act_position_body_to_the_bit():
    cases = [
        (wavefn.prewavefunction(wavefn.RapiditySet((0.8, -0.45, 0.3), 1.3, 10.0)), 1.3),
        (wavefn.prewavefunction(wavefn.RapiditySet((0.8, -0.45, 0.3, 1.1), -0.7, 10.0)), -0.7),
        (wavefn.prewavefunction(wavefn.RapiditySet((0.5, 0.5, -0.3), 1.0, 10.0)), 1.0),
    ]
    for F, gamma in cases:
        for j in range(1, F.n + 1):
            got = alcovefn.dunkl(F, j, gamma)
            assert repr(got) == repr(_dunkl_through_act_position(F, j, gamma))


def test_build_refuses_no_pieces():
    with pytest.raises(ValueError):
        alcovefn.build({})


def test_eval_refuses_a_side_of_the_wrong_size():
    F = wavefn.prewavefunction(wavefn.RapiditySet((0.8, -0.45, 0.3), 1.3, 10.0))
    x = (0.3, -0.2, 0.1)
    for side in [Permutation((2, 1)), identity(4)]:
        with pytest.raises(ValueError, match="size mismatch"):
            F.eval(x, side=side)
        with pytest.raises(ValueError, match="size mismatch"):
            F.eval_many([x], side=side)


def _general_act_analytic(w, f):
    """act_analytic's general path: every monomial of every term relabelled,
    times 1.0, then _build."""
    terms = []
    for t in f.terms:
        coeffs = {}
        for deg, a in t.coeffs:
            d = [0] * f.n
            for s, e in zip(w.images, deg):
                d[s - 1] = e
            coeffs[tuple(d)] = a * 1.0
        terms.append(exppoly._build(f.n, w.act_vector(t.wavevector), coeffs))
    return exppoly.ExpPolySum(f.n, tuple(terms))


def _frozen_dunkl(F, j, gamma):
    """dunkl as it was before each alcove's sum was built once: the
    derivative, relabelling and scaling each through the general term path,
    each kept partner added by its own sum."""
    n = F.n
    pieces = {}
    for s, p in F.pieces.items():
        out = []
        for t in p.terms:
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
        pieces[s] = exppoly.ExpPolySum(n, tuple(out))
    for k in range(1, n + 1):
        if k == j:
            continue
        w = transposition(j, k, n)
        for sigma in pieces:
            rank = sigma.inverse()
            if k < j:
                active = rank(j) < rank(k)
                coeff = complex(-gamma)
            else:
                active = rank(k) < rank(j)
                coeff = complex(gamma)
            if active and coeff != 0:
                swapped = _general_act_analytic(w, F.pieces[compose(w, sigma)])
                scaled = tuple(exppoly.ExpPolyTerm(t.n, t.wavevector, tuple((d, coeff * a) for d, a in t.coeffs)) for t in swapped.terms)
                pieces[sigma] = pieces[sigma] + exppoly.ExpPolySum(n, scaled)
    return alcovefn.AlcoveFunction(n, pieces, continuous=False)


@pytest.mark.parametrize("gamma", [0.0, -0.0, -0.7, 1.3])
def test_dunkl_is_the_general_term_path_to_the_bit(gamma):
    # a regular psi of plane waves, a degenerate one with polynomial terms,
    # and the ends of the zero-factor branch
    cases = [
        wavefn.prewavefunction(wavefn.RapiditySet((0.8 + 0.2j, -0.45 - 0.1j, 0.3, 1.1), 1.0, 10.0)),
        wavefn.prewavefunction(wavefn.RapiditySet((0.5, 0.5, -0.3), 1.0, 10.0)),
        wavefn.prewavefunction(wavefn.RapiditySet((0.4, 0.4, 0.4), -0.7, 10.0)),
    ]
    for F in cases:
        for j in range(1, F.n + 1):
            assert repr(alcovefn.dunkl(F, j, gamma)) == repr(_frozen_dunkl(F, j, gamma)), (F.n, j)


def _general_reflection_integral(f, j, k):
    """reflection_integral's general path: pullback, integrate, truncate."""
    n = f.n
    u = n + 1
    rows = {m: {m: 1.0 + 0j} for m in range(1, n + 1)}
    rows[j] = {j: 1.0 + 0j, k: 1.0 + 0j, u: -1.0 + 0j}
    rows[k] = {u: 1.0 + 0j}
    h = exppoly.integrate(exppoly.pullback(f, rows, u), u, exppoly.Bound.coord(k), exppoly.Bound.coord(j))
    return exppoly.ExpPolySum(n, tuple(exppoly._truncate(t, n) for t in h.terms))


def _waves(*terms):
    """The 3-slot sum of (wavevector, coefficient) plane waves, as given."""
    return exppoly.ExpPolySum(3, tuple(exppoly.ExpPolyTerm(3, tuple(map(complex, wv)), (((0, 0, 0), complex(c)),)) for wv, c in terms))


def _direct_path_sums():
    """(sum, how many of the six ordered pairs of slots 1..3 take the rows)."""
    nan, inf = math.nan, math.inf
    regular = (0.8, -0.45, 0.3)
    psi = wavefn.prewavefunction(wavefn.RapiditySet((0.8 + 0.2j, -0.45 - 0.1j, 0.3), -0.7, 10.0))
    for piece in list(psi.pieces.values())[::2]:
        yield piece, 6
    # signed zeros in coefficients and wavenumbers, complex wavenumbers
    yield _waves(((complex(-0.0, 0.5), 0.8, complex(0.3, -0.0)), complex(-0.0, 1.0)),
                 ((0.8, complex(-0.45, -0.0), -0.0), complex(1.0, -0.0)),
                 ((0.8 + 0.2j, -0.45 - 0.1j, 0.3), complex(-0.0, -0.0) + 1e-300)), 6
    # NaN and infinite coefficients; a zero one, alone or among plane waves
    yield _waves((regular, nan), (regular, complex(inf, -0.0)), ((0.3, 0.8, -0.45), complex(-inf, nan))), 6
    yield _waves((regular, 0j)), 0
    yield _waves((regular, 1.0), ((0.3, 0.8, -0.45), complex(-0.0, 0.0))), 0
    # non-finite wavenumbers on slot 3 and on every slot: a NaN u wavenumber
    # (a NaN lam_j or lam_k, or inf - inf) falls back, an infinite one not
    yield _waves(((0.8, -0.45, nan), 0.6 - 0.8j)), 2
    for bad in (nan, inf, complex(-inf, 0.0)):
        yield _waves(((bad, bad, bad), 0.6 - 0.8j)), 0
    for bad in (inf, complex(-inf, 0.0)):
        yield _waves(((0.8, -0.45, bad), 0.6 - 0.8j)), 6
    # |lam_j - lam_k| below SMALL_WAVENUMBER_TOL (series) and at zero
    # (polynomial) fall back
    yield exppoly.plane_wave((0.5, 0.5 + 1e-8, 0.5 - 3e-7)), 0
    yield exppoly.plane_wave((0.5, 0.5, 0.5)), 0
    # psi at a coinciding pair: a piece of plane waves takes the rows on the
    # pairs where no term has lam_j = lam_k, a piece with polynomial terms
    # falls back
    degenerate = wavefn.prewavefunction(wavefn.RapiditySet((0.5, 0.5, -0.3), 1.0, 10.0))
    yield from zip(degenerate.pieces.values(), [4, 2, 0, 0, 0, 0])


def test_act_analytic_is_the_general_relabelling_to_the_bit():
    cases = list(_direct_path_sums())
    assert len(cases) == 21
    for f, _ in cases:
        for w in all_permutations(3):
            assert repr(alcovefn.act_analytic(w, f)) == repr(_general_act_analytic(w, f)), (w, f)


def test_act_analytic_refuses_a_permutation_of_another_size():
    f = exppoly.plane_wave((0.8, -0.45, 0.3))
    for w in [Permutation((2, 1)), identity(4)]:
        with pytest.raises(ValueError, match="size mismatch"):
            alcovefn.act_analytic(w, f)


def test_reflection_integral_is_the_general_path_to_the_bit():
    # every ordered pair, j > k included, whether it takes the rows or falls back
    pairs = [(j, k) for j in range(1, 4) for k in range(1, 4) if j != k]
    for f, direct in _direct_path_sums():
        assert sum(alcovefn._reflection_rows(f, j, k) is not None for j, k in pairs) == direct, f
        for j, k in pairs:
            assert repr(alcovefn.reflection_integral(f, j, k)) == repr(_general_reflection_integral(f, j, k)), (f, j, k)


@pytest.mark.parametrize("j, k", [(0, 2), (2, 4), (4, 1), (-1, 2), (1, 1)])
def test_reflection_integral_refuses_a_slot_outside_one_to_n(j, k):
    match = "need j != k" if j == k else "out of range"
    for f in [exppoly.plane_wave((0.8, -0.45, 0.3)), exppoly.monomial((1, 0, 0), 1.0, (0.5, 0.5, 0.3))]:
        with pytest.raises(ValueError, match=match):
            alcovefn.reflection_integral(f, j, k)


@pytest.mark.parametrize("gamma", [1.3, 0.0, -0.0, -0.7])
def test_propagation_is_the_general_path_to_the_bit(monkeypatch, gamma):
    cases = [
        (0.8 + 0.2j, -0.45 - 0.1j, 0.3),
        (complex(0.8, -0.0), complex(-0.0, 0.0), 0.3, -1.2),
        (0.5, 0.5, -0.3),
        (0.5, 0.5 + 1e-8, -0.3),
    ]
    for lam in cases:
        psi = alcovefn.propagation(exppoly.plane_wave(lam), gamma)
        with monkeypatch.context() as m:
            m.setattr(alcovefn, "act_analytic", _general_act_analytic)
            m.setattr(alcovefn, "reflection_integral", _general_reflection_integral)
            assert repr(psi) == repr(alcovefn.propagation(exppoly.plane_wave(lam), gamma)), lam


@pytest.mark.parametrize("j, k", [(1, 1), (2, 1), (1, 4), (0, 2)])
def test_sample_wall_refuses_a_wall_outside_one_to_n(j, k):
    with pytest.raises(ValueError, match="need 1 <= j < k <= N"):
        alcovefn.sample_wall(3, j, k, 2, 8.0)
