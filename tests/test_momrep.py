"""Momentum-representation orbit tables and scalar factors."""

import random

import pytest

from qnls import momrep
from qnls.symgroup import all_permutations, compose, transposition

LAM3 = (0.9, -0.2, 1.4)


def _residual(o1, o2):
    worst = 0.0
    xs = [(0.1, -0.7, 0.4), (1.2, 0.3, -0.9)]
    for sigma in o1.entries:
        for x in xs:
            worst = max(
                worst, abs(o1.entries[sigma].eval(x) - o2.entries[sigma].eval(x))
            )
    return worst


def test_act_table_is_a_group_antihomomorphism_free():
    base = momrep.orbit_planewave(LAM3)
    u = transposition(1, 2, 3)
    v = transposition(2, 3, 3)
    lhs = momrep.act_table(u, momrep.act_table(v, base))
    rhs = momrep.act_table(compose(u, v), base)
    assert _residual(lhs, rhs) < 1e-15


def test_divided_difference_annihilates_symmetric():
    base = momrep.symmetrizer(momrep.orbit_planewave(LAM3))
    out = momrep.divided_difference(base, 1, 2)
    zero = momrep.orbit_scale(0.0, base)
    assert _residual(out, zero) < 1e-14


def test_deformed_transposition_is_involutive():
    base = momrep.orbit_planewave(LAM3)
    gamma = 1.7
    twice = momrep.deformed_transposition_momentum(
        momrep.deformed_transposition_momentum(base, 2, gamma), 2, gamma
    )
    assert _residual(twice, base) < 1e-13


def test_gamma_symmetrizer_factorizes_through_weight():
    base = momrep.orbit_planewave(LAM3)
    gamma = 0.8
    lhs = momrep.gamma_symmetrizer(base, gamma)
    rhs = momrep.symmetrizer(
        momrep.mult_scalar(base, lambda p: momrep.coeff_G(p, gamma))
    )
    assert _residual(lhs, rhs) < 1e-14


def test_coeff_G_frozen_value():
    # prod_{j<k} (lam_j - lam_k - i gamma)/(lam_j - lam_k) at
    # lam=(0.5,-0.3), gamma=2: (0.8 - 2i)/0.8 = 1 - 2.5i
    assert abs(momrep.coeff_G((0.5, -0.3), 2.0) - (1 - 2.5j)) < 1e-15


def test_tau_pm_frozen_value():
    # prod_j (lam_j - mu -+ i gamma)/(lam_j - mu)
    val = momrep.tau_pm(0.2, (0.9, -0.4), 1.5, 1)
    assert abs(val - (6.357142857142856 + 0.35714285714285676j)) < 1e-12


def test_tau_pm_conjugation_symmetry():
    lam = (0.9, -0.4, 0.1)
    plus = momrep.tau_pm(0.25, lam, 1.5, 1)
    minus = momrep.tau_pm(0.25, lam, 1.5, -1)
    assert abs(plus - minus.conjugate()) < 1e-14


def test_mult_scalar_rejects_singular_field():
    base = momrep.orbit_planewave((0.5, -0.5))
    with pytest.raises(ValueError):
        momrep.mult_scalar(base, lambda p: float("inf"))


def test_near_degenerate_rapidities_rejected():
    with pytest.raises(ValueError):
        momrep.orbit_planewave((0.5, 0.5 + 0.1 * momrep.EPS_REG))


def test_deformed_words_keep_entries_within_orbit_size():
    # a regular orbit has 4! = 24 distinct wavevectors, so a canonical
    # entry holds at most 24 terms whatever the word length; without
    # merging, a word of length l leaves up to 3^l terms
    rng = random.Random(4)
    for gamma in (-0.7, 1.3):
        lam = tuple(
            complex(v, rng.uniform(-0.3, 0.3)) for v in (-1.2, -0.3, 0.5, 1.4)
        )
        base = momrep.orbit_planewave(lam)
        for w in all_permutations(4):
            out = momrep.apply_deformed_word(base, w, gamma)
            assert max(len(p.terms) for p in out.entries.values()) <= 24


def test_deformed_word_entry_equals_the_full_table():
    # the demand-driven entry and the whole table apply one rule to the
    # same inputs, so they agree term for term
    base = momrep.orbit_planewave((0.9 + 0.1j, -0.2, 1.4 - 0.2j))
    for w in all_permutations(3):
        table = momrep.apply_deformed_word(base, w, 1.3)
        for sigma in all_permutations(3):
            entry = momrep.deformed_word_entry(base, w, 1.3, sigma)
            assert entry.terms == table.entries[sigma].terms
