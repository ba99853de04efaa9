"""Momentum-representation orbit tables and scalar factors."""

import gc
import random
from functools import reduce

import pytest

from qnls import alcovefn, exppoly, momrep, wavefn
from qnls.bae import RapiditySet
from qnls.symgroup import Permutation, all_permutations, compose, identity, reduced_word, simple, transposition

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


def test_mult_scalar_scales_by_a_finite_value_of_overflowing_modulus():
    # finite, though abs() of it overflows: scaled as exppoly.scale does
    base = momrep.orbit_planewave((0.3, -0.5))
    value = complex(1.5e308, 1.5e308)
    out = momrep.mult_scalar(base, lambda p: value)
    assert repr(out.entries) == repr({s: exppoly.scale(value, p) for s, p in base.entries.items()})


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
            entry = momrep.deformed_word_entries(base, [(identity(base.n), w)], 1.3, sigma)[0]
            assert entry.terms == table.entries[sigma].terms


# --- deformed words on arrays, against the merge they repeat -------------
#
# The reference applies each letter entry by entry with one exppoly.combine
# per entry, the rule deformed words followed before they ran on arrays;
# every comparison is by repr, so it holds to the bit and the sign of zero.


def _reference_entry(point, j, gamma, here, swapped):
    factors = (1.0 / (point[j - 1] - point[j]), -1j * gamma)
    return exppoly.combine(here.n, [((), swapped), (factors, here), ((-1.0, *factors), swapped)])


def _reference_word(o, w, gamma):
    table = dict(o.entries)
    for j in reversed(reduced_word(w)):
        sj = simple(j, o.n)
        table = {
            rho: _reference_entry(o.point(rho), j, gamma, table[rho], table[compose(sj, rho)])
            for rho in o.entries
        }
    return table


def _seeded_orbit(n, seed):
    rng = random.Random(seed)
    return momrep.orbit_planewave(
        tuple(complex(v + rng.uniform(-0.1, 0.1), rng.uniform(-0.3, 0.3)) for v in (-1.2, 1.4, -0.3, 0.5)[:n])
    )


def _assert_words_match(o, gamma, words=None):
    for w in words or all_permutations(o.n):
        want = _reference_word(o, w, gamma)
        got = momrep.apply_deformed_word(o, w, gamma)
        assert repr(got.entries) == repr({s: want[s] for s in o.entries})


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("gamma", (-0.7, 0.0, 1.3))
def test_deformed_words_repeat_the_merge_bit_for_bit(n, gamma):
    o = _seeded_orbit(n, 10 * n)
    for w in all_permutations(n):
        want = _reference_word(o, w, gamma)
        assert repr(momrep.apply_deformed_word(o, w, gamma).entries) == repr(want)
        for sigma in all_permutations(n):
            assert repr(momrep.deformed_word_entries(o, [(identity(o.n), w)], gamma, sigma)[0]) == repr(want[sigma])


# Sums of tables as they were made before orbit_add merged each entry once,
# frozen as the reference: the tables added one at a time, each partial sum
# merged by exppoly.combine, then scaled by 1 / (the number of tables).


def _chain_add(o1, o2):
    return momrep.OrbitFunction(
        o1.lam, {s: exppoly.combine(p.n, [((), p), ((), o2.entries[s])]) for s, p in o1.entries.items()}
    )


def _chain_average(tables):
    tables = list(tables)
    return momrep.orbit_scale(1.0 / len(tables), reduce(_chain_add, tables))


def _reference_gamma_symmetrizer(o, gamma):
    return _chain_average(momrep.OrbitFunction(o.lam, _reference_word(o, w, gamma)) for w in all_permutations(o.n))


def test_gamma_symmetrizer_repeats_the_merge_bit_for_bit():
    o = _seeded_orbit(3, 5)
    assert repr(momrep.gamma_symmetrizer(o, 0.8)) == repr(_reference_gamma_symmetrizer(o, 0.8))


def test_gamma_symmetrizer_in_batches_of_one_word_repeats_the_merge_bit_for_bit(monkeypatch):
    monkeypatch.setattr(momrep, "_BATCH", 1)
    for n in (3, 4):
        o = _seeded_orbit(n, 5)
        assert repr(momrep.gamma_symmetrizer(o, 0.8)) == repr(_reference_gamma_symmetrizer(o, 0.8))


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("gamma", (-0.7, 0.0, 1.3))
def test_symmetrizers_repeat_the_chain_of_sums_bit_for_bit(n, gamma):
    # on real and complex rapidities; the plain and the partial symmetrizer
    # also on a deformed word's table, whose entries hold up to N! terms
    lam = (-1.2, 1.4, -0.3, 0.5)[:n]
    for o in (momrep.orbit_planewave(lam), _seeded_orbit(n, 3 * n)):
        assert repr(momrep.gamma_symmetrizer(o, gamma)) == repr(_reference_gamma_symmetrizer(o, gamma))
        perms, sub = all_permutations(n), all_permutations(n - 1)
        for table in (o, momrep.apply_deformed_word(o, perms[-1], gamma)):
            want = _chain_average(momrep.act_table(w, table) for w in perms)
            assert repr(momrep.symmetrizer(table)) == repr(want)
            want = _chain_average(momrep.act_table(Permutation(w.images + (n,)), table) for w in sub)
            assert repr(momrep.symmetrizer(table, n - 1)) == repr(want)


def test_orbit_add_refuses_tables_on_different_orbits_and_no_table():
    with pytest.raises(ValueError):
        momrep.orbit_add(momrep.orbit_planewave((0.3, -0.5)), momrep.orbit_planewave((0.9, -0.1)))
    with pytest.raises(ValueError):
        momrep.orbit_add()


def test_mult_symbol_is_the_scalar_field_of_the_coordinate_and_refuses_other_indices():
    o = _seeded_orbit(3, 8)
    for j in (1, 2, 3):
        want = {s: exppoly.scale(o.point(s)[j - 1], p) for s, p in o.entries.items()}
        assert repr(momrep.mult_symbol(o, j).entries) == repr(want)
    for j in (0, 4):
        with pytest.raises(ValueError):
            momrep.mult_symbol(o, j)


def _assert_orbit_route_matches(gamma):
    r = RapiditySet(_seeded_orbit(3, 9).lam, gamma, 10.0)
    base = momrep.orbit_planewave(r.lam)
    pieces = wavefn.prewavefunction(r, "orbit").pieces
    for sigma in all_permutations(3):
        want = _reference_word(momrep.act_table(sigma.inverse(), base), sigma, gamma)[identity(3)]
        assert repr(pieces[sigma]) == repr(want)


@pytest.mark.parametrize("gamma", (-0.7, 1.3))
def test_orbit_route_repeats_the_merge_bit_for_bit(gamma):
    _assert_orbit_route_matches(gamma)


@pytest.mark.parametrize("gamma", (-0.7, 1.3))
def test_orbit_route_in_batches_of_one_pair_repeats_the_merge_bit_for_bit(monkeypatch, gamma):
    # every table up to N=4 fits in one batch; with _BATCH at 1 each batch
    # runs one (tau, w) pair
    monkeypatch.setattr(momrep, "_BATCH", 1)
    _assert_orbit_route_matches(gamma)


@pytest.mark.parametrize("c", (float("nan"), float("inf"), complex(0.0, -float("inf"))))
def test_deformed_words_on_nonfinite_coefficients_repeat_the_merge(c):
    # the scaled table's entries hold NaN and infinite parts next to finite ones
    o = _seeded_orbit(3, 2)
    table = momrep.orbit_add(o, momrep.orbit_scale(c, momrep.act_table(simple(1, 3), o)))
    _assert_words_match(table, 1.3)
    _assert_words_match(momrep.orbit_scale(c, momrep.apply_deformed_word(o, all_permutations(3)[-1], 1.3)), -0.7)


def test_deformed_words_read_an_overflowing_modulus_as_infinite():
    # coefficients of modulus past the float range, and their products
    o = _seeded_orbit(3, 2)
    _assert_words_match(momrep.orbit_scale(complex(1.5e308, 1.5e308), o), 1.3)


def test_deformed_words_prune_each_entry_against_its_own_largest_coefficient():
    # one orbit point weighs 1e20, so most entries hold nothing above
    # PRUNE_TOL times the table's largest coefficient
    o = _seeded_orbit(3, 6)
    heavy = o.point(identity(3))
    table = momrep.mult_scalar(o, lambda p: 1e20 if p == heavy else 1.0)
    _assert_words_match(table, 1.3)


def test_deformed_words_merge_a_repeated_wavevector_first():
    # Delta_12 (lambda_1 Delta_12 o) repeats each of its two waves within an
    # entry; the array path reads such an entry as combine merges one part
    # (the first term as it is, the next one added), then lets the word act
    o = _seeded_orbit(3, 4)
    twice = momrep.divided_difference(momrep.mult_symbol(momrep.divided_difference(o, 1, 2), 1), 1, 2)
    assert max(len(p.terms) for p in twice.entries.values()) == 4
    merged = momrep.OrbitFunction(o.lam, {s: exppoly.canonicalize(p) for s, p in twice.entries.items()})
    # nothing of the merged entries is pruned, so canonicalize is that merge
    assert all(len(p.terms) == 2 for p in merged.entries.values())
    for w in all_permutations(3):
        got = momrep.apply_deformed_word(twice, w, 1.3)
        assert repr(got.entries) == repr(_reference_word(merged, w, 1.3))
        # merging step by step instead moves only the last bits
        raw = _reference_word(twice, w, 1.3)
        assert _residual(got, momrep.OrbitFunction(o.lam, raw)) < 1e-13


def test_deformed_words_refuse_wavevectors_that_could_share_a_cell():
    # at |lambda| ~ 1e5 two rapidities 1.5e-8 apart are regular, but their
    # swapped orbit waves differ by less than MERGE_TOL * 1e5 in every slot,
    # so combine may merge them into one term: deformed words refuse them
    lam = (1e5, 1e5 + 1.5e-8, 0.3)
    o = momrep.orbit_planewave(lam)
    a, b = (exppoly.plane_wave(s.act_vector(lam)) for s in (identity(3), simple(1, 3)))
    assert len(exppoly.combine(3, [((), a), ((), b)]).terms) == 1
    with pytest.raises(ValueError):
        momrep.apply_deformed_word(o, simple(1, 3), 1.3)
    with pytest.raises(ValueError):
        wavefn.prewavefunction(RapiditySet(lam, 1.3, 10.0), "orbit")


@pytest.mark.parametrize("bad", (float("nan"), float("inf")))
def test_orbit_planewave_refuses_nonfinite_rapidities(bad):
    with pytest.raises(ValueError):
        momrep.orbit_planewave((bad, 0.5))


@pytest.mark.parametrize("bad", (float("nan"), float("inf")))
def test_orbit_function_refuses_nonfinite_rapidities(bad):
    base = momrep.orbit_planewave((0.7, 0.5))
    with pytest.raises(ValueError):
        momrep.OrbitFunction((bad, 0.5), base.entries)


def test_deformed_words_and_propagation_leave_no_cycles():
    # with the collector off, nothing of either is left for gc.collect()
    gc.collect()
    gc.disable()
    try:
        alcovefn.propagation(exppoly.plane_wave((0.3, -0.5, 1.1, 0.7)), 1.3)
        momrep.apply_deformed_word(_seeded_orbit(4, 1), all_permutations(4)[-1], 1.3)
        assert gc.collect() == 0
    finally:
        gc.enable()
