"""Symmetric group: composition, reduced words, vector action."""

import pytest
from hypothesis import given, strategies as st

from qnls.symgroup import (
    Permutation,
    all_permutations,
    compose,
    identity,
    reduced_word,
    simple,
    transposition,
)

perms = st.integers(2, 5).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(
        lambda images: Permutation(tuple(images))
    )
)


@given(perms)
def test_inverse_composes_to_identity(w):
    n = w.n
    assert compose(w, w.inverse()) == identity(n)
    assert compose(w.inverse(), w) == identity(n)


@given(perms)
def test_reduced_word_reconstructs(w):
    n = w.n
    rebuilt = identity(n)
    for j in reduced_word(w):
        rebuilt = compose(rebuilt, transposition(j, j + 1, n))
    assert rebuilt == w


@given(perms)
def test_reduced_word_length_is_inversion_count(w):
    n = w.n
    inversions = sum(
        1
        for a in range(1, n + 1)
        for b in range(a + 1, n + 1)
        if w(a) > w(b)
    )
    assert len(reduced_word(w)) == inversions


@given(perms, st.data())
def test_act_vector_relation(w, data):
    # (w x)_{w(j)} = x_j
    n = w.n
    x = tuple(
        data.draw(st.floats(-5, 5, allow_nan=False)) for _ in range(n)
    )
    wx = w.act_vector(x)
    for j in range(1, n + 1):
        assert wx[w(j) - 1] == x[j - 1]


@pytest.mark.parametrize("n", range(1, 7))
def test_reduced_word_tail_is_reduced_word_of_prefix_removed(n):
    # prefix sharing in alcovefn.propagation builds w_gamma f from
    # (s_{i_1} w)_gamma f; the steps match the full word's only if the
    # tail of w's word is the word of s_{i_1} w
    for w in all_permutations(n):
        word = reduced_word(w)
        if word:
            assert reduced_word(compose(simple(word[0], n), w)) == word[1:]


def test_all_permutations_count_and_uniqueness():
    perms4 = all_permutations(4)
    assert len(perms4) == 24
    assert len(set(perms4)) == 24


def test_transposition_validation():
    with pytest.raises(ValueError):
        transposition(2, 2, 3)
