"""Combinatorics of the symmetric group S_N.

Permutations are stored in one-line notation with 1-based images, so
``w.images[j-1]`` is w(j).  Everything downstream (alcove labels, orbit
tables, reduced-word products of deformed transpositions) is built on the
operations here.

>>> w = Permutation((2, 3, 1))
>>> w(1), w(2), w(3)
(2, 3, 1)
>>> compose(w, w.inverse())
Permutation((1, 2, 3))
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations as _itertools_permutations

__all__ = [
    "Permutation",
    "identity",
    "simple",
    "transposition",
    "compose",
    "reduced_word",
    "all_permutations",
    "ENUMERATION_CAP",
]

# (N+1)! costs dominate downstream; enumeration beyond this cap is refused.
ENUMERATION_CAP = 6


@dataclass(frozen=True)
class Permutation:
    """Element of S_N in one-line notation, images 1-based."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {self.images}")

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, j: int) -> int:
        """w(j) for 1-based j.

        >>> Permutation((3, 1, 2))(1)
        3
        """
        return self.images[j - 1]

    def inverse(self) -> "Permutation":
        """
        >>> Permutation((2, 3, 1)).inverse()
        Permutation((3, 1, 2))
        """
        inv = [0] * self.n
        for j, wj in enumerate(self.images, start=1):
            inv[wj - 1] = j
        return Permutation(tuple(inv))

    def act_vector(self, x: tuple) -> tuple:
        """Permute the entries of x: (w x)_{w(j)} = x_j, i.e. (w x)_j = x_{w^{-1}(j)}.

        >>> Permutation((2, 1)).act_vector((10, 20))
        (20, 10)
        """
        if len(x) != self.n:
            raise ValueError("size mismatch")
        out = [None] * self.n
        for j, wj in enumerate(self.images, start=1):
            out[wj - 1] = x[j - 1]
        return tuple(out)

    def __repr__(self) -> str:
        return f"Permutation({self.images})"


def identity(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def simple(j: int, n: int) -> Permutation:
    """The simple transposition s_j = (j, j+1) in S_n."""
    return transposition(j, j + 1, n)


def transposition(j: int, k: int, n: int) -> Permutation:
    if not (1 <= j <= n and 1 <= k <= n and j != k):
        raise ValueError(f"bad transposition ({j},{k}) in S_{n}")
    images = list(range(1, n + 1))
    images[j - 1], images[k - 1] = k, j
    return Permutation(tuple(images))


def compose(w: Permutation, v: Permutation) -> Permutation:
    """(w v)(j) = w(v(j)).

    >>> s1, s2 = simple(1, 3), simple(2, 3)
    >>> compose(s1, s2)
    Permutation((2, 3, 1))
    """
    if w.n != v.n:
        raise ValueError("size mismatch")
    return Permutation(tuple(w.images[vj - 1] for vj in v.images))


def reduced_word(w: Permutation) -> list[int]:
    """A reduced word [i_1, ..., i_l] with s_{i_1} ... s_{i_l} = w.

    Computed by bubble-sort descent: repeatedly strip a descent s_j with
    w(j) > w(j+1), smallest j first, from the right.  Deterministic.

    >>> reduced_word(Permutation((1, 2, 3)))
    []
    >>> reduced_word(Permutation((3, 2, 1)))
    [1, 2, 1]
    """
    images = list(w.images)
    word: list[int] = []
    while True:
        for j in range(len(images) - 1):
            if images[j] > images[j + 1]:
                # w = w' s_j with l(w') = l(w) - 1; multiplying on the right
                # by s_j swaps the one-line entries at positions j, j+1
                images[j], images[j + 1] = images[j + 1], images[j]
                word.append(j + 1)
                break
        else:
            break
    word.reverse()
    return word


@lru_cache(maxsize=None)
def all_permutations(n: int) -> tuple[Permutation, ...]:
    """All of S_n, lexicographic by one-line notation.  Cached.

    >>> len(all_permutations(4))
    24
    """
    if n > ENUMERATION_CAP:
        raise ValueError(f"S_{n} enumeration exceeds cap {ENUMERATION_CAP}")
    return tuple(Permutation(p) for p in _itertools_permutations(range(1, n + 1)))
