"""Integral operators of the quantum inverse scattering method.

Symmetric generators A, B, C, D and their non-symmetric extensions a, b+,
b-, c+, c-, d act on piecewise exp-polynomial functions in closed form.
Every operator is a gamma-power sum of elementary nested-integral blocks.
A block is its chain of integration levels and the arguments it hands the
operand; its plane-wave prefactor follows from the levels.  One builder
makes the blocks of every kind and one weighted sum evaluates them all.

The engine works per output alcove.  An application's shape (the kind
and multi-index of each nonzero-weight block, the input particle number
and whether the family is symmetric) fixes everything but mu, the
weights and L: its mu-free plans, its output alcoves and its segment
table (_Segments, which also keeps its array layouts), kept per shape by
_table, a bounded cache; per call only each block's plane wave and scalar
are made (_prepare).  The table holds each block's geometry per alcove:
the unit step factors resolve to 0 or 1 by the alcove ordering, and where
all hold, each integration interval splits at the output coordinates
inside it; on each segment the order of coordinates and y's is fixed, so
the operand piece is known.  Each operand term takes one step into the
integrand (slots relabelled, the block's plane wave added, the coefficient
scaled by the block's weight and boundary scalar); each integration turns
a term into one per bound and drops its y slot, the last one.  Where the
operand's rapidities are regular and away from mu, every term is a plane
wave c e^{i mu y}, integrating to c / (i mu) e^{i mu y} at each bound: the
steps run on bare (wavevector, coefficient) rows with the float operations
that exppoly's general steps (_embed, _exp_antiderivative, _at_bound) make
on a plane wave, each integration by exppoly._integrate_row, and
exppoly.merge_rows merges an alcove's rows of every block at once.  An
alcove where a term has a polynomial part, a y wavenumber below
SMALL_WAVENUMBER_TOL or NaN, or a zero coefficient at any step is built
term by term by exppoly's general steps and canonicalized.

An application (one engine call over its alcoves) of at least ARRAY_ROWS
raw rows makes its rows as arrays (_block_arrays): raw rows are, per
alcove and segment, the operand piece's terms times 2^depth, known from
the segment table before any row is made.  The table keeps the array
layout of an application of one chunk per profile of operand term
counts.  The arrays hold one seed per segment and operand term, the
seeds of one depth together, in chunks of whole alcoves; each level
splits every row into its upper and lower child, adjacent, so the rows
keep _rows' order, and exppoly.merge_row_arrays merges each alcove by
merge_rows' rule.  Every sum is _rows' to the bit (CPython's complex
product and quotient written out in real parts, each factor exact up to
the sign of a zero part, which _rows' 0j + erases).  An application
where an operand piece the table reads holds a term that is not a plane
wave, or a row fails one of _rows' checks or holds a part of _HUGE or
more (NaN and infinity among them), runs wholly as rows.  Smaller
applications keep the rows, since below about 200 raw rows the arrays'
fixed numpy cost per application exceeds what they save.

Also here: the 4x4 R-matrix, the transfer matrix, the quantum determinant,
and the Q-operator built from Dunkl-type operators.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import alcovefn, exppoly
from .alcovefn import AlcoveFunction, dunkl
from .exppoly import Bound, ExpPolySum, ExpPolyTerm
from .symgroup import Permutation, all_permutations, identity

__all__ = [
    "elementary_nonsymmetric_op",
    "apply_symmetric",
    "apply_nonsymmetric",
    "insert_top",
    "insert_bottom",
    "rmatrix",
    "ybe_check",
    "transfer",
    "qdet",
    "q_operator_scalar",
    "q_operator_apply",
    "PARTICLE_CAP",
    "ARRAY_ROWS",
]

# exact application is refused above this many input particles; the output
# would carry (N+1)! alcove pieces
PARTICLE_CAP = 4


# ---------------------------------------------------------------------------
# the nested-integral engine
#
# A plan is one elementary block on out_n coordinates, mu-free:
#   levels   strictly decreasing chain of entities; integration variable y_m
#            lives on (levels[m], levels[m-1])
#   args     what each operand slot receives: a coordinate or a y
# Entities are ("coord", p), ("y", m), or ("const", +1/-1) for +/- L/2.
# Every block carries the plane wave exp(i mu (sum of levels - sum of y)),
# so its prefactor follows from the levels: the constant ones give the
# boundary scalar.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Plan:
    out_n: int
    levels: tuple
    args: tuple


def _rank(entity, pos: dict, out_n: int) -> float:
    """Position in the descending order of the alcove; smaller = larger value."""
    if entity[0] == "const":
        return 0.0 if entity[1] > 0 else out_n + 1.0
    return float(pos[entity[1]])


def _bound(entity, length: float) -> Bound:
    if entity[0] == "const":
        return Bound.const(entity[1] * length / 2)
    return Bound.coord(entity[1])


def _geometry(plan: _Plan, sigma: Permutation) -> list | None:
    """None where the plan's chain does not decrease on the alcove sigma, else
    one (operand piece order, per-level (lower, upper) entities) per segment
    combination."""
    pos = {p: t for t, p in enumerate(sigma.images, start=1)}
    ranks = [_rank(e, pos, plan.out_n) for e in plan.levels]
    geometry = None
    # the step factors demand the chain be strictly decreasing here
    if all(ranks[t] < ranks[t + 1] for t in range(len(ranks) - 1)):
        # split every interval at the output coordinates inside it: each
        # segment is (lower entity, upper entity, rank of its interior)
        per_interval = []
        for m in range(1, len(plan.levels)):
            inside = sorted((p for p in pos if ranks[m - 1] < pos[p] < ranks[m]), key=pos.__getitem__)
            chain = [plan.levels[m - 1], *(("coord", p) for p in inside), plan.levels[m]]
            ends = [_rank(e, pos, plan.out_n) for e in chain]
            per_interval.append([(chain[t + 1], chain[t], (ends[t] + ends[t + 1]) / 2) for t in range(len(chain) - 1)])
        geometry = []
        for combo in product(*per_interval):
            argrank = [float(pos[a[1]]) if a[0] == "coord" else combo[a[1] - 1][2] for a in plan.args]
            order = tuple(s + 1 for s in sorted(range(len(plan.args)), key=argrank.__getitem__))
            geometry.append((order, tuple((lower, upper) for lower, upper, _ in combo)))
    return geometry


def _rows(blocks, f: AlcoveFunction, consts: dict) -> list | None:
    """The blocks' (wavevector, coefficient) rows on one alcove, equal to
    _terms' terms in order, or None where a term needs exppoly's general steps."""
    rows = []
    for (P, wave, scalar, slots), geometry in blocks:
        for order, bounds in geometry:
            # exppoly._embed of each operand term
            level = []
            for t in f._by_order[order].terms:
                if len(t.coeffs) != 1 or any(t.coeffs[0][0]) or not (c := t.coeffs[0][1] * scalar):
                    return None
                wv = wave.copy()
                for s, m in zip(slots, t.wavevector):
                    wv[s - 1] = wv[s - 1] + m if wv[s - 1] else m
                level.append((wv, c))
            # exppoly._integrate_row, innermost y first; each y is the last
            # slot, so dropping it keeps the slots before it
            for j in range(P + len(bounds), P, -1):
                step = []
                for wv, c in level:
                    if (pair := exppoly._integrate_row(wv, c, j, bounds[j - P - 1], consts)) is None:
                        return None
                    step += pair
                level = step
            rows += level
    return rows


def _terms(blocks, f: AlcoveFunction, length: float) -> list[ExpPolyTerm]:
    """The blocks' terms on one alcove through exppoly's general steps."""
    terms = []
    for (P, wave, scalar, slots), geometry in blocks:
        for order, bounds in geometry:
            level = [exppoly._embed(t, slots, wave, scalar) for t in f._by_order[order].terms]
            for m in range(len(bounds), 0, -1):
                lower, upper = (_bound(e, length) for e in bounds[m - 1])
                level = [u for t in level for u in exppoly._integrate_term(t, P + m, lower, upper, P + m - 1)]
            terms += level
    return terms


def _prepare(weight: complex, plan: _Plan, mu: complex, length: float) -> tuple:
    """(out_n, plane wave on coordinates and y's, scalar, slot of each
    operand slot) of the block with parameter mu."""
    P, n_y = plan.out_n, len(plan.levels) - 1
    # the block's plane wave on the coordinates and the y's (slot P + m)
    wave = [0j] * (P + n_y)
    for e in plan.levels:
        if e[0] == "coord":
            wave[e[1] - 1] += mu
    for m in range(1, n_y + 1):
        wave[P + m - 1] += -mu
    # the constant levels: one of them is exp(-/+ i mu L/2); two cancel
    sign = -sum(e[1] for e in plan.levels if e[0] == "const")
    scalar = weight * (cmath.exp(-1j * sign * mu * length / 2) if sign else 1.0 + 0j)
    # the slot each operand slot takes: its coordinate, or its y
    return P, wave, scalar, [a[1] if a[0] == "coord" else P + a[1] for a in plan.args]


def _block_sum(
    kind: str, blocks: list[tuple[complex, tuple]], mu: complex, f: AlcoveFunction, length: float, symmetric: bool
) -> dict[Permutation, ExpPolySum]:
    """The canonical sum over the (weight, multi-index) blocks of kind with
    parameter mu on each output alcove (on the fundamental one if
    symmetric): the rows of every block merged, or where a row cannot be
    made, every block's terms canonicalized.  A block of weight 0 adds
    nothing.  An application of at least ARRAY_ROWS raw rows makes its rows
    as arrays.  The multi-indices must be valid (_checked)."""
    blocks = [(weight, i) for weight, i in blocks if weight]
    table = _table(kind, tuple(i for _, i in blocks), f.n, symmetric)
    prepared = [_prepare(weight, plan, mu, length) for (weight, _), plan in zip(blocks, table.plans)]
    run = _block_arrays if table.raw_rows(f) >= ARRAY_ROWS else _block_rows
    return dict(zip(table.sigmas, run(table, prepared, f, length)))


def _block_rows(table, blocks, f: AlcoveFunction, length: float) -> list[ExpPolySum]:
    """The table's alcove sums, each from its rows, or where a row cannot be
    made, from its terms."""
    consts = _consts(length)
    sums = []
    for alcove in table.alcoves:
        alcove = [(blocks[b], g) for b, g in alcove]
        rows = _rows(alcove, f, consts)
        if rows is None:
            sums.append(exppoly.canonicalize(ExpPolySum(table.n, tuple(_terms(alcove, f, length)))))
        else:
            sums.append(exppoly.merge_rows(table.n, rows))
    return sums


def _consts(length: float) -> dict:
    """The values of the constant levels +L/2 and -L/2, by their sign."""
    return {e: _bound(("const", e), length).value for e in (1, -1)}


# An application (one _block_sum) makes its rows as arrays from ARRAY_ROWS raw
# rows on: per alcove and segment, the operand piece's terms times 2^depth,
# summed.  Below that the arrays' fixed cost per application exceeds what they
# save (see the ROADMAP aim 1 record "Block engine applications as
# depth-batched arrays" for the measured break-even).
ARRAY_ROWS = 200
# the array path runs whole alcoves in chunks of at most this many raw rows
# (or one alcove), so that 5-particle inputs (2.16M raw rows for a) fit in
# memory
_CHUNK_ROWS = 1 << 15
# every part of a wavenumber or coefficient the array path keeps is below this
_HUGE = 2.0**990


class _Chunk(NamedTuple):
    """The layout of the rows of a run of whole alcoves: one seed per segment
    and operand term, the seeds (the last axis of every array) ordered by
    depth.  Rounds run innermost y first; bounds are (upper, lower)."""

    alcoves: int  # how many it holds
    src: np.ndarray  # per seed: its operand term
    block: np.ndarray  # per seed: its block
    slot: np.ndarray  # per slot and seed: the operand slot it takes, -1 for none
    live: np.ndarray  # per round and seed: whether the seed integrates
    level: np.ndarray  # per round and seed: the slot of its y
    top: np.ndarray  # per round, bound and seed: the bound is +L/2
    end: np.ndarray  # ... the bound is a constant, in a live round
    coord: np.ndarray  # ... the bound is a coordinate
    hit: np.ndarray  # per coordinate, round, bound and seed: the bound is it
    edges: list  # the first seed of each depth, and the end
    take: np.ndarray | None  # the gather into _rows' order, None where the rows are in it
    owner: np.ndarray  # per row in _rows' order: its alcove, from the run's first


class _Segments:
    """The plans of an application's blocks (nonzero weights only) on its
    output alcoves sigmas.

    alcoves: per alcove, (block index, geometry) of each block whose chain
    decreases there.  per_term: per operand piece order, the raw rows each
    of its terms makes (2^depth summed over the segments that read it).
    chunks(counts): the _Chunk layouts of an application whose operand
    pieces hold counts terms (in per_term's order), made from the segments'
    arrays (_arrays, made at the first application that runs as arrays);
    the layout of an application of one chunk is kept."""

    def __init__(self, plans: tuple[_Plan, ...], sigmas: tuple[Permutation, ...]) -> None:
        self.plans, self.sigmas, self.n = plans, sigmas, sigmas[0].n
        self.shapes = [(plan.args, len(plan.levels) - 1) for plan in plans]
        self.alcoves = [
            [(b, g) for b, plan in enumerate(plans) if (g := _geometry(plan, sigma)) is not None]
            for sigma in sigmas
        ]
        per_term: dict[tuple, int] = {}
        for alcove in self.alcoves:
            for _, geometry in alcove:
                for order, bounds in geometry:
                    per_term[order] = per_term.get(order, 0) + (1 << len(bounds))
        self.per_term = list(per_term.items())
        self._chunks: dict[bytes, list[_Chunk]] = {}

    def raw_rows(self, f: AlcoveFunction) -> int:
        return sum(k * len(f._by_order[order].terms) for order, k in self.per_term)

    @cached_property
    def _arrays(self) -> tuple:
        """The segments in _rows' order as (alcove, block, operand order,
        depth) columns; per round and bound (upper, lower) each segment's
        bound code (a coordinate is its slot, +L/2 is 0 and -L/2 is -1); the
        operand slot each block hands every slot (-1: none); the first
        segment of each alcove."""
        P = self.n
        orders = {order: i for i, (order, _) in enumerate(self.per_term)}
        depth = max([d for _, d in self.shapes], default=0)
        slot = np.full((P + depth, len(self.shapes)), -1)
        for b, (args, _) in enumerate(self.shapes):
            for s, a in enumerate(args):
                slot[a[1] - 1 if a[0] == "coord" else P + a[1] - 1, b] = s

        def code(e):
            return e[1] if e[0] == "coord" else (0 if e[1] > 0 else -1)

        segments, codes = [], []
        for k, alcove in enumerate(self.alcoves):
            for b, geometry in alcove:
                for order, bounds in geometry:
                    segments.append((k, b, orders[order], len(bounds)))
                    rounds = [(code(upper), code(lower)) for lower, upper in reversed(bounds)]
                    codes.append(rounds + [(0, 0)] * (depth - len(bounds)))
        segments = np.array(segments, dtype=np.int64).reshape(-1, 4).T
        codes = np.array(codes, dtype=np.int64).reshape(len(codes), depth, 2).transpose(1, 2, 0)
        starts = np.searchsorted(segments[0], np.arange(len(self.alcoves) + 1))
        return (*segments, codes, slot, starts)

    def chunks(self, counts: np.ndarray) -> Iterable[_Chunk]:
        # an application of one chunk keeps its layout, a few term-count
        # profiles per table; a larger one makes each chunk's as it goes
        if sum(k * c for (_, k), c in zip(self.per_term, counts.tolist())) > _CHUNK_ROWS:
            return self._layout(counts)
        key = counts.tobytes()
        if key not in self._chunks:
            if len(self._chunks) >= 8:
                self._chunks.clear()
            self._chunks[key] = list(self._layout(counts))
        return self._chunks[key]

    def _layout(self, counts: np.ndarray) -> Iterator[_Chunk]:
        P = self.n
        alcove, block, order, depth, codes, slot, starts = self._arrays
        offsets = np.cumsum(counts) - counts
        raw = np.concatenate(([0], np.cumsum(counts[order] << depth)))[starts].tolist()
        a0 = 0
        while a0 < len(self.alcoves):
            a1 = a0 + 1
            while a1 < len(self.alcoves) and raw[a1 + 1] - raw[a0] <= _CHUNK_ROWS:
                a1 += 1
            seg = np.arange(starts[a0], starts[a1])
            seg = seg[np.argsort(depth[seg], kind="stable")]
            size = counts[order[seg]]
            src = np.repeat(offsets[order[seg]] - np.cumsum(size) + size, size) + np.arange(size.sum())
            seeds = np.repeat(seg, size)
            d, code = depth[seeds], np.take(codes, seeds, axis=-1)
            rounds = np.arange(len(code))[:, None]
            live = rounds < d
            # each segment's rows from their place in depth order
            rows = size << depth[seg]
            back = np.argsort(seg)
            take = np.repeat((np.cumsum(rows) - rows)[back] - np.cumsum(rows[back]) + rows[back], rows[back])
            take += np.arange(len(take))
            yield _Chunk(
                a1 - a0, src, block[seeds], np.take(slot, block[seeds], axis=1), live,
                P + np.maximum(d - 1 - rounds, 0), code == 0, live[:, None] & (code <= 0), code > 0,
                np.arange(1, P + 1)[:, None, None, None] == code,
                np.searchsorted(d, np.arange(d[-1] + 2 if len(d) else 1)).tolist(),
                None if (back == np.arange(len(back))).all() else take,
                np.repeat(alcove[seg[back]] - a0, rows[back]),
            )
            a0 = a1


@lru_cache(maxsize=256)
def _table(kind: str, indices: tuple, n: int, symmetric: bool) -> _Segments:
    """The segment table of the blocks of kind with multi-indices indices on
    n input particles, on the fundamental output alcove if symmetric, else
    on all of them.  Kept per shape, since mu, the weights and L do not
    enter (qnls verify --max-n 3 makes 231 applications of 73 shapes); the
    caller checks the multi-indices first, since a key of (1.0,) would find
    (1,)'s entry."""
    out_n = n + _SHAPES[kind][0]
    sigmas = (identity(out_n),) if symmetric else all_permutations(out_n)
    return _Segments(tuple(_plan(kind, i, n) for i in indices), sigmas)


def _block_arrays(table: _Segments, blocks, f: AlcoveFunction, length: float) -> list[ExpPolySum]:
    """The table's alcove sums, the rows of whole alcoves made as arrays in
    chunks; where an operand piece the table reads holds a term that is not
    a plane wave, or a row fails one of _rows' checks or holds a part of
    _HUGE or more, the whole application takes _block_rows."""
    pieces = [f._by_order[o].terms for o, _ in table.per_term]
    terms = [t for ts in pieces for t in ts]
    if not all(len(t.coeffs) == 1 and not any(t.coeffs[0][0]) for t in terms):
        return _block_rows(table, blocks, f, length)
    # the operand's wavenumbers (slots x terms, a zero slot last for the slots
    # no operand slot takes) and coefficients
    operand = np.zeros((f.n + 1, len(terms)), dtype=complex)
    operand[: f.n] = np.array([t.wavevector for t in terms], dtype=complex).reshape(len(terms), f.n).T
    coeffs = np.array([t.coeffs[0][1] for t in terms], dtype=complex)
    # per block: its plane wave on every slot (slots x blocks), and its scalar
    *_, slot, _ = table._arrays
    waves = np.zeros(slot.shape, dtype=complex)
    for b, (_, wave, _, _) in enumerate(blocks):
        waves[: len(wave), b] = wave
    scalars = np.array([scalar for _, _, scalar, _ in blocks], dtype=complex)
    consts = _consts(length)
    sums = []
    for chunk in table.chunks(np.array([len(ts) for ts in pieces], dtype=np.int64)):
        with np.errstate(all="ignore"):
            wv, c, bad = _seed_rows(chunk, table.n, np.take(waves, chunk.block, axis=1), np.take(operand, chunk.src, axis=1),
                                    coeffs[chunk.src], scalars[chunk.block], consts)
        if bad:
            return _block_rows(table, blocks, f, length)
        if chunk.take is not None:
            wv, c = np.take(wv, chunk.take, axis=1), c[chunk.take]
        sums += exppoly.merge_row_arrays(table.n, chunk.owner, wv, c, chunk.alcoves)
    return sums


def _seed_rows(chunk: _Chunk, P: int, wave, operand, coeffs, scalar, consts: dict):
    """A chunk's rows, _rows' float operations written out on arrays.  Per
    seed (the last axis): its block's plane wave and scalar, its operand
    term's wavenumbers and coefficient.  Returns the rows' wavevectors (P x
    rows) and coefficients, each seed's rows together and in _rows' order
    and the seeds in depth order, and whether any row fails one of _rows'
    checks or holds a part of _HUGE or more.

    A zero part reaches a row only through _rows' 0j + on the value at a
    bound, which makes it +0.0, and the sign of a zero factor changes no
    other part; so past the seed's coefficient the factors and a = c / (i mu)
    are exact up to the sign of a zero part, and _rows' a * (1.0 + 0j) is a."""
    # exppoly._embed: a slot an operand slot takes holds that wavenumber, added
    # to the block's where the block's is nonzero; the y slots follow the
    # coordinates, and no integration changes them.  Parts below _HUGE keep
    # every sum of them below 2^1000
    m = np.take_along_axis(operand, chunk.slot, axis=0)
    wave = np.where(chunk.slot < 0, wave, np.where(wave != 0, wave + m, m))
    c = np.array(_mul(coeffs.real, coeffs.imag, scalar.real, scalar.imag))
    bad = not ((abs(wave.real) < _HUGE) & (abs(wave.imag) < _HUGE)).all()
    # per round, the level's wavenumber mu, exppoly._exp_antiderivative's
    # factor 1.0 / (1j * mu), and per bound the factor of _at_bound's value:
    # the sign at a coordinate, sign * exp(1j * mu * end) at end -L/2 or +L/2
    # (numpy's exp is cmath's, which a test pins, below the real part 709
    # where cmath changes formula)
    mu = np.take_along_axis(wave, chunk.level, axis=0)
    bad |= (chunk.live & ~(np.hypot(mu.real, mu.imag) >= exppoly.SMALL_WAVENUMBER_TOL)).any()
    q = (-mu.imag, mu.real)
    inv = _inverse(*q)
    ends = np.where(chunk.top, consts[1].real, consts[-1].real)
    z = (ends * q[0][:, None], ends * q[1][:, None])
    bad |= (chunk.end & ~(z[0] < 700.0)).any()
    e = np.exp(_complex(*z))
    sign = np.array([1.0, -1.0])[:, None]
    f = (np.where(chunk.coord, sign, sign * e.real), np.where(chunk.coord, 0.0, sign * e.imag))
    # (real, imaginary), and the same of i times it, on the first two axes
    inv, f = (np.array((y, (-y[1], y[0]))) for y in (inv, f))
    # what each bound adds to each coordinate: mu at its coordinate, -0.0
    # (which adds nothing, to the bit) at the others
    add = np.where(chunk.hit, mu[:, None], complex(-0.0, -0.0))
    # the seeds of one depth together, each seed's rows on the axis before the
    # seeds: every row becomes its upper and lower child, adjacent
    cs, ws = [np.zeros((2, 0))], [np.zeros((P, 0), dtype=complex)]
    for d, (lo, hi) in enumerate(zip(chunk.edges, chunk.edges[1:])):
        if lo == hi:
            continue
        cd, wd = c[:, None, lo:hi], wave[:P, None, lo:hi]
        for r in range(d):
            a = _times(cd, inv[:, :, r, None, lo:hi])
            cd = (0.0 + _times(a[:, :, None], f[:, :, r, None, :, lo:hi])).reshape(2, 2 << r, hi - lo)
            wd = (wd[:, :, None] + add[:, r, None, :, lo:hi]).reshape(P, 2 << r, hi - lo)
        cs.append(cd.transpose(0, 2, 1).reshape(2, -1))
        ws.append(wd.transpose(0, 2, 1).reshape(P, (hi - lo) << d))
    c = np.concatenate(cs, axis=1)
    # a zero anywhere leaves a zero coefficient, a NaN or infinity one that is
    # not finite
    big = np.maximum(abs(c[0]), abs(c[1]))
    bad |= not ((big > 0) & (big < _HUGE)).all()
    return np.concatenate(ws, axis=1), _complex(*c), bad


def _mul(ar, ai, br, bi):
    """(ar + i ai) * (br + i bi) as CPython's complex product makes it."""
    return ar * br - ai * bi, ar * bi + ai * br


def _inverse(br, bi):
    """1.0 / (br + i bi) as CPython's complex quotient makes it (_Py_c_quot,
    the numerator 1.0 + 0j) up to the sign of a zero part, for nonzero
    finite divisors."""
    wide = abs(br) >= abs(bi)
    ratio = np.where(wide, bi / br, br / bi)
    denom = np.where(wide, br + bi * ratio, br * ratio + bi)
    return np.where(wide, 1.0, ratio) / denom, np.where(wide, -ratio, -1.0) / denom


def _complex(re, im) -> np.ndarray:
    z = np.empty(np.shape(re), dtype=complex)
    z.real, z.imag = re, im
    return z


def _times(x, y):
    """x * y for x held as (real, imaginary) on its first axis, and y as
    (y, i y), each (real, imaginary), on its first two: CPython's complex
    product, each part a separate product and sum."""
    return x[0] * y[0] + x[1] * y[1]


_TOP, _BOTTOM = ("const", 1), ("const", -1)

# kind -> (output minus input particle number, levels above and below the
# indexed coordinates): the shapes hat, bar+, bar- and check
_SHAPES = {
    "e_hat+": (1, (), ()), "e_hat-": (1, (), ()), "E_hat": (1, (), ()),
    "e_bar+": (0, (), (_BOTTOM,)), "E_bar+": (0, (), (_BOTTOM,)),
    "e_bar-": (0, (_TOP,), ()), "E_bar-": (0, (_TOP,), ()),
    "e_check+": (-1, (_TOP,), (_BOTTOM,)), "e_check-": (-1, (_TOP,), (_BOTTOM,)),
    "E_check": (-1, (_TOP,), (_BOTTOM,)),
}


def _checked(kind: str, i: tuple[int, ...], N: int) -> tuple[int, int]:
    """(output particle number, top index) of an elementary kind on N input
    particles; ValueError unless i is one of its multi-indices."""
    if kind not in _SHAPES:
        raise ValueError(f"unknown elementary kind {kind!r}")
    dn = _SHAPES[kind][0]
    out_n = N + dn
    if out_n < 0:
        raise ValueError(f"{kind} needs at least {-dn} input particle")
    # e_hat+/- index the input coordinates, every other kind the output ones
    top = out_n if kind[0] == "E" or dn < 1 else N
    if not all(isinstance(p, numbers.Integral) for p in i):
        raise ValueError("multi-index entries must be integers")
    if len(set(i)) != len(i):
        raise ValueError("multi-index entries must be distinct")
    if any(not (1 <= p <= top) for p in i):
        raise ValueError(f"multi-index entry out of range 1..{top}")
    if kind[0] == "E" and list(i) != sorted(i):
        raise ValueError("multi-index must be strictly increasing")
    return out_n, top


def _plan(kind: str, i: tuple[int, ...], N: int) -> _Plan:
    """The block of an elementary kind on N input particles."""
    out_n, top = _checked(kind, i, N)
    _, above, below = _SHAPES[kind]
    symmetric = kind[0] == "E"
    # e_hat+ creates coordinate 1 below the others, e_hat- coordinate N+1 above
    shift = 1 if kind == "e_hat+" else 0
    if kind == "e_hat+":
        below = (("coord", 1),)
    elif kind == "e_hat-":
        above = (("coord", out_n),)
    levels = (*above, *(("coord", p + shift) for p in i), *below)
    ys = [("y", m) for m in range(1, len(levels))]
    if symmetric:
        # the remaining coordinates, then the y's
        args = (*(("coord", r) for r in range(1, out_n + 1) if r not in i), *ys)
        return _Plan(out_n, levels, args)
    # slot r takes the y of its index, if it has one; e_check+ hands the top
    # y to one more slot at the end, e_check- the bottom y to one at the front
    own = ys[1:] if kind == "e_check+" else ys
    args = tuple(
        own[i.index(r)] if r in i else ("coord", r + shift) for r in range(1, top + 1)
    )
    if kind == "e_check+":
        args = (*args, ys[0])
    elif kind == "e_check-":
        args = (ys[-1], *args)
    return _Plan(out_n, levels, args)


# family -> (elementary kind, index sets, offset of the index range from N,
# extra indices, scalar of N or None): weight gamma^n (times the scalar) on n + extra indices
_FAMILIES = {
    "a": ("e_bar+", permutations, 0, 0, None),
    "b+": ("e_hat+", permutations, 0, 0, None),
    "b-": ("e_hat-", permutations, 0, 0, None),
    "c+": ("e_check+", permutations, -1, 0, None),
    "c-": ("e_check-", permutations, -1, 0, None),
    "d": ("e_bar-", permutations, 0, 0, None),
    "A": ("E_bar+", combinations, 0, 0, lambda N: 1.0),
    "B": ("E_hat", combinations, 1, 1, lambda N: 1.0 / (N + 1)),
    "C": ("E_check", combinations, -1, 0, float),
    "D": ("E_bar-", combinations, 0, 0, lambda N: 1.0),
}


def elementary_nonsymmetric_op(
    kind: str, mu: complex, i: tuple[int, ...], f: AlcoveFunction, length: float
) -> AlcoveFunction:
    """One elementary block (kinds e_hat+/-, e_bar+/-, e_check+/-)."""
    if f.n > PARTICLE_CAP:
        raise ValueError(f"exact application capped at {PARTICLE_CAP} particles")
    if not kind.startswith("e_"):
        raise ValueError(f"unknown elementary kind {kind!r}")
    i = tuple(i)
    _checked(kind, i, f.n)
    return _assemble(kind, [(1.0, i)], mu, f, length, False)


def apply_nonsymmetric(
    family: str, mu: complex, f: AlcoveFunction, gamma: float, length: float
) -> AlcoveFunction:
    """The non-symmetric generators a, b+, b-, c+, c-, d."""
    return _generator(family, False, mu, f, gamma, length)


def apply_symmetric(
    family: str, mu: complex, F: AlcoveFunction, gamma: float, length: float
) -> AlcoveFunction:
    """The symmetric generators A, B, C, D on symmetric input."""
    return _generator(family, True, mu, F, gamma, length)


def _generator(family: str, symmetric: bool, mu: complex, f: AlcoveFunction, gamma: float, length: float) -> AlcoveFunction:
    """A family of _FAMILIES on f; the symmetric ones are upper case."""
    if f.n > PARTICLE_CAP:
        raise ValueError(f"exact application capped at {PARTICLE_CAP} particles")
    if family not in _FAMILIES or family.isupper() != symmetric:
        raise ValueError(f"unknown family {family!r}")
    kind, indices, top, extra, scalar = _FAMILIES[family]
    top += f.n
    blocks = [
        (gamma**n if scalar is None else gamma**n * scalar(f.n), i)
        for n in range(top - extra + 1)
        for i in indices(range(1, top + 1), n + extra)
    ]
    # c+, c- and C annihilate the vacuum: zero, on the empty-variable space
    return _assemble(kind, blocks, mu, f, length, symmetric) if blocks else alcovefn.zero_function(0)


def _assemble(kind: str, blocks, mu: complex, f: AlcoveFunction, length: float, symmetric: bool) -> AlcoveFunction:
    """The blocks' sum on f on every output alcove, or on the fundamental
    one extended by symmetry."""
    out_n = f.n + _SHAPES[kind][0]
    pieces = _block_sum(kind, blocks, mu, f, length, symmetric)
    if symmetric:
        return alcovefn.extend_symmetric(pieces[identity(out_n)], continuous=False)
    return AlcoveFunction(out_n, pieces, continuous=False)


# ---------------------------------------------------------------------------
# boundary insertions
# ---------------------------------------------------------------------------


def _pin_last(p: ExpPolySum, value: float) -> ExpPolySum:
    """p with its last slot set to value and dropped."""
    n = p.n - 1
    return ExpPolySum(n, tuple(exppoly._at_bound(t, p.n, Bound.const(value), n) for t in p.terms))


def _pinned(G: AlcoveFunction) -> int:
    """G's particle number, which must be at least 1."""
    if G.n == 0:
        raise ValueError("a 0-particle function has no slot to pin")
    return G.n


def insert_top(G: AlcoveFunction, length: float) -> AlcoveFunction:
    """(x_1..x_{M-1}) -> G(x_1..x_{M-1}, L/2): pin the last slot at the top."""
    M = _pinned(G)
    pieces = {}
    for sigma in all_permutations(M - 1):
        ext = Permutation((M, *sigma.images))
        pieces[sigma] = _pin_last(G.pieces[ext], length / 2)
    return AlcoveFunction(M - 1, pieces, continuous=G.continuous)


def insert_bottom(G: AlcoveFunction, length: float) -> AlcoveFunction:
    """(x_1..x_{M-1}) -> G(-L/2, x_1..x_{M-1}): pin the first slot at the bottom."""
    M = _pinned(G)
    # slot 1 moves to the end, slot m to m - 1
    rotate = Permutation((M, *range(1, M)))
    pieces = {}
    for sigma in all_permutations(M - 1):
        ext = Permutation((*(s + 1 for s in sigma.images), 1))
        pieces[sigma] = _pin_last(alcovefn.act_analytic(rotate, G.pieces[ext]), -length / 2)
    return AlcoveFunction(M - 1, pieces, continuous=G.continuous)


# ---------------------------------------------------------------------------
# R-matrix, transfer matrix, quantum determinant, Q-operator
# ---------------------------------------------------------------------------

_PERM4 = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def rmatrix(lam: complex, gamma: float) -> np.ndarray:
    """R_lam = I - (i gamma / lam) P on C^2 (x) C^2."""
    if lam == 0:
        raise ValueError("zero spectral parameter")
    return np.eye(4, dtype=complex) - (1j * gamma / lam) * _PERM4


# the basis of C^2 x C^2 x C^2 with sites 2 and 3 swapped
_SWAP23 = np.ix_([0, 2, 1, 3, 4, 6, 5, 7], [0, 2, 1, 3, 4, 6, 5, 7])


def ybe_check(lam: complex, mu: complex, gamma: float) -> float:
    """Max-norm residual of R12(l-m) R13(l) R23(m) = R23(m) R13(l) R12(l-m)."""
    if lam == 0 or mu == 0 or lam == mu:
        raise ValueError("spectral parameters must be nonzero and distinct")
    r12 = np.kron(rmatrix(lam - mu, gamma), np.eye(2))
    r13 = np.kron(rmatrix(lam, gamma), np.eye(2))[_SWAP23]
    r23 = np.kron(np.eye(2), rmatrix(mu, gamma))
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    return float(np.max(np.abs(lhs - rhs)))


def transfer(
    mu: complex, F: AlcoveFunction, gamma: float, length: float
) -> AlcoveFunction:
    """T_mu = A_mu + D_mu."""
    return alcovefn.afn_add(
        apply_symmetric("A", mu, F, gamma, length),
        apply_symmetric("D", mu, F, gamma, length),
    )


def qdet(
    mu: complex, F: AlcoveFunction, gamma: float, length: float
) -> AlcoveFunction:
    """Quantum determinant A_{mu-} D_{mu+} - gamma B_{mu-} C_{mu+}
    with mu-/+ = mu -/+ i gamma/2."""
    mu_plus = mu - 1j * gamma / 2
    mu_minus = mu + 1j * gamma / 2
    ad = apply_symmetric(
        "A", mu_plus, apply_symmetric("D", mu_minus, F, gamma, length), gamma, length
    )
    if F.n == 0:
        return ad
    bc = apply_symmetric(
        "B", mu_plus, apply_symmetric("C", mu_minus, F, gamma, length), gamma, length
    )
    return alcovefn.afn_add(ad, alcovefn.afn_scale(-gamma, bc))


def q_operator_scalar(mu: complex, lam: tuple[complex, ...]) -> complex:
    """The Q-operator eigenvalue prod_j (lambda_j - mu)."""
    out = 1.0 + 0j
    for lj in lam:
        out *= lj - mu
    return out


def q_operator_apply(F: AlcoveFunction, mu: complex, gamma: float) -> AlcoveFunction:
    """Q_mu = prod_j (-i d_{j,gamma} - mu) built from Dunkl-type operators."""
    out = F
    for j in range(1, F.n + 1):
        out = alcovefn.afn_add(
            alcovefn.afn_scale(-1j, dunkl(out, j, gamma)),
            alcovefn.afn_scale(-mu, out),
        )
    return out
