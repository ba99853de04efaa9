"""Lattice-operator layer: R-matrix, generators, quantum determinant."""

import cmath
import math
from itertools import combinations, permutations, product

import numpy as np
import pytest

from qnls import alcovefn, exppoly, oracle, wavefn, ybops
from qnls.symgroup import Permutation, all_permutations
from qnls.wavefn import RapiditySet

GAMMA = 1.0
LENGTH = 10.0


def test_rmatrix_satisfies_yang_baxter():
    assert ybops.ybe_check(0.6, -0.3, GAMMA) < 1e-13
    assert ybops.ybe_check(1.2 + 0.4j, 0.1 - 0.2j, 0.7) < 1e-13


def test_insert_ops_pin_boundary_coordinates():
    r = RapiditySet((0.6, -0.9), GAMMA, LENGTH)
    G = wavefn.prewavefunction(r)
    top = ybops.insert_top(G, LENGTH)
    bottom = ybops.insert_bottom(G, LENGTH)
    half = LENGTH / 2
    from qnls.symgroup import Permutation

    for x in alcovefn.sample_interior(1, 5, LENGTH):
        # pinning the last slot at +L/2 selects the alcove where that
        # slot is largest; pinning the first slot at -L/2, smallest
        side_top = Permutation((2, 1))
        side_bottom = Permutation((2, 1))
        assert abs(top.eval(x) - G.eval((x[0], half), side=side_top)) < 1e-12
        assert abs(bottom.eval(x) - G.eval((-half, x[0]), side=side_bottom)) < 1e-12


def test_transfer_is_sum_of_diagonal_generators():
    r = RapiditySet((0.7, -0.4), GAMMA, LENGTH)
    Psi = wavefn.bethe_wavefunction(r)
    mu = 0.23
    lhs = ybops.transfer(mu, Psi, GAMMA, LENGTH)
    rhs = alcovefn.afn_add(
        ybops.apply_symmetric("A", mu, Psi, GAMMA, LENGTH),
        ybops.apply_symmetric("D", mu, Psi, GAMMA, LENGTH),
    )
    for x in alcovefn.sample_interior(2, 6, LENGTH):
        assert abs(lhs.eval(x) - rhs.eval(x)) < 1e-13


def test_quantum_determinant_on_vacuum_and_one_particle():
    vac = alcovefn.zero_function(0)
    vac = alcovefn.build({list(vac.pieces)[0]: exppoly.constant(1.0, 0)}) if vac.pieces else vac
    one = alcovefn.from_analytic(exppoly.plane_wave((0.5,)))
    out = ybops.qdet(0.3, one, GAMMA, LENGTH)
    want = math.exp(-GAMMA * LENGTH / 2)
    for x in alcovefn.sample_interior(1, 6, LENGTH):
        assert abs(out.eval(x) - want * one.eval(x)) < 1e-12


@pytest.mark.parametrize("gamma", [1.0, 0.3])
def test_boundary_insertion_identities(gamma):
    # a and d are b+ and b- with the created particle pinned at the bottom
    # and the top; c+ and c- are the commutators of a and d with the
    # insertion at the other end, over gamma
    f = wavefn.prewavefunction(RapiditySet((0.8, -0.3), gamma, LENGTH))
    mu = 0.41

    def op(family, g):
        return ybops.apply_nonsymmetric(family, mu, g, gamma, LENGTH)

    def top(g):
        return ybops.insert_top(g, LENGTH)

    def bottom(g):
        return ybops.insert_bottom(g, LENGTH)

    def commutator(insert, family):
        lhs = insert(op(family, f))
        return alcovefn.afn_add(lhs, alcovefn.afn_scale(-1.0, op(family, insert(f))))

    cases = [
        ("a", op("a", f), bottom(op("b+", f))),
        ("d", op("d", f), top(op("b-", f))),
        ("c+", alcovefn.afn_scale(gamma, op("c+", f)), commutator(top, "a")),
        ("c-", alcovefn.afn_scale(gamma, op("c-", f)), commutator(bottom, "d")),
    ]
    for family, lhs, rhs in cases:
        assert lhs.n == rhs.n
        for x in alcovefn.sample_interior(lhs.n, 6, LENGTH):
            assert abs(lhs.eval(x) - rhs.eval(x)) < 1e-12, (family, x)


def test_q_operator_scalar():
    assert ybops.q_operator_scalar(0.25, (1.0, -0.5)) == (1.0 - 0.25) * (-0.5 - 0.25)


def test_elementary_op_against_quadrature_oracle():
    r = RapiditySet((0.8, -0.3), GAMMA, LENGTH)
    f = wavefn.prewavefunction(r)
    mu = 0.37
    cases = [
        (kind, i, out_n)
        for kind, out_n in (("e_hat+", 3), ("e_hat-", 3), ("e_bar+", 2), ("e_bar-", 2))
        for i in ((), (1,), (2, 1))
    ] + [(kind, i, 1) for kind in ("e_check+", "e_check-") for i in ((), (1,))]
    for kind, i, out_n in cases:
        exact = ybops.elementary_nonsymmetric_op(kind, mu, i, f, LENGTH)
        assert exact.n == out_n
        for x in alcovefn.sample_interior(out_n, 4, LENGTH):
            q = oracle.quad_elementary(kind, mu, i, f, LENGTH, x)
            assert abs(exact.eval(x) - q) < 1e-8, (kind, i, x)


def test_elementary_op_rejects_bad_kind_and_index():
    f = wavefn.prewavefunction(RapiditySet((0.8, -0.3), GAMMA, LENGTH))
    for kind, i in (("E_bar+", (1,)), ("e_wedge+", (1,)), ("e_bar+", (1, 1)), ("e_bar+", (3,))):
        with pytest.raises(ValueError):
            ybops.elementary_nonsymmetric_op(kind, 0.37, i, f, LENGTH)
    # e_check+/- lower the particle number, so the vacuum has no output
    vacuum = alcovefn.build({Permutation(()): exppoly.constant(1.0, 0)})
    for kind in ("e_check+", "e_check-"):
        with pytest.raises(ValueError, match="input particle"):
            ybops.elementary_nonsymmetric_op(kind, 0.37, (), vacuum, LENGTH)
    for family in ("c+", "c-"):
        assert ybops.apply_nonsymmetric(family, 0.37, vacuum, GAMMA, LENGTH).n == 0
    assert ybops.apply_symmetric("C", 0.37, vacuum, GAMMA, LENGTH).n == 0
    # each entry point refuses the other's families, and kinds
    for apply, family in ((ybops.apply_symmetric, "b+"), (ybops.apply_nonsymmetric, "B"), (ybops.apply_nonsymmetric, "e_bar+")):
        with pytest.raises(ValueError, match="unknown family"):
            apply(family, 0.37, f, GAMMA, LENGTH)


def test_particle_cap_enforced():
    lam = tuple(0.3 * j for j in range(1, ybops.PARTICLE_CAP + 2))
    f = alcovefn.from_analytic(exppoly.plane_wave(lam))
    for apply, family in ((ybops.apply_nonsymmetric, "a"), (ybops.apply_symmetric, "B")):
        with pytest.raises(ValueError, match="capped at"):
            apply(family, 0.2, f, GAMMA, LENGTH)
    with pytest.raises(ValueError, match="capped at"):
        ybops.elementary_nonsymmetric_op("e_bar+", 0.2, (1,), f, LENGTH)


def _reference_plan_piece(plan, mu, f, sigma, length):
    """A plan's piece on alcove sigma built step by step from the public
    exppoly operations: pullback, mul by the plane-wave prefactor, one
    integrate per y, canonicalize, and a truncation of the y slots."""
    P = plan.out_n
    pos = {p: t for t, p in enumerate(sigma.images, start=1)}
    ranks = [ybops._rank(e, pos, P) for e in plan.levels]
    if any(ranks[t] >= ranks[t + 1] for t in range(len(ranks) - 1)):
        return exppoly.zero(P)
    n_y = len(plan.levels) - 1
    ext_n = P + n_y
    wv = [0j] * ext_n
    for e in plan.levels:
        if e[0] == "coord":
            wv[e[1] - 1] += mu
    for m in range(1, n_y + 1):
        wv[P + m - 1] -= mu
    sign = -sum(e[1] for e in plan.levels if e[0] == "const")
    prefwave = exppoly.scale(cmath.exp(-1j * sign * mu * length / 2), exppoly.plane_wave(wv))
    per_interval = []
    for m in range(1, n_y + 1):
        ru, rl = ranks[m - 1], ranks[m]
        interior = sorted((("coord", p) for p in range(1, P + 1) if ru < pos[p] < rl), key=lambda e: pos[e[1]])
        chain = [plan.levels[m - 1], *interior, plan.levels[m]]
        per_interval.append([
            (chain[t + 1], chain[t], (ybops._rank(chain[t], pos, P) + ybops._rank(chain[t + 1], pos, P)) / 2)
            for t in range(len(chain) - 1)
        ])
    out = exppoly.zero(ext_n)
    for combo in product(*per_interval):
        argrank = [float(pos[a[1]]) if a[0] == "coord" else combo[a[1] - 1][2] for a in plan.args]
        tau = Permutation(tuple(s + 1 for s in sorted(range(len(plan.args)), key=lambda s: argrank[s])))
        rows = {
            r: {a[1] if a[0] == "coord" else P + a[1]: 1.0 + 0j}
            for r, a in enumerate(plan.args, start=1)
        }
        g = exppoly.mul(exppoly.pullback(f.pieces[tau], rows, ext_n), prefwave)
        for m in range(n_y, 0, -1):
            lo, hi, _ = combo[m - 1]
            g = exppoly.integrate(g, P + m, ybops._bound(lo, length), ybops._bound(hi, length))
        out = out + g
    return exppoly.ExpPolySum(P, tuple(exppoly._truncate(t, P) for t in exppoly.canonicalize(out).terms))


def _alcove_points(sigma, count, length, seed):
    """Points with x_{sigma(1)} > ... > x_{sigma(n)}."""
    points = []
    for x in alcovefn.sample_interior(sigma.n, count, length, seed):
        point = [0.0] * sigma.n
        for p, v in zip(sigma.images, sorted(x, reverse=True)):
            point[p - 1] = v
        points.append(tuple(point))
    return points


@pytest.mark.parametrize("N", [1, 2, 3])
def test_block_engine_matches_the_stepwise_reference(N):
    lam = (0.8, -0.3, 0.45)[:N]
    r = RapiditySet(lam, GAMMA, LENGTH)
    # (mu, the input of the e kinds, the input of the E kinds)
    wave = alcovefn.from_analytic(exppoly.plane_wave(lam))
    operands = [
        (0.37, wavefn.prewavefunction(r), wavefn.bethe_wavefunction(r)),
        # a y wavenumber that cancels, or nearly: the polynomial and the
        # series branch of integrate
        (lam[0], wave, wave),
        (lam[0] + 3e-8, wave, wave),
    ]
    if N > 1:
        # coinciding rapidities: pieces with polynomial prefactors
        degenerate = wavefn.prewavefunction(RapiditySet((0.5, 0.5, -0.3)[:N], GAMMA, LENGTH))
        operands.append((0.37, degenerate, degenerate))
    weight = 0.8 - 0.3j
    # every multi-index: e_hat+/- index the input coordinates, the other
    # kinds the output ones; the symmetric kinds take increasing ones
    cases = []
    for kind, dn in (("e_hat+", 1), ("e_hat-", 1), ("e_bar+", 0), ("e_bar-", 0), ("e_check+", -1), ("e_check-", -1)):
        top = N if dn == 1 else N + dn
        cases += [(kind, i) for k in range(top + 1) for i in permutations(range(1, top + 1), k)]
    for kind, dn in (("E_hat", 1), ("E_bar+", 0), ("E_bar-", 0), ("E_check", -1)):
        top = N + dn
        cases += [(kind, i) for k in range(dn == 1, top + 1) for i in combinations(range(1, top + 1), k)]
    for (kind, i), (mu, f_e, f_E) in product(cases, operands):
        f = f_e if kind[0] == "e" else f_E
        plan = ybops._plan(kind, i, N)
        sigmas = all_permutations(plan.out_n)
        engine = ybops._block_sum(kind, [(weight, i)], mu, f, LENGTH, False)
        worst, size = 0.0, 0.0
        for sigma in sigmas:
            want = exppoly.scale(weight, _reference_plan_piece(plan, mu, f, sigma, LENGTH))
            for x in _alcove_points(sigma, 3, LENGTH, seed=N):
                a, b = want.eval(x), engine[sigma].eval(x)
                worst, size = max(worst, abs(a - b)), max(size, abs(a))
        assert worst <= 1e-12 * size, (kind, i, mu, worst, size)


def test_degree_cap_reached_through_the_block_engine():
    # y's wavenumber cancels against the block's plane wave, so integrating
    # y^DEGREE_CAP raises the degree past the cap
    mu = 0.37
    f = alcovefn.from_analytic(exppoly.monomial((exppoly.DEGREE_CAP,), 1.0, (mu,)))
    with pytest.raises(exppoly.DegreeCapError):
        ybops.elementary_nonsymmetric_op("e_bar+", mu, (1,), f, LENGTH)


# The block engine before it kept alcove geometry and ran plane waves as
# rows, frozen as the reference: each block's terms built one operand term
# at a time, every block's terms on an alcove canonicalized together.


def _frozen_plan_piece(plan, mu, weight, f, sigma, length):
    P = plan.out_n
    pos = {p: t for t, p in enumerate(sigma.images, start=1)}
    ranks = [ybops._rank(e, pos, P) for e in plan.levels]
    if any(ranks[t] >= ranks[t + 1] for t in range(len(ranks) - 1)):
        return []
    n_y = len(plan.levels) - 1
    ext_n = P + n_y
    wv = [0j] * ext_n
    for e in plan.levels:
        if e[0] == "coord":
            wv[e[1] - 1] += mu
    for m in range(1, n_y + 1):
        wv[P + m - 1] += -mu
    sign = -sum(e[1] for e in plan.levels if e[0] == "const")
    scalar = weight * (cmath.exp(-1j * sign * mu * length / 2) if sign else 1.0 + 0j)
    slots = [a[1] if a[0] == "coord" else P + a[1] for a in plan.args]
    per_interval = []
    for m in range(1, n_y + 1):
        upper, lower = plan.levels[m - 1], plan.levels[m]
        ru, rl = ranks[m - 1], ranks[m]
        interior = sorted(
            (("coord", p) for p in range(1, P + 1) if ru < pos[p] < rl),
            key=lambda e: pos[e[1]],
        )
        chain = [upper, *interior, lower]
        per_interval.append(
            [
                (
                    ybops._bound(chain[t + 1], length),
                    ybops._bound(chain[t], length),
                    (ybops._rank(chain[t], pos, P) + ybops._rank(chain[t + 1], pos, P)) / 2,
                )
                for t in range(len(chain) - 1)
            ]
        )
    terms = []
    for combo in product(*per_interval):
        argrank = []
        for a in plan.args:
            if a[0] == "coord":
                argrank.append(float(pos[a[1]]))
            else:
                argrank.append(combo[a[1] - 1][2])
        order = sorted(range(len(plan.args)), key=lambda s: argrank[s])
        piece = f._by_order[tuple(s + 1 for s in order)]
        level = [exppoly._embed(t, slots, wv, scalar) for t in piece.terms]
        for m in range(n_y, 0, -1):
            lower, upper, _ = combo[m - 1]
            level = [u for t in level for u in exppoly._integrate_term(t, P + m, lower, upper, P + m - 1)]
        terms += level
    return terms


def _frozen_block_sum(kind, blocks, mu, f, length):
    """The frozen engine's sums of the (weight, multi-index) blocks of kind
    on every output alcove."""
    plans = [(weight, ybops._plan(kind, i, f.n)) for weight, i in blocks]
    return {
        sigma: exppoly.canonicalize(exppoly.ExpPolySum(
            sigma.n, tuple(t for weight, plan in plans for t in _frozen_plan_piece(plan, mu, weight, f, sigma, length))
        ))
        for sigma in all_permutations(f.n + ybops._SHAPES[kind][0])
    }


def _application(kind, blocks, mu, n, length):
    """The kept segment table of the nonzero-weight (weight, multi-index)
    blocks of kind on n input particles, on every output alcove, and those
    blocks prepared: what _block_sum hands _block_rows or _block_arrays."""
    blocks = [(weight, i) for weight, i in blocks if weight]
    table = ybops._table(kind, tuple(i for _, i in blocks), n, False)
    return table, [ybops._prepare(weight, plan, mu, length) for (weight, _), plan in zip(blocks, table.plans)]


def _assert_engine_is_frozen(kind, blocks, mu, f, length=LENGTH):
    want = repr(_frozen_block_sum(kind, blocks, mu, f, length))
    assert repr(ybops._block_sum(kind, blocks, mu, f, length, False)) == want
    # the rows and the arrays, each called directly, whatever the size
    table, prepared = _application(kind, blocks, mu, f.n, length)
    for run in (ybops._block_rows, ybops._block_arrays):
        assert repr(dict(zip(table.sigmas, run(table, prepared, f, length)))) == want, run.__name__


def _every_kind_and_index(N):
    """(kind, multi-index) of every elementary block on N input particles."""
    cases = []
    for kind, dn in (("e_hat+", 1), ("e_hat-", 1), ("e_bar+", 0), ("e_bar-", 0), ("e_check+", -1), ("e_check-", -1)):
        top = N if dn == 1 else N + dn
        cases += [(kind, i) for k in range(top + 1) for i in permutations(range(1, top + 1), k)]
    for kind, dn in (("E_hat", 1), ("E_bar+", 0), ("E_bar-", 0), ("E_check", -1)):
        top = N + dn
        cases += [(kind, i) for k in range(dn == 1, top + 1) for i in combinations(range(1, top + 1), k)]
    return cases


@pytest.mark.parametrize("N", [1, 2, 3])
def test_block_engine_repeats_the_frozen_per_term_engine(N):
    lam = (0.8, -0.3, 0.45)[:N]
    r = RapiditySet(lam, GAMMA, LENGTH)
    psi, Psi = wavefn.prewavefunction(r), wavefn.bethe_wavefunction(r)
    wave = alcovefn.from_analytic(exppoly.plane_wave(lam))
    # (mu, weight, the input of the e kinds, the input of the E kinds); mu
    # at lambda_1, or 3e-8 off it, sends a y wavenumber to the polynomial
    # or the series branch, and weight 0 makes every coefficient zero
    operands = [(0.37, 0.8 - 0.3j, psi, Psi), (lam[0], 1.0, wave, wave), (lam[0] + 3e-8, 1.0, wave, wave)]
    operands.append((0.37, 0.0, psi, Psi))
    if N > 1:
        degenerate = wavefn.prewavefunction(RapiditySet((0.5, 0.5, -0.3)[:N], GAMMA, LENGTH))
        operands.append((0.37, 1.3, degenerate, degenerate))
    for (kind, i), (mu, weight, f_e, f_E) in product(_every_kind_and_index(N), operands):
        f = f_e if kind[0] == "e" else f_E
        _assert_engine_is_frozen(kind, [(weight, i)], mu, f)


# plane waves at the edges of the rows' closed form, as (integrated
# wavenumber, coefficient): at SMALL_WAVENUMBER_TOL and just below it,
# signed zeros, NaN, infinity, a c / (i mu) that rounds to zero, and one
# whose value at the bound +4 rounds to zero (e^{-400}) while the one at -4
# does not
_PLANE_WAVE_EDGES = [
    (exppoly.SMALL_WAVENUMBER_TOL, 0.6 - 0.8j),
    (math.nextafter(exppoly.SMALL_WAVENUMBER_TOL, 0.0), 0.6 - 0.8j),
    (complex(1.5, -0.0), complex(-0.0, 0.7)),
    (complex(-1.5, 0.0), complex(0.7, -0.0)),
    (1.5, -0.7j),
    (1.5, complex(math.nan, 0.0)),
    (1.5 + 0.3j, complex(0.0, math.inf)),
    (2.0, 5e-324),
    (1 + 100j, 1e-160),
]


def test_rows_integrate_plane_wave_edges_as_the_general_steps():
    # one block on two coordinates whose operand's slot 2 is its y (slot 3),
    # on signed-zero wavenumbers elsewhere, integrated between two of the
    # constants -4, 0 and +4 or of the coordinates 1 and 2: where _rows
    # makes rows, they are _terms' terms (exppoly._embed, then
    # _integrate_term) to the bit, and the sign of a zero part
    consts = {e: 4.0 * e for e in (1, 0, -1)}
    made = 0
    for muj, c in _PLANE_WAVE_EDGES:
        f = alcovefn.from_analytic(exppoly.monomial((0, 0), c, (complex(-0.0, -0.0), muj)))
        for entities in ([("const", e) for e in (-1, 0, 1)], [("coord", 1), ("coord", 2)]):
            for lower, upper in permutations(entities, 2):
                block = ((2, [0j] * 3, 1.0 + 0j, [1, 3]), [((1, 2), ((lower, upper),))])
                rows = ybops._rows([block], f, consts)
                if rows is not None:
                    made += 1
                    want = [(t.wavevector, t.coeffs) for t in ybops._terms([block], f, 8.0)]
                    assert repr([(tuple(wv), (((0, 0), v),)) for wv, v in rows]) == repr(want), (muj, c)
    # the other 20 cases are below SMALL_WAVENUMBER_TOL or round to zero
    assert made == 52


def _family_blocks(family, N, gamma):
    """The kind and the (weight, multi-index) blocks of a non-symmetric
    family, read from ybops' family table."""
    kind, indices, top, _, _ = ybops._FAMILIES[family]
    return kind, [(gamma**n, i) for n in range(N + top + 1) for i in indices(range(1, N + top + 1), n)]


def _scaled(f, c):
    return alcovefn.AlcoveFunction(f.n, {s: exppoly.scale(c, p) for s, p in f.pieces.items()}, continuous=False)


@pytest.mark.parametrize("family", ["a", "d", "b+", "c-"])
def test_block_engine_repeats_the_frozen_engine_on_signed_zeros_and_nonfinite_values(family):
    nan, inf = math.nan, math.inf
    psi = wavefn.prewavefunction(RapiditySet((0.8, -0.3), GAMMA, LENGTH))
    # -0.0 parts in the wavenumbers, the coefficients and the weights
    signed = alcovefn.from_analytic(
        exppoly.monomial((0, 0), complex(-0.0, 0.6), (complex(0.8, -0.0), complex(-0.0, 0.25)))
        + exppoly.plane_wave((complex(-0.3, -0.0), 0.45))
    )
    for gamma in (-0.7, complex(-0.0, 1.0)):
        _assert_engine_is_frozen(*_family_blocks(family, 2, gamma), complex(0.37, -0.0), signed)
    for c in (nan, inf, -inf, complex(0.0, -inf), complex(nan, 1.0)):
        _assert_engine_is_frozen(*_family_blocks(family, 2, GAMMA), 0.37, _scaled(psi, c))
    # a NaN wavenumber, and a lone monomial of nonzero degree
    for p in (exppoly.plane_wave((complex(nan, 0.0), 0.45)), exppoly.monomial((1, 0), 0.7, (0.8, -0.3))):
        _assert_engine_is_frozen(*_family_blocks(family, 2, GAMMA), 0.37, alcovefn.from_analytic(p + exppoly.plane_wave((0.2, 0.6))))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_block_engine_at_gamma_zero_repeats_the_frozen_engine(N):
    # at gamma 0 (or -0.0) every block with an index has weight 0 and is
    # skipped.  On finite operands the frozen engine's terms of those blocks
    # hold no coefficient and the sums agree by repr; on a NaN or infinite
    # operand they hold 0 * inf = NaN, which the skip leaves out, as the
    # frozen engine does without those blocks
    lam = (0.8, -0.3, 0.45)[:N]
    psi = wavefn.prewavefunction(RapiditySet(lam, GAMMA, LENGTH))
    operands = [psi, alcovefn.from_analytic(exppoly.plane_wave(lam))]
    if N > 1:
        operands.append(wavefn.prewavefunction(RapiditySet((0.5, 0.5, -0.3)[:N], GAMMA, LENGTH)))
    for family, mu, f, gamma in product(("a", "d", "b+", "c-"), (0.37, lam[0], lam[0] + 3e-8), operands, (0.0, -0.0)):
        _assert_engine_is_frozen(*_family_blocks(family, N, gamma), mu, f)
    for family, c in product(("a", "b+"), (math.nan, math.inf)):
        (kind, blocks), f = _family_blocks(family, N, 0.0), _scaled(psi, c)
        got = repr(ybops._block_sum(kind, blocks, 0.37, f, LENGTH, False))
        assert got == repr(_frozen_block_sum(kind, [b for b in blocks if b[0]], 0.37, f, LENGTH))
        assert got != repr(_frozen_block_sum(kind, blocks, 0.37, f, LENGTH))


def test_block_engine_sends_only_the_alcoves_of_a_falling_back_term_through_the_per_term_path(monkeypatch):
    # e_bar+ with index 1 reads operand piece (1, 2) only on output alcove
    # (1, 2), where y_1 runs above x_2; there the second wave's y wavenumber
    # is mu - mu = 0, so that alcove takes the per-term path and (2, 1) the
    # rows, or the arrays
    mu = 0.37
    wave = exppoly.plane_wave((0.8, -0.3))
    f = alcovefn.AlcoveFunction(
        2, {Permutation((1, 2)): wave + exppoly.plane_wave((mu, 0.5)), Permutation((2, 1)): wave}, continuous=False
    )
    calls = []
    terms = ybops._terms
    monkeypatch.setattr(ybops, "_terms", lambda *args: calls.append(args) or terms(*args))
    _assert_engine_is_frozen("e_bar+", [(0.8, (1,))], mu, f)
    # once each through _block_sum, the rows and the arrays, on one alcove
    assert len(calls) == 3
    assert calls[0] == calls[1] == calls[2]


def test_geometry_is_kept_per_plan_shape_and_alcove():
    # the geometry lives in the segment table of its application shape
    psi = wavefn.prewavefunction(RapiditySet((0.8, -0.3), GAMMA, LENGTH))
    ybops._table.cache_clear()
    ybops.apply_nonsymmetric("b+", 0.37, psi, GAMMA, LENGTH)
    # another mu, a nonzero gamma, another length or operand is the same
    # shape, one entry
    ybops.apply_nonsymmetric("b+", -1.1, psi, 0.4, LENGTH)
    ybops.apply_nonsymmetric("b+", 0.37, psi, -0.7, LENGTH)
    ybops.apply_nonsymmetric("b+", 0.37, wavefn.prewavefunction(RapiditySet((0.2, 0.9), 0.4, 7.0)), GAMMA, 7.0)
    info = ybops._table.cache_info()
    assert (info.hits, info.misses, info.currsize) == (3, 1, 1)
    # gamma 0 (or -0.0) weighs every block with an index 0: a shape of its own
    for gamma in (0.0, -0.0):
        ybops.apply_nonsymmetric("b+", 0.37, psi, gamma, LENGTH)
    info = ybops._table.cache_info()
    assert (info.hits, info.misses, info.currsize) == (4, 2, 2)
    kind, blocks = _family_blocks("b+", 2, GAMMA)
    for indices in (tuple(i for _, i in blocks), ((),)):
        table = ybops._table(kind, indices, 2, False)
        assert len(table.plans) == len(indices)
        assert all(g for alcove in table.alcoves for _, g in alcove)
    assert ybops._table.cache_info().misses == 2


def test_a_kept_shape_does_not_let_a_bad_multi_index_through():
    # (1.0,) and np.int64(1) hash as 1 does: the multi-index is checked
    # before the kept shape is looked up
    f = alcovefn.from_analytic(exppoly.plane_wave((0.5, -0.2)))
    want = repr(ybops.elementary_nonsymmetric_op("e_bar+", 0.3, (1,), f, LENGTH))
    assert repr(ybops.elementary_nonsymmetric_op("e_bar+", 0.3, (np.int64(1),), f, LENGTH)) == want
    for i, match in (((1.0,), "integers"), ((True, 2.0), "integers"), ((1, 1), "distinct"), ((3,), "range"), ((0,), "range")):
        with pytest.raises(ValueError, match=match):
            ybops.elementary_nonsymmetric_op("e_bar+", 0.3, i, f, LENGTH)
    assert repr(ybops.elementary_nonsymmetric_op("e_bar+", 0.3, [1], f, LENGTH)) == want


def test_arrays_integrate_plane_wave_edges_as_the_rows(monkeypatch):
    # one y between +L/2 and -L/2 handed to operand slot 2, so each alcove
    # splits it at both coordinates: coordinate and constant bounds.  Where
    # a row fails one of _rows' checks or holds a NaN or an infinity, or an
    # operand piece holds a polynomial term, the arrays hand the whole
    # application to _block_rows, once; elsewhere they make every row
    # themselves, to the bit
    plan = ybops._Plan(2, (("const", 1), ("const", -1)), (("coord", 1), ("y", 1)))
    table, prepared = ybops._Segments((plan,), all_permutations(2)), [ybops._prepare(1.0, plan, 0.0, 8.0)]
    calls = []
    block_rows = ybops._block_rows
    monkeypatch.setattr(ybops, "_block_rows", lambda *args: calls.append(args) or block_rows(*args))
    operands = [exppoly.monomial((0, 0), c, (complex(-0.0, -0.0), muj)) for muj, c in _PLANE_WAVE_EDGES]
    operands.append(exppoly.monomial((0, 1), 0.6 - 0.8j, (0.3, 1.5)) + exppoly.plane_wave((0.3, 1.5)))
    fell = []
    for p in operands:
        f = alcovefn.from_analytic(p)
        calls.clear()
        got = ybops._block_arrays(table, prepared, f, 8.0)
        fell.append(len(calls))
        assert repr(got) == repr(block_rows(table, prepared, f, 8.0)), p
    assert fell == [0, 1, 0, 0, 0, 1, 1, 1, 1, 1]
    # exp(1j mu 4) overflows: cmath raises, through the rows
    f = alcovefn.from_analytic(exppoly.monomial((0, 0), 1.0, (complex(-0.0, -0.0), 1 + 200j)))
    calls.clear()
    with pytest.raises(OverflowError):
        ybops._block_arrays(table, prepared, f, 8.0)
    assert len(calls) == 1


def test_numpy_exp_is_cmath_exp_where_the_arrays_read_it():
    # the arrays take exp(1j * mu * end) from numpy, _rows from cmath: they
    # agree to the bit on wavenumbers near the real axis and far from it,
    # signed zeros included, at real parts below 700
    rng = np.random.default_rng(7)
    count = 200_000
    z = rng.uniform(-700, 700, count) * rng.choice([0.0, 1e-3, 0.1, 1.0], count)
    z = z + 1j * rng.uniform(-1000, 1000, count) * rng.choice([1e-8, 1e-2, 1.0], count)
    z[:4] = [complex(0.0, -0.0), complex(-0.0, 0.0), complex(3.0, -0.0), complex(-0.0, -2.5)]
    assert repr(np.exp(z).tolist()) == repr([cmath.exp(v) for v in z.tolist()])


def test_large_applications_run_as_arrays_with_a_kept_segment_table(monkeypatch):
    calls = []
    for name in ("_block_rows", "_block_arrays"):
        run = getattr(ybops, name)
        monkeypatch.setattr(ybops, name, lambda *args, run=run, name=name: calls.append(name) or run(*args))
    small = wavefn.prewavefunction(RapiditySet((0.8, -0.3), GAMMA, LENGTH))
    large = wavefn.prewavefunction(RapiditySet((0.8, -0.3, 0.45), GAMMA, LENGTH))
    table = _application(*_family_blocks("b+", 3, GAMMA), 0.37, 3, LENGTH)[0]
    assert table.raw_rows(large) >= ybops.ARRAY_ROWS
    assert _application(*_family_blocks("b+", 2, GAMMA), 0.37, 2, LENGTH)[0].raw_rows(small) < ybops.ARRAY_ROWS
    ybops.apply_nonsymmetric("b+", 0.37, large, GAMMA, LENGTH)
    ybops.apply_nonsymmetric("b+", 0.37, small, GAMMA, LENGTH)
    assert calls == ["_block_arrays", "_block_rows"]
    # another mu, weight, length or operand is the same application shape,
    # with the same term counts: the table and its chunk layout are kept
    tables, layouts = ybops._table.cache_info().misses, len(table._chunks)
    other = wavefn.prewavefunction(RapiditySet((0.2, 0.9, -0.6), 0.4, 7.0))
    ybops.apply_nonsymmetric("b+", -1.1, large, 0.4, LENGTH)
    ybops.apply_nonsymmetric("b+", 0.37, other, GAMMA, 7.0)
    assert calls == ["_block_arrays", "_block_rows", "_block_arrays", "_block_arrays"]
    assert (ybops._table.cache_info().misses, len(table._chunks)) == (tables, layouts)
    assert _application(*_family_blocks("b+", 3, 0.4), -1.1, 3, 7.0)[0] is table


@pytest.mark.parametrize("family", ["a", "c+"])
def test_arrays_are_the_rows_on_a_4_particle_operand(family):
    # one chunk of thousands of raw rows, merged per alcove by their exact
    # cell keys
    f = wavefn.prewavefunction(RapiditySet((0.8, -0.45, 0.3, 1.1), GAMMA, LENGTH))
    table, prepared = _application(*_family_blocks(family, 4, GAMMA), 0.37, 4, LENGTH)
    assert table.raw_rows(f) == {"a": 32589, "c+": 9338}[family]
    assert repr(ybops._block_arrays(table, prepared, f, LENGTH)) == repr(ybops._block_rows(table, prepared, f, LENGTH))


def test_arrays_run_in_chunks_of_whole_alcoves(monkeypatch):
    # at most 50 raw rows per chunk (or one alcove): every chunk boundary
    # falls between alcoves, and the sums are those of the rows
    f = wavefn.prewavefunction(RapiditySet((0.8, -0.3, 0.45), GAMMA, LENGTH))
    for family in ("b+", "a"):
        table, prepared = _application(*_family_blocks(family, 3, GAMMA), 0.37, 3, LENGTH)
        want = repr(ybops._block_rows(table, prepared, f, LENGTH))
        for budget in (50, 1 << 15):
            monkeypatch.setattr(ybops, "_CHUNK_ROWS", budget)
            chunks = list(table.chunks(np.array([len(f._by_order[o].terms) for o, _ in table.per_term])))
            assert len(chunks) > 1 if budget == 50 else len(chunks) == 1
            assert repr(ybops._block_arrays(table, prepared, f, LENGTH)) == want


def test_plan_refuses_a_non_integer_multi_index_entry():
    assert ybops._plan("e_bar+", (np.int64(1),), 2) == ybops._plan("e_bar+", (1,), 2)
    for i in ((1.5,), (1.0,), (2, 1.0)):
        with pytest.raises(ValueError, match="integers"):
            ybops._plan("e_bar+", i, 2)


def test_insertions_refuse_a_function_of_no_particles():
    vacuum = alcovefn.build({Permutation(()): exppoly.constant(1.0, 0)})
    for insert in (ybops.insert_top, ybops.insert_bottom):
        with pytest.raises(ValueError, match="no slot to pin"):
            insert(vacuum, LENGTH)
