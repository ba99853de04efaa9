"""Quadrature and finite-difference oracles."""

import cmath
import math
import random
from itertools import combinations, permutations, product

import numpy as np
import pytest

from qnls import alcovefn, exppoly, oracle, wavefn, ybops
from qnls.oracle import QUAD_NODES, adaptive_quad
from qnls.wavefn import RapiditySet

GAMMA = 1.0
LENGTH = 10.0


def test_adaptive_quad_on_oscillatory_exponential():
    val = adaptive_quad(lambda t: cmath.exp(2.3j * t), -1.0, 4.0)
    want = (cmath.exp(2.3j * 4) - cmath.exp(-2.3j)) / 2.3j
    assert abs(val - want) < 1e-10


def test_adaptive_quad_orientation_and_breakpoints():
    fwd = adaptive_quad(lambda t: abs(t), -1.0, 1.0, breaks=(0.0,))
    assert abs(fwd - 1.0) < 1e-10
    rev = adaptive_quad(lambda t: abs(t), 1.0, -1.0, breaks=(0.0,))
    assert abs(rev + 1.0) < 1e-10


def test_adaptive_quad_subdivides_at_an_unmarked_kink():
    calls = []

    def kinked(t):
        calls.append(t)
        return abs(t - 0.3)

    val = adaptive_quad(kinked, -1.0, 1.0)
    assert abs(val - 1.09) < 1e-10
    # one step evaluates three panels; more calls mean the step subdivided
    assert len(calls) > 3 * QUAD_NODES


def test_inner_product_conjugate_symmetry():
    r = RapiditySet((0.8, -0.3), GAMMA, LENGTH)
    f = wavefn.prewavefunction(r)
    g = wavefn.bethe_wavefunction(r)
    fg = oracle.inner_product(f, g, LENGTH)
    gf = oracle.inner_product(g, f, LENGTH)
    assert abs(fg - gf.conjugate()) < 1e-8 * max(abs(fg), 1.0)


def test_inner_product_norm_positive():
    r = RapiditySet((0.8, -0.3), GAMMA, LENGTH)
    f = wavefn.prewavefunction(r)
    norm2 = oracle.inner_product(f, f, LENGTH)
    assert norm2.real > 0 and abs(norm2.imag) < 1e-8 * norm2.real


def test_quad_apply_matches_exact_generator():
    r = RapiditySet((0.8, -0.3), GAMMA, LENGTH)
    f = wavefn.prewavefunction(r)
    mu = 0.37
    exact = ybops.apply_nonsymmetric("a", mu, f, GAMMA, LENGTH)
    for x in alcovefn.sample_interior(2, 4, LENGTH):
        q = oracle.quad_apply("a", mu, f, GAMMA, LENGTH, x)
        assert abs(exact.eval(x) - q) < 1e-7 * max(abs(q), 1.0)


def test_fd_derivative_matches_exact():
    r = RapiditySet((0.8, -0.3), GAMMA, LENGTH)
    f = wavefn.prewavefunction(r)
    d1 = alcovefn.afn_derivative(f, 1)
    for x in alcovefn.sample_interior(2, 6, LENGTH):
        assert abs(oracle.fd_derivative(f, 1, x) - d1.eval(x)) < 1e-9


def test_fd_derivative_refuses_wall_crossing():
    r = RapiditySet((0.8, -0.3), GAMMA, LENGTH)
    f = wavefn.prewavefunction(r)
    with pytest.raises(ValueError):
        oracle.fd_derivative(f, 1, (0.2, 0.2 + 1e-6))


@pytest.mark.parametrize("j", (0, 3))
def test_fd_derivative_refuses_a_coordinate_outside_one_to_n(j):
    f = wavefn.prewavefunction(RapiditySet((0.8, -0.3), GAMMA, LENGTH))
    with pytest.raises(ValueError, match="out of range"):
        oracle.fd_derivative(f, j, (0.2, -0.4))


def test_nesting_cap_enforced():
    lam = tuple(0.2 * j for j in range(1, oracle.QUAD_NEST_CAP + 2))
    f = alcovefn.from_analytic(exppoly.plane_wave(lam))
    with pytest.raises(ValueError):
        oracle.inner_product(f, f, LENGTH)


def _pointwise_elementary(kind, mu, i, f, x):
    """The elementary quadrature nested one node at a time: adaptive_quad
    at every level, f evaluated point by point."""
    lay = oracle._layout_elementary(kind, mu, i, f.n, len(x), LENGTH)(x)

    def nest(m, ys):
        if m > len(lay.levels) - 1:
            phase = cmath.exp(-1j * lay.mu * sum(ys))
            return lay.scalar * lay.x_phase * phase * f.eval(lay.args(ys))
        return adaptive_quad(lambda t: nest(m + 1, ys + (t,)), lay.levels[m], lay.levels[m - 1], x)

    return nest(1, ())


@pytest.mark.parametrize(
    "kind, i, route, x, integrals",
    [
        # the inner integral is split at x_3
        ("E_bar+", (1, 2), "bethe", (2.4, -0.7, -3.1), 2),
        ("e_check+", (1, 2), "pre", (1.3, -2.1), 3),
    ],
)
def test_batched_elementary_matches_pointwise_nesting(kind, i, route, x, integrals):
    r = RapiditySet((0.8, -0.3, 0.45), GAMMA, LENGTH)
    f = wavefn.prewavefunction(r) if route == "pre" else wavefn.bethe_wavefunction(r)
    assert len(oracle._layout_elementary(kind, 0.37, i, f.n, len(x), LENGTH)(x).levels) - 1 == integrals
    batched = oracle.quad_elementary(kind, 0.37, i, f, LENGTH, x)
    pointwise = _pointwise_elementary(kind, 0.37, i, f, x)
    assert abs(batched - pointwise) <= 1e-12 * abs(pointwise)


def test_each_row_of_a_batch_is_accepted_on_its_own_error():
    def smooth(t):
        return np.exp(2.3j * t)

    def kinked(t):
        return np.abs(t - 0.3) + 0j

    nodes = {0: 0, 1: 0}

    def batch(rows, ts):
        for r, row in zip(rows, ts):
            nodes[r] += len(row)
        return np.array([(smooth if r == 0 else kinked)(row) for r, row in zip(rows, ts)])

    both = oracle._adaptive(batch, np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    for value, func in zip(both, (smooth, kinked)):
        alone = adaptive_quad(func, -1.0, 1.0)
        assert abs(value - alone) <= oracle.QUAD_RTOL * abs(alone)
    # the smooth row passed its first step; only the kinked one was halved
    assert nodes[0] == 3 * QUAD_NODES < nodes[1]


def test_integrand_calls_stay_under_the_batch_ceiling(monkeypatch):
    sizes = []
    eval_many = alcovefn.AlcoveFunction.eval_many

    def counted(self, points, side=None):
        sizes.append(len(points))
        return eval_many(self, points, side)

    monkeypatch.setattr(alcovefn.AlcoveFunction, "eval_many", counted)
    r = RapiditySet((0.8, -0.3, 0.45), GAMMA, LENGTH)
    f = wavefn.prewavefunction(r)
    oracle.quad_apply("c+", 0.37, f, GAMMA, LENGTH, (1.3, -2.1))
    g = wavefn.prewavefunction(RapiditySet((0.8, -0.3), GAMMA, LENGTH))
    oracle.inner_product(g, g, LENGTH)
    # rows of outer nodes share calls, and no call passes the ceiling
    assert 3 * QUAD_NODES < max(sizes) <= oracle.QUAD_BATCH_POINTS


def _reference_layout(kind, mu, i, N, x, length):
    """The layouts as ten hand-written branches, one per kind: the table
    in oracle._layout_elementary must reproduce them bit for bit."""
    k = len(i)
    half = length / 2
    if kind == "e_hat-":
        levels = (x[N],) + tuple(x[p - 1] for p in i)
        coords = [x[N]] + [x[p - 1] for p in i]

        def args(ys):
            return tuple(ys[i.index(r)] if r in i else x[r - 1] for r in range(1, N + 1))
    elif kind == "e_hat+":
        levels = tuple(x[p] for p in i) + (x[0],)
        coords = [x[0]] + [x[p] for p in i]

        def args(ys):
            return tuple(ys[i.index(r)] if r in i else x[r] for r in range(1, N + 1))
    elif kind in ("e_bar+", "e_bar-"):
        body = tuple(x[p - 1] for p in i)
        levels = body + (-half,) if kind == "e_bar+" else (half,) + body
        coords = list(body)

        def args(ys):
            return tuple(ys[i.index(r)] if r in i else x[r - 1] for r in range(1, N + 1))
    elif kind in ("e_check+", "e_check-"):
        levels = (half,) + tuple(x[p - 1] for p in i) + (-half,)
        coords = [x[p - 1] for p in i]
        if kind == "e_check+":

            def args(ys):
                own = tuple(ys[i.index(r) + 1] if r in i else x[r - 1] for r in range(1, N))
                return own + (ys[0],)
        else:

            def args(ys):
                return (ys[k],) + tuple(ys[i.index(r)] if r in i else x[r - 1] for r in range(1, N))
    else:
        out_n = {"E_hat": N + 1, "E_bar+": N, "E_bar-": N, "E_check": N - 1}[kind]
        body = tuple(x[p - 1] for p in i)
        levels = {
            "E_hat": body, "E_bar+": body + (-half,), "E_bar-": (half,) + body,
            "E_check": (half,) + body + (-half,),
        }[kind]
        coords = list(body)
        rest = [r for r in range(1, out_n + 1) if r not in i]

        def args(ys):
            return tuple(x[r - 1] for r in rest) + tuple(ys)
    scalar = 1.0 + 0j
    if kind in ("e_bar+", "E_bar+"):
        scalar = cmath.exp(-1j * mu * half)
    elif kind in ("e_bar-", "E_bar-"):
        scalar = cmath.exp(1j * mu * half)
    return levels, args, cmath.exp(1j * mu * sum(coords)), scalar


def test_layout_table_matches_the_hand_written_layouts():
    rng = random.Random(15)
    mu = 0.37 - 0.05j
    # kind -> (output minus input particle number, multi-index choice, index range)
    kinds = {
        "e_hat+": (1, permutations, 0), "e_hat-": (1, permutations, 0),
        "e_bar+": (0, permutations, 0), "e_bar-": (0, permutations, 0),
        "e_check+": (-1, permutations, -1), "e_check-": (-1, permutations, -1),
        "E_hat": (1, combinations, 1), "E_bar+": (0, combinations, 0),
        "E_bar-": (0, combinations, 0), "E_check": (-1, combinations, -1),
    }
    cases = 0
    # ten seeded points per (N, kind): a reordered sum shows at some of them
    for N, kind, _ in product((1, 2, 3), kinds, range(10)):
        dn, choose, dtop = kinds[kind]
        x = tuple(rng.uniform(-LENGTH / 2, LENGTH / 2) for _ in range(N + dn))
        top = N + dtop
        # E_hat takes at least one index
        for k in range(kind == "E_hat", top + 1):
            for i in choose(range(1, top + 1), k):
                levels, args, x_phase, scalar = _reference_layout(kind, mu, i, N, x, LENGTH)
                lay = oracle._layout_elementary(kind, mu, i, N, len(x), LENGTH)(x)
                ys = tuple(rng.uniform(-LENGTH / 2, LENGTH / 2) for _ in levels[1:])
                # repr tells every double apart, the sign of a zero too
                assert repr(lay.levels) == repr(levels), (kind, i)
                assert repr(lay.args(ys)) == repr(args(ys)), (kind, i)
                assert repr((lay.x_phase, lay.scalar)) == repr((x_phase, scalar)), (kind, i)
                cases += 1
    assert cases == 1680


def test_unknown_kind_and_family_refused():
    f = alcovefn.from_analytic(exppoly.plane_wave((0.5,)))
    with pytest.raises(ValueError, match="kind"):
        oracle.quad_elementary("e_tilde+", 0.37, (1,), f, LENGTH, (0.1,))
    with pytest.raises(ValueError, match="family"):
        oracle.quad_apply("e", 0.37, f, GAMMA, LENGTH, (0.1,))


@pytest.mark.parametrize(
    "kind, i",
    [
        ("e_bar+", (0,)),  # unchecked, index 0 reads x[-1], the last coordinate
        ("e_bar+", (1, 1)),
        ("e_bar+", (5,)),
        ("e_hat+", (3,)),  # e_hat+ indexes the two input coordinates
        ("E_bar+", (2, 1)),
    ],
)
def test_bad_multi_index_refused(kind, i):
    # the rules ybops applies: distinct entries in 1..top, increasing for
    # the symmetric kinds
    f = alcovefn.from_analytic(exppoly.plane_wave((0.5, -0.2)))
    x = (1.0, -2.0, 0.5) if kind == "e_hat+" else (1.0, -2.0)
    with pytest.raises(ValueError, match="multi-index"):
        oracle.quad_elementary(kind, 0.3, i, f, 10.0, x)
    with pytest.raises(ValueError, match="multi-index"):
        ybops._plan(kind, 0.3, i, f.n)


def test_non_integer_multi_index_entry_refused():
    # 1.0 passes the range check and would index as 1; a numpy integer is kept
    f = alcovefn.from_analytic(exppoly.plane_wave((0.5, -0.2)))
    x = (1.0, -2.0)
    want = oracle.quad_elementary("e_bar+", 0.3, (1,), f, 10.0, x)
    assert oracle.quad_elementary("e_bar+", 0.3, (np.int64(1),), f, 10.0, x) == want
    for i in ((1.5,), (1.0,), (2, 1.0)):
        with pytest.raises(ValueError, match="integers"):
            oracle.quad_elementary("e_bar+", 0.3, i, f, 10.0, x)


def _reference_quad_rows(batch, count, a, b, breaks=()):
    """The reference _quad_rows: count rows over one interval (a, b), one
    _adaptive call per sub-interval between cuts."""
    if a == b:
        return np.zeros(count, dtype=complex)
    sign = 1.0
    if a > b:
        a, b, sign = b, a, -1.0
    cuts = sorted({a, b, *(t for t in breaks if a < t < b)})
    total = np.zeros(count, dtype=complex)
    for lo, hi in zip(cuts, cuts[1:]):
        total += oracle._adaptive(batch, np.full(count, lo), np.full(count, hi))
    return sign * total


def _reference_quad_elementary(kind, mu, i, f, length, x):
    """The reference elementary quadrature: one layout at a time, nested by
    a level closure over that layout alone."""
    lay = oracle._layout_elementary(kind, mu, tuple(i), f.n, len(x), length)(tuple(x))
    n_y = len(lay.levels) - 1
    if any(lay.levels[m] >= lay.levels[m - 1] for m in range(1, len(lay.levels))):
        return 0.0 + 0j
    if n_y == 0:
        return lay.scalar * lay.x_phase * f.eval(lay.args(()))

    def level(m, outer):
        def batch(rows, ts):
            ys = oracle._extend(outer, rows, ts)
            if m < n_y:
                return level(m + 1, ys).reshape(ts.shape)
            phase = np.exp(-1j * lay.mu * sum(ys.T))
            values = f.eval_many(oracle._points(lay.args(tuple(ys.T)), len(ys)))
            return (lay.scalar * lay.x_phase * phase * values).reshape(ts.shape)

        return _reference_quad_rows(batch, len(outer), lay.levels[m], lay.levels[m - 1], tuple(x))

    return complex(level(1, np.empty((1, 0)))[0])


def _reference_quad_apply(family, mu, f, gamma, length, x):
    """The reference generator quadrature: one point, one elementary
    quadrature per multi-index, summed in (n, i) order."""
    x = tuple(x)
    if family == "a":
        return _reference_quad_apply("b+", mu, f, gamma, length, (-length / 2,) + x)
    if family == "d":
        return _reference_quad_apply("b-", mu, f, gamma, length, x + (length / 2,))
    N = f.n
    kind, indices, top, extra, scalar = {
        "b+": ("e_hat+", permutations, N, 0, 1.0),
        "b-": ("e_hat-", permutations, N, 0, 1.0),
        "c+": ("e_check+", permutations, N - 1, 0, 1.0),
        "c-": ("e_check-", permutations, N - 1, 0, 1.0),
        "A": ("E_bar+", combinations, N, 0, 1.0),
        "B": ("E_hat", combinations, N + 1, 1, 1.0 / (N + 1)),
        "C": ("E_check", combinations, N - 1, 0, float(N)),
        "D": ("E_bar-", combinations, N, 0, 1.0),
    }[family]
    if indices is combinations:
        x = tuple(sorted(x, reverse=True))
    return scalar * sum(
        (
            gamma**n * _reference_quad_elementary(kind, mu, i, f, length, x)
            for n in range(top - extra + 1)
            for i in indices(range(1, top + 1), n + extra)
        ),
        0j,
    )


# family -> output particle number minus input, and whether it acts on the
# pre-wavefunction (else on the Bethe wavefunction)
FAMILIES = {
    "b+": (1, True), "b-": (1, True), "a": (0, True), "d": (0, True),
    "c+": (-1, True), "c-": (-1, True),
    "A": (0, False), "B": (1, False), "C": (-1, False), "D": (0, False),
}


@pytest.mark.parametrize(
    "gamma, lam, count",
    [
        (1.3, (0.8, -0.3), 3),
        (-0.7, (0.8, -0.3), 3),
        (0.0, (0.8, -0.3), 3),
        # three-integral layouts in every family
        (1.3, (0.8, -0.3, 0.45), 1),
    ],
)
def test_batched_generators_are_the_per_layout_engine_to_the_bit(monkeypatch, gamma, lam, count):
    layouts = []
    build = oracle._layout_elementary

    def recorded(*args):
        bind = build(*args)

        def bound(x):
            layouts.append(bind(x))
            return layouts[-1]

        return bound

    r = RapiditySet(lam, gamma, LENGTH)
    pre, bethe = wavefn.prewavefunction(r), wavefn.bethe_wavefunction(r)
    for family, (dn, on_pre) in FAMILIES.items():
        f = pre if on_pre else bethe
        xs = alcovefn.sample_interior(f.n + dn, count, LENGTH, seed=len(layouts))
        monkeypatch.setattr(oracle, "_layout_elementary", recorded)
        got = oracle.quad_apply_many(family, 0.37, f, gamma, LENGTH, xs)
        monkeypatch.setattr(oracle, "_layout_elementary", build)
        want = [_reference_quad_apply(family, 0.37, f, gamma, LENGTH, x) for x in xs]
        # repr tells every double apart, the sign of a zero too
        assert repr(got) == repr(want), family
        assert repr(oracle.quad_apply(family, 0.37, f, gamma, LENGTH, xs[0])) == repr(want[0])

    def split(lay):
        pairs = zip(lay.levels[1:], lay.levels)
        return any(a < t < b for a, b in pairs for t in lay.x)

    decreasing = [
        lay for lay in layouts if all(b > a for a, b in zip(lay.levels[1:], lay.levels))
    ]
    # zero chains, layouts without an integral and split intervals all ran
    assert len(decreasing) < len(layouts)
    assert any(len(lay.levels) == 1 for lay in decreasing)
    assert any(split(lay) for lay in decreasing)
    if len(lam) == 3:
        assert any(len(lay.levels) == 4 for lay in decreasing)


def test_rows_of_many_intervals_are_each_interval_alone_to_the_bit():
    # forward, backward and empty intervals, breakpoints inside, outside
    # and on an end, repeated and of either zero sign
    intervals = [
        (-1.0, 1.0, (0.3,)),
        (1.0, -1.0, (0.3, -0.4)),
        (0.5, 0.5, (0.5,)),
        (-2.0, 0.7, (0.7, -2.0, 5.0)),
        (0.9, -0.2, (0.0, -0.0, 0.0, 0.4)),
        (-0.3, -0.3 + 1e-9, ()),
    ]
    lay = np.array([3, 0, 5, 1, 2, 4, 1, 0])

    def integrand(t):
        return np.abs(t - 0.3) * np.exp(1.7j * t) + 1 / (3.1 + t)

    def batch(rows, ts):
        return integrand(ts)

    got = oracle._quad_rows(batch, lay, oracle._segments(intervals))
    for value, l in zip(got, lay):
        a, b, breaks = intervals[l]
        want = _reference_quad_rows(batch, 1, a, b, breaks)[0]
        assert repr(complex(value)) == repr(complex(want)), intervals[l]
    assert repr(adaptive_quad(integrand, 1.0, -1.0, (0.3,))) == repr(
        complex(_reference_quad_rows(batch, 1, 1.0, -1.0, (0.3,))[0])
    )


@pytest.mark.parametrize(
    "family, x",
    [
        ("b+", (1.0, -2.0)),  # too short for the index range
        ("b+", (1.0, -2.0, 0.5, 3.0)),  # wrong sizes the layouts would accept
        ("c+", (1.0, -2.0)),
        ("a", (1.0, -2.0, 0.5)),
        ("B", (1.0, -2.0)),
        ("C", ()),
        ("A", (1.0, math.nan)),  # no step on a NaN interval ever converges
        ("c-", (math.inf,)),
        ("d", (-math.inf, 0.5)),
    ],
)
def test_quad_apply_refuses_a_point_it_cannot_take(monkeypatch, family, x):
    r = RapiditySet((0.8, -0.3), GAMMA, LENGTH)
    f = wavefn.prewavefunction(r) if family.islower() else wavefn.bethe_wavefunction(r)

    def no_quadrature(*args):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(oracle, "_quad_layouts", no_quadrature)
    with pytest.raises(ValueError, match="coordinate"):
        oracle.quad_apply(family, 0.37, f, GAMMA, LENGTH, x)
    # a bad point after good ones is refused before any of them runs
    good = alcovefn.sample_interior(f.n + FAMILIES[family][0], 2, LENGTH)
    with pytest.raises(ValueError, match="coordinate"):
        oracle.quad_apply_many(family, 0.37, f, GAMMA, LENGTH, good + [x])


def test_generators_on_the_vacuum_take_the_empty_point():
    vacuum = alcovefn.from_analytic(exppoly.constant(1.0, 0))
    for family in ("c+", "c-", "C"):
        assert oracle.quad_apply(family, 0.37, vacuum, GAMMA, LENGTH, ()) == 0
    exact = ybops.apply_nonsymmetric("b+", 0.37, vacuum, GAMMA, LENGTH)
    q = oracle.quad_apply("b+", 0.37, vacuum, GAMMA, LENGTH, (1.2,))
    assert abs(q - exact.eval((1.2,))) < 1e-9
