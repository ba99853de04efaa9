"""Quadrature and finite-difference oracles."""

import cmath

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


def test_nesting_cap_enforced():
    lam = tuple(0.2 * j for j in range(1, oracle.QUAD_NEST_CAP + 2))
    f = alcovefn.from_analytic(exppoly.plane_wave(lam))
    with pytest.raises(ValueError):
        oracle.inner_product(f, f, LENGTH)


def _pointwise_elementary(kind, mu, i, f, x):
    """The elementary quadrature nested one node at a time: adaptive_quad
    at every level, f evaluated point by point."""
    lay = oracle._layout_elementary(kind, mu, i, f.n, x, LENGTH)

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
    assert len(oracle._layout_elementary(kind, 0.37, i, f.n, x, LENGTH).levels) - 1 == integrals
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
