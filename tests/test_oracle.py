"""Quadrature and finite-difference oracles."""

import cmath

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
