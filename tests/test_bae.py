"""Bethe-equation solver, action, eigenvalues, asymptotics."""

import json
import math

import numpy as np
import pytest

from qnls import bae
from qnls.bae import QuantumNumbers


def test_quantum_number_parity_rules():
    QuantumNumbers((2, 0, -2))  # N=3: integers
    QuantumNumbers((3, 1))  # N=2: half-integers
    with pytest.raises(ValueError):
        QuantumNumbers((2, 1))  # mixed parity
    with pytest.raises(ValueError):
        QuantumNumbers((1, 1))  # repeated
    assert QuantumNumbers.from_values([1.5, 0.5]).twice_n == (3, 1)
    with pytest.raises(ValueError):
        QuantumNumbers.from_values([0.3])


def test_single_particle_solution_is_free():
    r = bae.solve_bae(QuantumNumbers((2,)), 1.0, 10.0)
    assert abs(r.lam[0] - 2 * math.pi / 10.0) < 1e-12


def test_solver_frozen_two_particle_solution():
    r = bae.solve_bae(QuantumNumbers((3, 1)), 2.0, 10.0)
    assert abs(r.lam[0].real - 0.8910860740165383) < 1e-10
    assert abs(r.lam[1].real - 0.36555098741937897) < 1e-10
    assert bae.solve_bae.last_iterations <= 15


def test_residuals_vanish_on_shell():
    for gamma in (0.5, 2.0):
        for twice in ((3, 1), (4, 0, -2), (4, 2, 0, -2, -4)):
            n = QuantumNumbers(twice)
            r = bae.solve_bae(n, gamma, 10.0)
            assert max(abs(v) for v in bae.bae_residual(r.lam, gamma, 10.0)) < 1e-10
            real = [v.real for v in r.lam]
            assert all(abs(v.imag) < 1e-14 for v in r.lam)
            assert real == sorted(real, reverse=True)
            total = sum(real) - (2 * math.pi / 10.0) * sum(n.values())
            assert abs(total) < 1e-9


def test_gradient_is_log_residual():
    n = QuantumNumbers((4, 0, -2))
    lam = [0.9, 0.1, -0.6]
    _, grad, hess = bae.yang_yang(lam, 1.5, 10.0, n)
    log_res = bae.log_bae_residual(lam, 1.5, 10.0, n)
    assert np.allclose(grad, log_res, atol=0)
    # Hessian positive definite in the repulsive regime
    assert np.all(np.linalg.eigvalsh(hess) > 0)


def test_quantum_number_equivariance():
    fwd = bae.solve_bae(QuantumNumbers((3, -1)), 1.0, 10.0)
    rev = bae.solve_bae(QuantumNumbers((-1, 3)), 1.0, 10.0)
    assert abs(fwd.lam[0] - rev.lam[1]) < 1e-12
    assert abs(fwd.lam[1] - rev.lam[0]) < 1e-12


def test_transfer_eigenvalue_continuous_at_rapidity():
    r = bae.solve_bae(QuantumNumbers((3, 1)), 1.0, 10.0)
    lam0 = r.lam[0]
    near = bae.transfer_eigenvalue(lam0 + 0.5 * bae.DIAGONAL_SWITCH, r)
    far = bae.transfer_eigenvalue(lam0 + 2.0 * bae.DIAGONAL_SWITCH, r)
    at = bae.transfer_eigenvalue(lam0, r)
    assert abs(near - at) < 1e-4 * abs(at)
    assert abs(far - at) < 1e-4 * abs(at)


def test_asymptotic_residual_decays_fourth_order():
    r = bae.solve_bae(QuantumNumbers((3, 1)), 1.0, 10.0)
    report = bae.asymptotic_check(r)
    assert 0.5e-4 < report["ratio"] < 2e-4


def test_json_round_trip():
    r = bae.solve_bae(QuantumNumbers.from_values((0.5, -0.5)), 1.0, 10.0)
    text = bae.solution_to_json(r, 1e-13, 3)
    data = json.loads(text)
    assert data["iterations"] == 3
    assert len(data["lambda"]) == 2


def test_rapidity_set_refuses_bad_length():
    # an infinite or NaN length made the on-shell check vacuous
    for length in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            bae.RapiditySet((0.3,), 1.0, length, on_shell=True)


def test_attractive_regime_rejected():
    with pytest.raises(ValueError):
        bae.solve_bae(QuantumNumbers((3, 1)), -1.0, 10.0)
