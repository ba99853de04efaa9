"""Lattice-operator layer: R-matrix, generators, quantum determinant."""

import math

import pytest

from qnls import alcovefn, exppoly, oracle, wavefn, ybops
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


def test_particle_cap_enforced():
    lam = tuple(0.3 * j for j in range(1, ybops.PARTICLE_CAP + 2))
    f = alcovefn.from_analytic(exppoly.plane_wave(lam))
    with pytest.raises(ValueError):
        ybops.apply_nonsymmetric("a", 0.2, f, GAMMA, LENGTH)
