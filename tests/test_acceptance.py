"""Acceptance gate: one test per release criterion, with tolerances
pinned in the assertions.  Each test reads as one pass/fail line in the
verbose run log."""

import cmath
import math
import random
import time

from qnls import alcovefn, bae, cli, oracle, wavefn, ybops
from qnls.bae import QuantumNumbers
from qnls.wavefn import RapiditySet

LENGTH = 10.0
SEED = 7


def _seeded_complex_lambda(n: int, tag: int) -> tuple[complex, ...]:
    rng = random.Random((SEED << 8) ^ (n * 7919 + tag))
    while True:
        lam = tuple(
            complex(rng.uniform(-1.6, 1.6), rng.uniform(-0.3, 0.3))
            for _ in range(n)
        )
        gaps = [abs(lam[a] - lam[b]) for a in range(n) for b in range(a + 1, n)]
        if not gaps or min(gaps) > 0.2:
            return lam


def _records(suite: str, max_n: int = 3, gamma: float = 1.0) -> list[dict]:
    return cli.run_suite(suite, max_n, gamma, LENGTH, alcovefn.DEFAULT_SEED)


def test_criterion_01_route_equivalence():
    start = time.monotonic()
    worst = 0.0
    for n in (2, 3, 4):
        points = alcovefn.sample_interior(n, 50, LENGTH)
        for gamma in (-0.7, 1.3):
            for tag in range(5):
                r = RapiditySet(_seeded_complex_lambda(n, tag), gamma, LENGTH)
                worst = max(
                    worst,
                    wavefn.assert_routes_agree(r, "pre", points, tol=1e-9),
                    wavefn.assert_routes_agree(r, "bethe", points, tol=1e-9),
                )
    assert worst < 1e-9
    assert time.monotonic() - start < 20.0


def test_criterion_02_qnls_eigen_problem():
    for n in (2, 3):
        r = RapiditySet(_seeded_complex_lambda(n, 20), 1.3, LENGTH)
        for F, with_dunkl in (
            (wavefn.prewavefunction(r), True),
            (wavefn.bethe_wavefunction(r), False),
        ):
            rep = wavefn.verify_qnls(F, r, check_dunkl=with_dunkl, samples_per_wall=10)
            assert rep["max_residual"] < 1e-9, rep


def test_criterion_03_dunkl_system():
    gamma = 1.3
    for n in (2, 3):
        r = RapiditySet(_seeded_complex_lambda(n, 21), gamma, LENGTH)
        psi = wavefn.prewavefunction(r)
        for j in range(1, n + 1):
            exact = alcovefn.dunkl(psi, j, gamma)
            want = alcovefn.afn_scale(1j * r.lam[j - 1], psi)
            d_exact = alcovefn.afn_derivative(psi, j)
            for x in alcovefn.sample_interior(n, 10, LENGTH):
                assert abs(exact.eval(x) - want.eval(x)) < 1e-9
                # finite-difference replacement of the derivative part
                fd = oracle.fd_derivative(psi, j, x)
                nonderiv = exact.eval(x) - d_exact.eval(x)
                assert abs(fd + nonderiv - want.eval(x)) < 1e-5


def test_criterion_04_bae_solver():
    for gamma in (0.5, 2.0):
        for twice in ((3, 1), (4, 0, -2)):
            n = QuantumNumbers(twice)
            start = time.monotonic()
            r = bae.solve_bae(n, gamma, LENGTH)
            assert time.monotonic() - start < 1.0
            assert bae.solve_bae.last_iterations <= 15
            assert max(abs(v) for v in bae.bae_residual(r.lam, gamma, LENGTH)) < 1e-10
            real = [v.real for v in r.lam]
            assert all(abs(v.imag) < 1e-12 for v in r.lam)
            assert real == sorted(real, reverse=True)
            assert abs(sum(real) - (2 * math.pi / LENGTH) * sum(n.values())) < 1e-9


def test_criterion_05_aba_on_shell():
    gamma = 1.0
    for twice in ((3, 1), (4, 0, -2)):
        r = bae.solve_bae(QuantumNumbers(twice), gamma, LENGTH)
        n = r.n
        Psi = wavefn.bethe_wavefunction(r)
        points = alcovefn.sample_interior(n, 30, LENGTH)
        scale = max(abs(Psi.eval(x)) for x in points)
        for mu in (0.31, -0.83, 1.27, 2.9, -2.2):
            applied = ybops.transfer(mu, Psi, gamma, LENGTH)
            tau = bae.transfer_eigenvalue(mu, r)
            worst = max(abs(applied.eval(x) - tau * Psi.eval(x)) for x in points)
            assert worst < 1e-8 * scale
        assert wavefn.check_periodicity(Psi, r)["max_residual"] < 1e-8
        # negative control: the non-symmetric pre-wavefunction is not periodic
        psi = wavefn.prewavefunction(r)
        assert wavefn.check_periodicity(psi, r)["max_residual"] > 1e-3


def test_criterion_06_off_shell_operator_expansions():
    wanted = {
        "diagonal-action-raising",
        "diagonal-action-lowering",
        "offdiagonal-action-lowering",
    }
    recs = [r for r in _records("ABA") if r["identity_id"] in wanted]
    assert {r["n"] for r in recs} == {2, 3}
    for rec in recs:
        assert rec["max_residual"] < 1e-8, rec


def test_criterion_07_quantum_determinant():
    gamma = 1.0
    for rec in _records("Q-operator"):
        if rec["identity_id"] == "quantum-determinant-eigenvalue":
            assert rec["max_residual"] < 1e-8, rec
    # spot check: the quantum determinant commutes with a diagonal generator
    r = RapiditySet(_seeded_complex_lambda(2, 22), gamma, LENGTH)
    Psi = wavefn.bethe_wavefunction(r)
    nu, mu = 0.52, -0.73
    lhs = ybops.apply_symmetric(
        "A", nu, ybops.qdet(mu, Psi, gamma, LENGTH), gamma, LENGTH
    )
    rhs = ybops.qdet(
        mu, ybops.apply_symmetric("A", nu, Psi, gamma, LENGTH), gamma, LENGTH
    )
    points = alcovefn.sample_interior(2, 10, LENGTH)
    scale = max(abs(Psi.eval(x)) for x in points)
    assert max(abs(lhs.eval(x) - rhs.eval(x)) for x in points) < 1e-8 * scale


def test_criterion_08_yang_baxter_relations():
    for rec in _records("nonsymmetric-YBA", max_n=2):
        tol = 1e-13 if rec["identity_id"] == "r-matrix-yang-baxter" else 1e-8
        assert rec["max_residual"] < tol, rec


def test_criterion_09_daha_representation_axioms():
    for rec in _records("dAHA-axioms", max_n=4) + _records("appendix-A", max_n=4):
        assert rec["max_residual"] < 1e-9, rec
    for rec in _records("appendix-B"):
        tol = 1e-6 if rec["identity_id"] == "elementary-adjointness" else 1e-9
        assert rec["max_residual"] < tol, rec


def test_criterion_10_oracle_independence():
    for rec in _records("oracle-crosscheck"):
        assert rec["max_residual"] < 1e-6, rec
    adjoint = [
        r for r in _records("appendix-B")
        if r["identity_id"] == "elementary-adjointness"
    ]
    assert adjoint and all(r["max_residual"] < 1e-6 for r in adjoint)


def test_criterion_11_degenerate_limit():
    gamma = 1.0
    rd = RapiditySet((0.5, 0.5), gamma, LENGTH)
    F = wavefn.prewavefunction_degenerate(rd)
    ref = wavefn.prewavefunction_coincident_pair(0.5, gamma)
    worst = max(
        abs(F.eval(x) - ref.eval(x)) for x in alcovefn.sample_interior(2, 20, LENGTH)
    )
    assert worst < 1e-6


def test_criterion_12_q_operator():
    gamma = 1.0
    r = bae.solve_bae(QuantumNumbers((3, 1)), gamma, LENGTH)
    for mu in (0.41, -0.93, 2.17):
        tau = bae.transfer_eigenvalue(mu, r)
        lhs = tau * ybops.q_operator_scalar(mu, r.lam)
        rhs = cmath.exp(-1j * mu * LENGTH / 2) * ybops.q_operator_scalar(
            mu + 1j * gamma, r.lam
        ) + cmath.exp(1j * mu * LENGTH / 2) * ybops.q_operator_scalar(
            mu - 1j * gamma, r.lam
        )
        assert abs(lhs - rhs) < 1e-10 * max(abs(lhs), 1.0)
    Psi = wavefn.bethe_wavefunction(r)
    points = alcovefn.sample_interior(2, 10, LENGTH)
    scale = max(abs(Psi.eval(x)) for x in points)
    for j in range(2):
        out = ybops.q_operator_apply(Psi, r.lam[j], gamma)
        assert max(abs(out.eval(x)) for x in points) < 1e-10 * scale


def test_criterion_13_asymptotics():
    r = bae.solve_bae(QuantumNumbers((3, 1)), 1.0, LENGTH)
    report = bae.asymptotic_check(r, mu_scales=(1e2, 1e3))
    # fourth-order decay: residual ratio about 1e-4 across a tenfold step
    assert 0.5e-4 < report["ratio"] < 2e-4


def test_full_verify_runtime_budget(tmp_path):
    start = time.monotonic()
    assert cli.main(["verify", "--out", str(tmp_path / "all.jsonl")]) == 0
    assert time.monotonic() - start < 120.0
