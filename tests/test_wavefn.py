"""Wavefunction constructions: routes, eigen checks, degenerate limits."""

import json

import pytest

from qnls import alcovefn, momrep, wavefn
from qnls.wavefn import RapiditySet, RouteMismatchError

GAMMA = 1.3
LENGTH = 10.0
LAM2 = (0.8, -0.45)
LAM3 = (1.1, 0.2, -0.7)
LAM4 = (1.3 + 0.1j, 0.4 - 0.2j, -0.3 + 0.05j, -1.2 - 0.1j)


def test_rapidity_set_validation():
    r = RapiditySet(LAM2, GAMMA, LENGTH)
    assert r.n == 2 and r.is_regular()
    with pytest.raises(ValueError):
        RapiditySet(LAM2, GAMMA, LENGTH, on_shell=True)  # off-shell data
    with pytest.raises(ValueError):
        RapiditySet(LAM2, GAMMA, -1.0)


def test_pre_routes_agree():
    for lam in (LAM2, LAM3):
        r = RapiditySet(lam, GAMMA, LENGTH)
        assert wavefn.assert_routes_agree(r, "pre") < wavefn.ROUTE_TOL


def test_bethe_routes_agree():
    for lam in (LAM2, LAM3):
        r = RapiditySet(lam, GAMMA, LENGTH)
        assert wavefn.assert_routes_agree(r, "bethe") < wavefn.ROUTE_TOL


def test_injected_sign_flip_is_detected(monkeypatch):
    # mutation check: corrupting the gamma-dependent weight must trip the
    # route comparison, otherwise the cross-validation has no teeth
    orig = momrep.coeff_G
    monkeypatch.setattr(momrep, "coeff_G", lambda lam, g: -orig(lam, g))
    for lam in (LAM2, LAM3):
        r = RapiditySet(lam, GAMMA, LENGTH)
        with pytest.raises(RouteMismatchError) as err:
            wavefn.assert_routes_agree(r, "bethe")
        # the coefficient dump must stay valid JSON however many terms the
        # pieces hold; cut pieces account for every term they dropped
        dump = json.loads(str(err.value).split("pieces: ", 1)[1])
        assert set(dump) == set(wavefn.BETHE_ROUTES)
        for name, blob in dump.items():
            F = wavefn.bethe_wavefunction(r, name)
            for sigma, piece in F.pieces.items():
                got = blob["pieces"][",".join(map(str, sigma.images))]
                assert len(got["terms"]) <= wavefn.DUMP_TERMS_PER_PIECE
                kept = len(got["terms"]) + got.get("truncated", 0)
                assert kept == len(piece.terms)


def test_orbit_route_keeps_pieces_within_orbit_size():
    # each piece is a combination of the 4! plane waves on the orbit of lam
    for gamma in (-0.7, GAMMA):
        psi = wavefn.prewavefunction(RapiditySet(LAM4, gamma, LENGTH), "orbit")
        assert max(len(p.terms) for p in psi.pieces.values()) <= 24


def test_eigen_system_prewavefunction():
    r = RapiditySet(LAM3, GAMMA, LENGTH)
    rep = wavefn.verify_qnls(wavefn.prewavefunction(r), r)
    assert rep["pass"] and rep["max_residual"] < 1e-9
    names = {c["check"] for c in rep["checks"]}
    assert names == {"laplace_eigen", "derivative_jumps", "dunkl_eigen"}


def test_eigen_system_bethe_wavefunction():
    r = RapiditySet(LAM3, GAMMA, LENGTH)
    rep = wavefn.verify_qnls(wavefn.bethe_wavefunction(r), r, check_dunkl=False)
    assert rep["pass"] and rep["max_residual"] < 1e-9


def test_bethe_wavefunction_is_symmetric():
    r = RapiditySet(LAM2, GAMMA, LENGTH)
    Psi = wavefn.bethe_wavefunction(r)
    for x in alcovefn.sample_interior(2, 8, LENGTH):
        assert abs(Psi.eval(x) - Psi.eval((x[1], x[0]))) < 1e-12


def test_degenerate_pair_matches_closed_form():
    rd = RapiditySet((0.5, 0.5), GAMMA, LENGTH)
    F = wavefn.prewavefunction_degenerate(rd)
    ref = wavefn.prewavefunction_coincident_pair(0.5, GAMMA)
    for x in alcovefn.sample_interior(2, 20, LENGTH):
        assert abs(F.eval(x) - ref.eval(x)) < 1e-6


@pytest.mark.parametrize("gamma", [1.0, 1.3])
def test_degenerate_pair_is_exact(gamma):
    F = wavefn.prewavefunction_degenerate(RapiditySet((0.5, 0.5), gamma, LENGTH))
    ref = wavefn.prewavefunction_coincident_pair(0.5, gamma)
    for x in alcovefn.sample_interior(2, 20, LENGTH):
        assert abs(F.eval(x) - ref.eval(x)) < 1e-13


@pytest.mark.parametrize(
    "lam, rearrangements",
    [
        ((0.5, 0.5, -0.3), 3),
        ((0.2, 0.2, 0.2), 1),
        ((0.4 + 0.1j, 0.4 + 0.1j, -0.6, -0.6), 6),
        ((0.3, 0.3, 0.3, 0.3), 1),
    ],
)
def test_degenerate_limit_solves_qnls(lam, rearrangements):
    """The exact limit solves the eigenvalue problem (Dunkl included),
    and each piece carries one term per distinct rearrangement of lam."""
    r = RapiditySet(lam, 1.0, LENGTH)
    F = wavefn.prewavefunction_degenerate(r)
    assert wavefn.verify_qnls(F, r, check_dunkl=True)["max_residual"] < 1e-9
    assert max(len(piece.terms) for piece in F.pieces.values()) <= rearrangements


def test_degenerate_rejected_by_exact_routes():
    rd = RapiditySet((0.5, 0.5), GAMMA, LENGTH)
    with pytest.raises(ValueError):
        wavefn.prewavefunction(rd)


def test_periodicity_requires_on_shell():
    r = RapiditySet(LAM2, GAMMA, LENGTH)
    with pytest.raises(ValueError):
        wavefn.check_periodicity(wavefn.bethe_wavefunction(r), r)
