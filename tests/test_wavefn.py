"""Wavefunction constructions: routes, eigen checks, coinciding rapidities."""

import json
import math

import pytest

from qnls import alcovefn, bae, exppoly, momrep, wavefn
from qnls.symgroup import all_permutations, identity, reduced_word
from qnls.wavefn import RapiditySet, RouteMismatchError

GAMMA = 1.3
LENGTH = 10.0
LAM2 = (0.8, -0.45)
LAM3 = (1.1, 0.2, -0.7)
LAM4 = (1.3 + 0.1j, 0.4 - 0.2j, -0.3 + 0.05j, -1.2 - 0.1j)
LAM5 = (1.5 - 0.1j, 0.8 + 0.2j, 0.1 - 0.05j, -0.6 + 0.1j, -1.4 - 0.2j)


def test_rapidity_set_validation():
    r = RapiditySet(LAM2, GAMMA, LENGTH)
    assert r.n == 2 and r.is_regular()
    with pytest.raises(ValueError):
        RapiditySet(LAM2, GAMMA, LENGTH, on_shell=True)  # off-shell data
    with pytest.raises(ValueError):
        RapiditySet(LAM2, GAMMA, -1.0)


@pytest.fixture(scope="module")
def route_spreads():
    """(pre_spread, bethe_spread) at LAM2 and LAM3, one check call each."""
    return [wavefn.assert_routes_agree(RapiditySet(lam, GAMMA, LENGTH)) for lam in (LAM2, LAM3)]


def test_pre_routes_agree(route_spreads):
    for pre_spread, _ in route_spreads:
        assert pre_spread < wavefn.ROUTE_TOL


def test_bethe_routes_agree(route_spreads):
    for _, bethe_spread in route_spreads:
        assert bethe_spread < wavefn.ROUTE_TOL


def _spread(F, G, points):
    """Worst relative disagreement, measured as assert_routes_agree does."""
    gaps = []
    for x in points:
        a, b = F.eval(x), G.eval(x)
        gaps.append(abs(a - b) / max(abs(a), abs(b), 1.0))
    return alcovefn.worst_residual(gaps)


@pytest.mark.parametrize("gamma", (-0.7, 1.3))
def test_routes_agree_at_five_particles(gamma):
    # creation and creation_plus are left out: each takes about 4 s at N=5
    # in the ybops plan engine, which would put this test over 10 s per
    # gamma; creationB, the symmetric fold, takes well under a second
    r = RapiditySet(LAM5, gamma, LENGTH)
    points = alcovefn.sample_interior(5, 50, LENGTH)
    orbit, propagation = (wavefn.prewavefunction(r, route) for route in ("orbit", "propagation"))
    assert _spread(orbit, propagation, points) < wavefn.ROUTE_TOL
    # the symmetrize route, on the orbit psi already built
    symmetrized = alcovefn.symmetrize(orbit)
    explicit = wavefn.bethe_wavefunction(r, "explicit")
    assert _spread(symmetrized, explicit, points) < wavefn.ROUTE_TOL
    creation = wavefn.bethe_wavefunction(r, "creationB")
    assert _spread(creation, explicit, points) < wavefn.ROUTE_TOL


def _orbit_on_full_tables(r):
    """The orbit route with every step of every word a whole table."""
    base = momrep.orbit_planewave(r.lam)
    pieces = {}
    for sigma in all_permutations(r.n):
        table = momrep.act_table(sigma.inverse(), base)
        for i in reversed(reduced_word(sigma)):
            table = momrep.deformed_transposition_momentum(table, i, r.gamma)
        pieces[sigma] = table.entries[identity(r.n)]
    return pieces


def _propagation_word_by_word(f, gamma):
    """The propagation route with every word applied from its start."""
    pieces = {}
    for sigma in all_permutations(f.n):
        out = f
        for i in reversed(reduced_word(sigma.inverse())):
            out = alcovefn.deformed_transposition_position(out, i, gamma)
        pieces[sigma] = alcovefn.act_analytic(sigma, out)
    return pieces


@pytest.mark.parametrize("lam", (LAM2, LAM3, LAM4), ids=("n2", "n3", "n4"))
def test_routes_equal_their_full_builds_term_for_term(lam):
    for gamma in (-0.7, GAMMA):
        r = RapiditySet(lam, gamma, LENGTH)
        orbit = wavefn.prewavefunction(r, "orbit")
        propagation = wavefn.prewavefunction(r, "propagation")
        want = _orbit_on_full_tables(r)
        assert {s: p.terms for s, p in orbit.pieces.items()} == {s: p.terms for s, p in want.items()}
        want = _propagation_word_by_word(exppoly.plane_wave(r.lam), gamma)
        assert {s: p.terms for s, p in propagation.pieces.items()} == {s: p.terms for s, p in want.items()}


def test_nan_function_fails_every_check(monkeypatch):
    # max(worst, r) keeps worst when r is NaN; the folds must keep the NaN
    r = RapiditySet(LAM2, GAMMA, LENGTH)
    psi = wavefn.prewavefunction(r)
    rep = wavefn.verify_qnls(alcovefn.afn_scale(math.nan, psi), r, check_dunkl=False)
    assert not rep["pass"] and math.isnan(rep["max_residual"])
    assert all(not c["pass_"] for c in rep["checks"])
    on_shell = bae.solve_bae(bae.QuantumNumbers((1, -1)), GAMMA, LENGTH)
    Psi = alcovefn.afn_scale(math.nan, wavefn.bethe_wavefunction(on_shell, "explicit"))
    rep = wavefn.check_periodicity(Psi, on_shell)
    assert not rep["pass"] and math.isnan(rep["max_residual"])
    build = wavefn.prewavefunction
    monkeypatch.setattr(
        wavefn, "prewavefunction",
        lambda r, route: alcovefn.afn_scale(math.nan if route == "orbit" else 1.0, build(r, route)),
    )
    # no finite disagreement exceeds an infinite tolerance; NaN must
    with pytest.raises(RouteMismatchError):
        wavefn.assert_routes_agree(r, [(1.0, -2.0), (0.5, 2.5)], tol=math.inf)


def test_injected_sign_flip_is_detected(monkeypatch):
    # mutation check: corrupting the gamma-dependent weight must trip the
    # route comparison, otherwise the cross-validation has no teeth
    orig = momrep.coeff_G
    monkeypatch.setattr(momrep, "coeff_G", lambda lam, g: -orig(lam, g))
    for lam in (LAM2, LAM3):
        r = RapiditySet(lam, GAMMA, LENGTH)
        with pytest.raises(RouteMismatchError) as err:
            wavefn.assert_routes_agree(r)
        # the error names the failing family and dumps only its routes, as
        # valid JSON however many terms the pieces hold; cut pieces account
        # for every term they dropped
        assert str(err.value).startswith("bethe routes disagree")
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


@pytest.mark.parametrize("gamma", [1.0, 1.3])
def test_degenerate_pair_is_exact(gamma):
    F = wavefn.prewavefunction(RapiditySet((0.5, 0.5), gamma, LENGTH))
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
    F = wavefn.prewavefunction(r)
    assert wavefn.verify_qnls(F, r, check_dunkl=True)["max_residual"] < 1e-9
    assert max(len(piece.terms) for piece in F.pieces.values()) <= rearrangements


COINCIDING = [
    ((0.5, 0.5), 1.0),
    ((0.5, 0.5, -0.3), 1.0),
    ((0.4, 0.4, 0.4), 1.0),
    ((0.3, 0.3, 0.3, 0.3), 1.0),
    ((0.4 + 0.1j, 0.4 + 0.1j, -0.6, -0.6), 1.3),
    ((0.5, 0.5, -0.3), -0.7),
    ((0.5, 0.5, -0.3), 0.0),
    ((0.2, 0.2, 0.2, 0.9, -0.4), 1.0),
]


@pytest.mark.parametrize("lam, gamma", COINCIDING)
def test_routes_without_divided_differences_take_coinciding_rapidities(lam, gamma):
    """creation and creation_plus equal propagation, and creationB the
    symmetrized propagation psi, at coinciding rapidities; the default
    route is the propagated plane wave itself."""
    r = RapiditySet(lam, gamma, LENGTH)
    psi = wavefn.prewavefunction(r)
    assert repr(psi) == repr(alcovefn.propagation(exppoly.plane_wave(r.lam), gamma))
    points = alcovefn.sample_interior(r.n, 20, LENGTH)
    for route in ("creation", "creation_plus"):
        assert _spread(wavefn.prewavefunction(r, route), psi, points) < 1e-13
    Psi = wavefn.bethe_wavefunction(r, "creationB")
    assert _spread(Psi, alcovefn.symmetrize(psi), points) < 1e-13


@pytest.mark.parametrize("lam, gamma", COINCIDING)
def test_routes_with_divided_differences_refuse_coinciding_rapidities(lam, gamma):
    r = RapiditySet(lam, gamma, LENGTH)
    for build, route in [
        (wavefn.prewavefunction, "orbit"),
        (wavefn.bethe_wavefunction, "symmetrize"),
        (wavefn.bethe_wavefunction, "explicit"),
    ]:
        with pytest.raises(ValueError, match="creationB"):
            build(r, route)


@pytest.mark.parametrize("gap, regular", [(1e-8, False), (1.0000001e-8, True), (0.9999999e-8, False)])
def test_one_regularity_rule_at_the_boundary(gap, regular):
    """RapiditySet, the orbit tables and the orbit route draw the line at
    the same gap: above momrep.EPS_REG is regular, at or below it is not."""
    r = RapiditySet((0.0, gap, 0.7), GAMMA, LENGTH)
    assert r.is_regular() is momrep.is_regular(r.lam) is regular
    if regular:
        momrep.orbit_planewave(r.lam)
        wavefn.prewavefunction(r, "orbit")
    else:
        with pytest.raises(ValueError):
            momrep.orbit_planewave(r.lam)
        with pytest.raises(ValueError):
            wavefn.prewavefunction(r, "orbit")


def test_rapidity_set_refuses_nonfinite_rapidities():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            RapiditySet((bad, 0.5), GAMMA, LENGTH)


def test_periodicity_requires_on_shell():
    r = RapiditySet(LAM2, GAMMA, LENGTH)
    with pytest.raises(ValueError):
        wavefn.check_periodicity(wavefn.bethe_wavefunction(r), r)


def test_periodicity_refuses_a_length_without_room():
    # one inner coordinate and the two ends cannot keep two gaps of
    # WALL_GAP_FLOOR = 1e-6 on a length of 1.5e-6
    r = bae.solve_bae(bae.QuantumNumbers((1, -1)), 1.0, 1.5e-6)
    with pytest.raises(ValueError):
        wavefn.check_periodicity(wavefn.bethe_wavefunction(r, "explicit"), r)
