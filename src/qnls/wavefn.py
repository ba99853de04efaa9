"""Pre-wavefunctions and Bethe wavefunctions by independent routes.

The pre-wavefunction psi_lam is the image of the plane wave e^{i<lam,x>}
under the propagation operator; the Bethe wavefunction Psi_lam is its
position symmetrization.  psi comes with four constructions and Psi with
three, each set agreeing pointwise.  The routes that never divide by a
rapidity difference (propagation, creation, creation_plus, creationB)
take coinciding rapidities as they are, and give the exact limit there:
repeated clusters show up as polynomial prefactors.  The orbit,
symmetrize and explicit routes refuse rapidities that are not regular.
Verifiers cover the eigenvalue problem (Laplacian, derivative jumps,
Dunkl eigen-system) and periodicity on the interval [-L/2, L/2].
"""

from __future__ import annotations

import json
import random
from typing import Iterable

from . import alcovefn, exppoly, momrep, ybops
from .alcovefn import AlcoveFunction, worst_residual
from .bae import ON_SHELL_TOL, RapiditySet
from .exppoly import ExpPolySum
from .symgroup import Permutation, all_permutations, identity

__all__ = [
    "RapiditySet",
    "RouteMismatchError",
    "prewavefunction",
    "prewavefunction_coincident_pair",
    "bethe_wavefunction",
    "assert_routes_agree",
    "verify_qnls",
    "check_periodicity",
    "ON_SHELL_TOL",
    "ROUTE_TOL",
]

# pointwise relative disagreement beyond this aborts route comparisons
ROUTE_TOL = 1e-9
# a mismatch dump keeps at most this many terms of each piece
DUMP_TERMS_PER_PIECE = 2
# interior points of the Dunkl eigen-system check, and sampled x' of the
# periodicity check
DUNKL_SAMPLES = 20
PERIODICITY_SAMPLES = 10

PRE_ROUTES = ("orbit", "propagation", "creation", "creation_plus")
BETHE_ROUTES = ("symmetrize", "explicit", "creationB")


class RouteMismatchError(AssertionError):
    """Two constructions of the same wavefunction disagree."""


def _require_regular(r: RapiditySet) -> None:
    if not r.is_regular():
        raise ValueError(
            "coinciding rapidities: the orbit, symmetrize and explicit routes divide by"
            " rapidity differences; propagation, creation, creation_plus and creationB"
            " accept them"
        )


def prewavefunction(r: RapiditySet, route: str = "propagation") -> AlcoveFunction:
    """psi_lam by one of the interchangeable constructions.

    orbit: the piece on the alcove labeled sigma (that is w^{-1} R^N_+
    with w = sigma^{-1}) is w_gamma^{-1} w e^{i lam}, computed in the
    momentum-space representation on the orbit of lam.  Only the identity
    entry of each deformed word is kept; the N! relabelled tables run
    their words together (momrep.deformed_word_entries).
    propagation: apply the propagation operator to the plane wave; each
    deformed word is one deformed transposition on a shorter one.
    creation: fold b^-_{lam_N} ... b^-_{lam_1} onto the vacuum;
    creation_plus folds b^+_{lam_1} ... b^+_{lam_N} instead.
    All but orbit take coinciding rapidities:

    >>> r = RapiditySet((0.5, 0.5), 1.0, 10.0)
    >>> F = prewavefunction(r)
    >>> ref = prewavefunction_coincident_pair(0.5, 1.0)
    >>> x = (-1.25, 2.5)
    >>> abs(F.eval(x) - ref.eval(x)) < 1e-14
    True
    """
    if route == "propagation":
        return alcovefn.propagation(exppoly.plane_wave(r.lam), r.gamma)
    if route == "orbit":
        _require_regular(r)
        perms = all_permutations(r.n)
        pieces = momrep.deformed_word_entries(
            momrep.orbit_planewave(r.lam), [(sigma.inverse(), sigma) for sigma in perms], r.gamma, identity(r.n)
        )
        return AlcoveFunction(r.n, dict(zip(perms, pieces)), continuous=True)
    if route in ("creation", "creation_plus"):
        f = alcovefn.from_analytic(exppoly.constant(1.0, 0))
        order = r.lam if route == "creation" else tuple(reversed(r.lam))
        family = "b-" if route == "creation" else "b+"
        for mu in order:
            f = ybops.apply_nonsymmetric(family, mu, f, r.gamma, r.length)
        return f
    raise ValueError(f"unknown route {route!r}; choose from {PRE_ROUTES}")


def prewavefunction_coincident_pair(lam: complex, gamma: float) -> AlcoveFunction:
    """Closed form of psi at a coincident pair, N=2:
    e^{i lam (x1+x2)} (1 + gamma theta(x2-x1)(x2-x1))."""
    wave = (lam, lam)
    plain = exppoly.plane_wave(wave)
    linear = plain + gamma * (
        exppoly.monomial((0, 1), 1.0, wave) + exppoly.monomial((1, 0), -1.0, wave)
    )
    return alcovefn.build(
        {
            Permutation((1, 2)): plain,
            Permutation((2, 1)): linear,
        },
        continuous=True,
    )


def bethe_wavefunction(r: RapiditySet, route: str = "symmetrize") -> AlcoveFunction:
    """Psi_lam, symmetric in both positions and momenta; Psi_lam(0) = 1.

    symmetrize: position-symmetrize psi_lam.
    explicit: (1/N!) sum_w G_gamma(w lam) e^{i <w lam, x>} on the
    fundamental alcove, extended by symmetry.
    creationB: fold B_{lam_N} ... B_{lam_1} onto the vacuum; the one
    route that takes coinciding rapidities.
    """
    if route == "symmetrize":
        return alcovefn.symmetrize(prewavefunction(r, "orbit"))
    if route == "explicit":
        _require_regular(r)
        perms = all_permutations(r.n)
        waves = [w.act_vector(r.lam) for w in perms]
        parts = [((momrep.coeff_G(wl, r.gamma), 1.0 / len(perms)), exppoly.plane_wave(wl)) for wl in waves]
        return alcovefn.extend_symmetric(exppoly.combine(r.n, parts), continuous=True)
    if route == "creationB":
        F = alcovefn.from_analytic(exppoly.constant(1.0, 0))
        for mu in r.lam:
            F = ybops.apply_symmetric("B", mu, F, r.gamma, r.length)
        return F
    raise ValueError(f"unknown route {route!r}; choose from {BETHE_ROUTES}")


def _dump_pieces(fs: dict[str, AlcoveFunction]) -> str:
    """JSON of every route's pieces, each cut to its first
    DUMP_TERMS_PER_PIECE terms; a cut piece records how many terms it lost
    under "truncated"."""
    blobs = {}
    for name, F in fs.items():
        blob = alcovefn.to_json(F)
        for piece in blob["pieces"].values():
            extra = len(piece["terms"]) - DUMP_TERMS_PER_PIECE
            if extra > 0:
                del piece["terms"][DUMP_TERMS_PER_PIECE:]
                piece["truncated"] = extra
        blobs[name] = blob
    return json.dumps(blobs)


def _check_family(family: str, routes: dict[str, AlcoveFunction], points, tol: float) -> float:
    """Worst relative disagreement among one family's routes at the points;
    raises RouteMismatchError (with a coefficient dump) beyond tol."""
    names = list(routes)
    spreads = [0.0]
    for x in points:
        vals = [routes[name].eval(x) for name in names]
        scale = max(max(abs(v) for v in vals), 1.0)
        spreads.append(worst_residual(abs(v - vals[0]) for v in vals) / scale)
    worst = worst_residual(spreads)
    if not worst <= tol:
        raise RouteMismatchError(
            f"{family} routes disagree by {worst:.3e} > {tol}; pieces: "
            + _dump_pieces(routes)
        )
    return worst


def assert_routes_agree(
    r: RapiditySet,
    points: Iterable[tuple[float, ...]] | None = None,
    tol: float = ROUTE_TOL,
) -> tuple[float, float]:
    """Cross-check the pre-wavefunction routes, then the Bethe routes,
    pointwise; returns (pre_spread, bethe_spread), the worst relative
    disagreement of each family.  The orbit psi is built once: the Bethe
    symmetrize route is its symmetrization."""
    points = list(alcovefn.sample_interior(r.n, 50, r.length) if points is None else points)
    pre = {name: prewavefunction(r, name) for name in PRE_ROUTES}
    pre_spread = _check_family("pre", pre, points, tol)
    bethe = {
        name: alcovefn.symmetrize(pre["orbit"]) if name == "symmetrize" else bethe_wavefunction(r, name)
        for name in BETHE_ROUTES
    }
    return pre_spread, _check_family("bethe", bethe, points, tol)


def _coeff_norm(f: ExpPolySum) -> float:
    return worst_residual([0.0] + [abs(c) for t in f.terms for _, c in t.coeffs])


def verify_qnls(
    F: AlcoveFunction,
    r: RapiditySet,
    check_dunkl: bool = True,
    samples_per_wall: int = 10,
) -> dict:
    """Eigenvalue-problem report for F at rapidities r.

    Checks, in order: the Laplacian eigen-equation at coefficient level
    piece by piece, the first-order derivative jump across every wall at
    sampled wall points, and (optionally) the Dunkl-type eigen-system
    pointwise at interior samples.
    """
    energy = sum(v * v for v in r.lam)
    checks = []

    norms = []
    scale = 1.0
    for piece in F.pieces.values():
        lap = [((), exppoly.derivative(exppoly.derivative(piece, j), j)) for j in range(1, F.n + 1)]
        residual = exppoly.combine(F.n, lap + [((energy,), piece)])
        norms.append(_coeff_norm(residual))
        scale = max(scale, _coeff_norm(piece) * max(abs(energy), 1.0))
    checks.append(
        {
            "check": "laplace_eigen",
            "max_residual": worst_residual(norms) / scale,
            "samples": len(F.pieces),
        }
    )

    jumps = []
    for j in range(1, F.n + 1):
        for k in range(j + 1, F.n + 1):
            walls = alcovefn.sample_wall(F.n, j, k, samples_per_wall, r.length)
            for rep in alcovefn.wall_jump(F, j, k, r.gamma, walls):
                scale = max(
                    abs(rep["limit_plus"]), abs(rep["limit_minus"]), 1.0
                )
                jumps.append(abs(rep["residual"]) / scale)
    checks.append(
        {
            "check": "derivative_jumps",
            "max_residual": worst_residual([0.0] + jumps),
            "samples": len(jumps),
        }
    )

    if check_dunkl and F.n >= 1:
        points = alcovefn.sample_interior(F.n, DUNKL_SAMPLES, r.length)
        gaps = [0.0]
        for j in range(1, F.n + 1):
            applied = alcovefn.dunkl(F, j, r.gamma)
            for x in points:
                want = 1j * r.lam[j - 1] * F.eval(x)
                got = applied.eval(x)
                gaps.append(abs(got - want) / max(abs(want), 1.0))
        checks.append(
            {
                "check": "dunkl_eigen",
                "max_residual": worst_residual(gaps),
                "samples": len(points) * F.n,
            }
        )

    overall = worst_residual(c["max_residual"] for c in checks)
    return {
        "checks": [dict(c, pass_=c["max_residual"] < 1e-9) for c in checks],
        "max_residual": overall,
        "pass": overall < 1e-9,
    }


def check_periodicity(F: AlcoveFunction, r: RapiditySet) -> dict:
    """Residuals of F(x', -L/2) = F(L/2, x') and the matching first-
    derivative condition at PERIODICITY_SAMPLES sampled ordered x' (needs
    an on-shell r)."""
    if not r.on_shell:
        raise ValueError("periodicity check requires an on-shell rapidity set")
    n = F.n
    if n > 1:
        # n - 1 inner coordinates and the two ends keep n gaps
        alcovefn.require_room(n + 1, r.length)
    half = r.length / 2
    fund = identity(n)
    piece = F.pieces[fund]
    d_last = exppoly.derivative(piece, n)
    d_first = exppoly.derivative(piece, 1)
    rng = random.Random(alcovefn.DEFAULT_SEED)
    values = [0.0]
    derivatives = [0.0]
    for _ in range(PERIODICITY_SAMPLES):
        while True:
            inner = sorted(
                (rng.uniform(-half, half) for _ in range(n - 1)), reverse=True
            )
            gaps = [half - inner[0]] if inner else []
            gaps += [inner[t] - inner[t + 1] for t in range(len(inner) - 1)]
            gaps += [inner[-1] + half] if inner else []
            if not gaps or min(gaps) > alcovefn.WALL_GAP_FLOOR:
                break
        at_bottom = tuple(inner) + (-half,)
        at_top = (half,) + tuple(inner)
        v1 = piece.eval(at_bottom)
        v2 = piece.eval(at_top)
        values.append(abs(v1 - v2) / max(abs(v1), abs(v2), 1.0))
        d1 = d_last.eval(at_bottom)
        d2 = d_first.eval(at_top)
        derivatives.append(abs(d1 - d2) / max(abs(d1), abs(d2), 1.0))
    worst_val = worst_residual(values)
    worst_der = worst_residual(derivatives)
    worst = worst_residual([worst_val, worst_der])
    return {
        "checks": [
            {"check": "value_periodicity", "max_residual": worst_val,
             "samples": PERIODICITY_SAMPLES},
            {"check": "derivative_periodicity", "max_residual": worst_der,
             "samples": PERIODICITY_SAMPLES},
        ],
        "max_residual": worst,
        "pass": worst < 1e-8,
    }
