"""Pre-wavefunctions and Bethe wavefunctions by independent routes.

The pre-wavefunction psi_lam is the image of the plane wave e^{i<lam,x>}
under the propagation operator; the Bethe wavefunction Psi_lam is its
position symmetrization.  psi comes with four constructions and Psi with
three, each set agreeing pointwise.  At coinciding rapidities psi is
exact too: the plane wave at the coinciding rapidities, propagated.
Verifiers cover the eigenvalue problem (Laplacian, derivative jumps,
Dunkl eigen-system) and periodicity on the interval [-L/2, L/2].
"""

from __future__ import annotations

import json
from typing import Iterable

from . import alcovefn, exppoly, momrep, ybops
from .alcovefn import AlcoveFunction
from .bae import ON_SHELL_TOL, RapiditySet
from .exppoly import ExpPolySum
from .symgroup import Permutation, all_permutations, identity

__all__ = [
    "RapiditySet",
    "RouteMismatchError",
    "prewavefunction",
    "prewavefunction_degenerate",
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

PRE_ROUTES = ("orbit", "propagation", "creation", "creation_plus")
BETHE_ROUTES = ("symmetrize", "explicit", "creationB")


class RouteMismatchError(AssertionError):
    """Two constructions of the same wavefunction disagree."""


def _require_regular(r: RapiditySet) -> None:
    if not r.is_regular():
        raise ValueError(
            "degenerate rapidities: use prewavefunction_degenerate instead"
        )


def prewavefunction(r: RapiditySet, route: str = "propagation") -> AlcoveFunction:
    """psi_lam by one of the interchangeable constructions.

    orbit: the piece on the alcove labeled sigma (that is w^{-1} R^N_+
    with w = sigma^{-1}) is w_gamma^{-1} w e^{i lam}, computed in the
    momentum-space representation on the orbit of lam.
    propagation: apply the propagation operator to the plane wave.
    creation: fold b^-_{lam_N} ... b^-_{lam_1} onto the vacuum;
    creation_plus folds b^+_{lam_1} ... b^+_{lam_N} instead.
    """
    _require_regular(r)
    if route == "propagation":
        return alcovefn.propagation(exppoly.plane_wave(r.lam), r.gamma)
    if route == "orbit":
        pieces = {}
        base = momrep.orbit_planewave(r.lam)
        for sigma in all_permutations(r.n):
            w = sigma.inverse()
            acted = momrep.act_table(w, base)
            deformed = momrep.apply_deformed_word(acted, w.inverse(), r.gamma)
            pieces[sigma] = deformed.entries[identity(r.n)]
        return AlcoveFunction(r.n, pieces, continuous=True)
    if route in ("creation", "creation_plus"):
        f = alcovefn.from_analytic(exppoly.constant(1.0, 0))
        order = r.lam if route == "creation" else tuple(reversed(r.lam))
        family = "b-" if route == "creation" else "b+"
        for mu in order:
            f = ybops.apply_nonsymmetric(family, mu, f, r.gamma, r.length)
        return f
    raise ValueError(f"unknown route {route!r}; choose from {PRE_ROUTES}")


def prewavefunction_degenerate(r: RapiditySet) -> AlcoveFunction:
    """psi_lam at coinciding rapidities, in closed form.

    The propagation operator needs no regular rapidities, so its image of
    the plane wave e^{i lam} is the exact limit; the repeated clusters
    show up as polynomial prefactors.

    >>> r = RapiditySet((0.5, 0.5), 1.0, 10.0)
    >>> F = prewavefunction_degenerate(r)
    >>> ref = prewavefunction_coincident_pair(0.5, 1.0)
    >>> x = (-1.25, 2.5)
    >>> abs(F.eval(x) - ref.eval(x)) < 1e-14
    True
    """
    if r.is_regular():
        raise ValueError("rapidities are regular; use prewavefunction")
    return alcovefn.propagation(exppoly.plane_wave(r.lam), r.gamma)


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
    creationB: fold B_{lam_N} ... B_{lam_1} onto the vacuum.
    """
    _require_regular(r)
    if route == "symmetrize":
        return alcovefn.symmetrize(prewavefunction(r, "orbit"))
    if route == "explicit":
        n = r.n
        acc = exppoly.zero(n)
        for w in all_permutations(n):
            wl = w.act_vector(r.lam)
            acc = acc + exppoly.scale(
                momrep.coeff_G(wl, r.gamma), exppoly.plane_wave(wl)
            )
        piece = exppoly.canonicalize(
            exppoly.scale(1.0 / len(all_permutations(n)), acc)
        )
        return alcovefn.extend_symmetric(piece, continuous=True)
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


def assert_routes_agree(
    r: RapiditySet,
    which: str = "pre",
    points: Iterable[tuple[float, ...]] | None = None,
    tol: float = ROUTE_TOL,
) -> float:
    """Cross-check all constructions pointwise; returns the worst relative
    disagreement and raises RouteMismatchError (with a coefficient dump)
    beyond tol."""
    if which == "pre":
        routes = {name: prewavefunction(r, name) for name in PRE_ROUTES}
    elif which == "bethe":
        routes = {name: bethe_wavefunction(r, name) for name in BETHE_ROUTES}
    else:
        raise ValueError("which must be 'pre' or 'bethe'")
    if points is None:
        points = alcovefn.sample_interior(r.n, 50, r.length)
    names = list(routes)
    worst = 0.0
    for x in points:
        vals = [routes[name].eval(x) for name in names]
        scale = max(max(abs(v) for v in vals), 1.0)
        spread = max(abs(v - vals[0]) for v in vals) / scale
        worst = max(worst, spread)
    if worst > tol:
        raise RouteMismatchError(
            f"{which} routes disagree by {worst:.3e} > {tol}; pieces: "
            + _dump_pieces(routes)
        )
    return worst


def _coeff_norm(f: ExpPolySum) -> float:
    return max(
        (abs(c) for t in f.terms for _, c in t.coeffs), default=0.0
    )


def verify_qnls(
    F: AlcoveFunction,
    r: RapiditySet,
    check_dunkl: bool = True,
    samples_per_wall: int = 10,
    interior_samples: int = 20,
) -> dict:
    """Eigenvalue-problem report for F at rapidities r.

    Checks, in order: the Laplacian eigen-equation at coefficient level
    piece by piece, the first-order derivative jump across every wall at
    sampled wall points, and (optionally) the Dunkl-type eigen-system
    pointwise at interior samples.
    """
    energy = sum(v * v for v in r.lam)
    checks = []

    worst = 0.0
    scale = 1.0
    for piece in F.pieces.values():
        lap = exppoly.zero(F.n)
        for j in range(1, F.n + 1):
            lap = lap + exppoly.derivative(exppoly.derivative(piece, j), j)
        residual = exppoly.canonicalize(lap + exppoly.scale(energy, piece))
        worst = max(worst, _coeff_norm(residual))
        scale = max(scale, _coeff_norm(piece) * max(abs(energy), 1.0))
    checks.append(
        {
            "check": "laplace_eigen",
            "max_residual": worst / scale,
            "samples": len(F.pieces),
        }
    )

    worst = 0.0
    count = 0
    for j in range(1, F.n + 1):
        for k in range(j + 1, F.n + 1):
            walls = alcovefn.sample_wall(F.n, j, k, samples_per_wall, r.length)
            for rep in alcovefn.wall_jump(F, j, k, r.gamma, walls):
                scale = max(
                    abs(rep["limit_plus"]), abs(rep["limit_minus"]), 1.0
                )
                worst = max(worst, abs(rep["residual"]) / scale)
                count += 1
    checks.append(
        {"check": "derivative_jumps", "max_residual": worst, "samples": count}
    )

    if check_dunkl and F.n >= 1:
        points = alcovefn.sample_interior(F.n, interior_samples, r.length)
        worst = 0.0
        for j in range(1, F.n + 1):
            applied = alcovefn.dunkl(F, j, r.gamma)
            for x in points:
                want = 1j * r.lam[j - 1] * F.eval(x)
                got = applied.eval(x)
                worst = max(worst, abs(got - want) / max(abs(want), 1.0))
        checks.append(
            {
                "check": "dunkl_eigen",
                "max_residual": worst,
                "samples": len(points) * F.n,
            }
        )

    overall = max(c["max_residual"] for c in checks)
    return {
        "checks": [dict(c, pass_=c["max_residual"] < 1e-9) for c in checks],
        "max_residual": overall,
        "pass": overall < 1e-9,
    }


def check_periodicity(
    F: AlcoveFunction, r: RapiditySet, samples: int = 10
) -> dict:
    """Residuals of F(x', -L/2) = F(L/2, x') and the matching first-
    derivative condition at sampled ordered x' (needs an on-shell r)."""
    if not r.on_shell:
        raise ValueError("periodicity check requires an on-shell rapidity set")
    n = F.n
    half = r.length / 2
    fund = identity(n)
    piece = F.pieces[fund]
    d_last = exppoly.derivative(piece, n)
    d_first = exppoly.derivative(piece, 1)

    import random

    rng = random.Random(alcovefn.DEFAULT_SEED)
    worst_val = 0.0
    worst_der = 0.0
    for _ in range(samples):
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
        worst_val = max(worst_val, abs(v1 - v2) / max(abs(v1), abs(v2), 1.0))
        d1 = d_last.eval(at_bottom)
        d2 = d_first.eval(at_top)
        worst_der = max(worst_der, abs(d1 - d2) / max(abs(d1), abs(d2), 1.0))
    worst = max(worst_val, worst_der)
    return {
        "checks": [
            {"check": "value_periodicity", "max_residual": worst_val, "samples": samples},
            {"check": "derivative_periodicity", "max_residual": worst_der, "samples": samples},
        ],
        "max_residual": worst,
        "pass": worst < 1e-8,
    }
