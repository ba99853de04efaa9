"""Bethe equations on the interval: rapidity sets, residuals, solver, eigenvalues.

The exponential form reads e^{i lambda_j L} = prod_{k != j}
(lambda_j - lambda_k + i gamma)/(lambda_j - lambda_k).  For gamma > 0 and
real quantum numbers its logarithmic form is the gradient of a strictly
convex action, so a Newton iteration from the free solution converges to
the unique real root.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .momrep import is_regular, tau_pm

__all__ = [
    "QuantumNumbers",
    "RapiditySet",
    "bae_residual",
    "log_bae_residual",
    "yang_yang",
    "solve_bae",
    "transfer_eigenvalue",
    "asymptotic_check",
    "solution_to_json",
    "NEWTON_TOL_FACTOR",
    "NEWTON_MAX_ITER",
    "DIAGONAL_SWITCH",
    "ON_SHELL_TOL",
]

# convergence: ||grad||_inf < NEWTON_TOL_FACTOR * L
NEWTON_TOL_FACTOR = 1e-12
NEWTON_MAX_ITER = 100
ARMIJO_C = 1e-4
# a predicted decrease below this many ulps of the action is lost in its
# rounding, so the line search is skipped there
ARMIJO_ULPS = 4
# below this distance |mu - lambda_j| the eigenvalue switches to a
# series-safe partial-fraction form
DIAGONAL_SWITCH = 1e-6
# a rapidity set may only be flagged on-shell below this BAE residual
ON_SHELL_TOL = 1e-9


@dataclass(frozen=True)
class QuantumNumbers:
    """Bethe quantum numbers n_j, stored doubled so both the integer
    (N odd) and half-integer (N even) cases are exact.

    twice_n holds 2 n_j; all entries must share the parity of N - 1 and
    be pairwise distinct.  Order is preserved: permuting the quantum
    numbers permutes the solved rapidities the same way.
    """

    twice_n: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.twice_n)
        want_parity = (n - 1) % 2
        for t in self.twice_n:
            if t % 2 != want_parity:
                raise ValueError(
                    "quantum numbers must be integers for odd N and "
                    "half-integers for even N"
                )
        if len(set(self.twice_n)) != n:
            raise ValueError("quantum numbers must be pairwise distinct")

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "QuantumNumbers":
        doubled = []
        for v in values:
            if not math.isfinite(2 * v):
                raise ValueError(f"quantum number {v} is not finite or too large to double")
            t = round(2 * v)
            if abs(2 * v - t) > 1e-9:
                raise ValueError(f"{v} is neither integer nor half-integer")
            doubled.append(t)
        return cls(tuple(doubled))

    @property
    def n(self) -> int:
        return len(self.twice_n)

    def values(self) -> tuple[float, ...]:
        return tuple(t / 2.0 for t in self.twice_n)


def bae_residual(
    lam: Sequence[complex], gamma: float, length: float
) -> tuple[complex, ...]:
    """Exponential-form residuals e^{i lambda_j L} - prod_{k != j}
    (lambda_j - lambda_k + i gamma)/(lambda_j - lambda_k - i gamma)."""
    lam = tuple(complex(v) for v in lam)
    out = []
    for j, lj in enumerate(lam):
        prod = 1.0 + 0j
        for k, lk in enumerate(lam):
            if k == j:
                continue
            d = lj - lk
            if d == 1j * gamma:
                raise ZeroDivisionError("pole in BAE residual")
            prod *= (d + 1j * gamma) / (d - 1j * gamma)
        out.append(cmath.exp(1j * lj * length) - prod)
    return tuple(out)


@dataclass(frozen=True)
class RapiditySet:
    """Rapidities with the model parameters they live in.

    The rapidities must be finite; they may coincide (see is_regular).
    on_shell may only be set when the Bethe-equation residual is below
    ON_SHELL_TOL.
    """

    lam: tuple[complex, ...]
    gamma: float
    length: float
    on_shell: bool = False

    def __post_init__(self) -> None:
        lam = tuple(complex(v) for v in self.lam)
        object.__setattr__(self, "lam", lam)
        if not 0 < self.length < math.inf:
            raise ValueError("length must be positive and finite")
        if not all(map(cmath.isfinite, lam)):
            raise ValueError("rapidities must be finite")
        if self.on_shell:
            res = max(
                (abs(v) for v in bae_residual(lam, self.gamma, self.length)),
                default=0.0,
            )
            if res > ON_SHELL_TOL:
                raise ValueError(
                    f"on_shell flag refused: BAE residual {res:.3e} > {ON_SHELL_TOL}"
                )

    @property
    def n(self) -> int:
        return len(self.lam)

    def is_regular(self) -> bool:
        """momrep.is_regular: every pairwise gap above EPS_REG."""
        return is_regular(self.lam)


def log_bae_residual(
    lam: Sequence[float], gamma: float, length: float, n: QuantumNumbers
) -> tuple[float, ...]:
    """Logarithmic-form residuals L lambda_j + sum_k 2 atan((lambda_j -
    lambda_k)/gamma) - 2 pi n_j (real rapidities, gamma > 0)."""
    if gamma <= 0:
        raise ValueError("logarithmic form requires gamma > 0")
    vals = n.values()
    if len(vals) != len(lam):
        raise ValueError("size mismatch")
    out = []
    for j, lj in enumerate(lam):
        s = length * lj - 2 * math.pi * vals[j]
        for k, lk in enumerate(lam):
            if k != j:
                s += 2 * math.atan((lj - lk) / gamma)
        out.append(s)
    return tuple(out)


def yang_yang(
    lam: Sequence[float], gamma: float, length: float, n: QuantumNumbers
) -> tuple[float, np.ndarray, np.ndarray]:
    """Convex action whose gradient is the logarithmic residual.

    S = (L/2) sum_j lambda_j^2 - 2 pi sum_j n_j lambda_j
      + (1/2) sum_{j != k} K(lambda_j - lambda_k),
    with K(t) = int_0^t 2 atan(mu/gamma) dmu
             = 2 t atan(t/gamma) - gamma log(1 + (t/gamma)^2).
    Returns (value, gradient, Hessian); the Hessian is positive definite
    for gamma > 0.
    """
    if gamma <= 0:
        raise ValueError("action defined for gamma > 0")
    lam = np.asarray(lam, dtype=float)
    vals = np.asarray(n.values())
    size = len(lam)
    value = 0.5 * length * float(lam @ lam) - 2 * math.pi * float(vals @ lam)
    grad = length * lam - 2 * math.pi * vals
    hess = np.zeros((size, size))
    np.fill_diagonal(hess, length)
    for j in range(size):
        for k in range(size):
            if j == k:
                continue
            t = lam[j] - lam[k]
            value += 0.5 * (
                2 * t * math.atan(t / gamma)
                - gamma * math.log1p((t / gamma) ** 2)
            )
            grad[j] += 2 * math.atan(t / gamma)
            kern = 2 * gamma / (gamma * gamma + t * t)
            hess[j, j] += kern
            hess[j, k] -= kern
    return value, grad, hess


def solve_bae(
    n: QuantumNumbers,
    gamma: float,
    length: float,
) -> RapiditySet:
    """Newton minimization of the action from the free solution
    lambda_j = 2 pi n_j / L, with Armijo backtracking.

    Returns an on-shell RapiditySet; the iteration count is attached as
    the attribute last_iterations of this function.
    """
    if gamma <= 0:
        raise ValueError("solver covers the repulsive regime gamma > 0 only")
    if length <= 0:
        raise ValueError("length must be positive")
    lam = np.array([2 * math.pi * v / length for v in n.values()])
    tol = NEWTON_TOL_FACTOR * length
    iterations = 0
    value, grad, hess = yang_yang(lam, gamma, length, n)
    while float(np.max(np.abs(grad))) >= tol:
        if iterations >= NEWTON_MAX_ITER:
            raise RuntimeError(
                f"Newton iteration did not converge in {NEWTON_MAX_ITER} steps"
            )
        # convexity guarantees the Cholesky factorization exists
        factor = np.linalg.cholesky(hess)
        step = np.linalg.solve(
            factor.T, np.linalg.solve(factor, -grad)
        )
        slope = float(grad @ step)
        t = 1.0
        # convexity makes the full step safe where Armijo cannot judge it
        while -slope > ARMIJO_ULPS * math.ulp(max(abs(value), 1.0)):
            trial = lam + t * step
            trial_value = yang_yang(trial, gamma, length, n)[0]
            if trial_value <= value + ARMIJO_C * t * slope:
                break
            t *= 0.5
            if t < 1e-12:
                raise RuntimeError("Armijo backtracking failed")
        lam = lam + t * step
        value, grad, hess = yang_yang(lam, gamma, length, n)
        iterations += 1
    solve_bae.last_iterations = iterations
    return RapiditySet(
        tuple(complex(v) for v in lam), gamma, length, on_shell=True
    )


solve_bae.last_iterations = 0


def _exp_ratio(d: complex, length: float) -> complex:
    """(e^{i L d} - 1)/d, stable through d = 0."""
    if abs(d) < 1e-8:
        z = 1j * length * d
        return 1j * length * (1 + z / 2 + z * z / 6)
    return (cmath.exp(1j * length * d) - 1) / d


def transfer_eigenvalue(mu: complex, r: RapiditySet) -> complex:
    """tau_mu(lambda) = e^{-i mu L/2} tau^+_mu + e^{i mu L/2} tau^-_mu.

    Near mu = lambda_j the poles of tau^+/- cancel for on-shell lambda;
    within DIAGONAL_SWITCH of the diagonal an equivalent partial-fraction
    form with a series-safe kernel is used instead (requires on_shell).
    """
    lam, gamma, length = r.lam, r.gamma, r.length
    gap = min((abs(mu - lj) for lj in lam), default=float("inf"))
    if gap >= DIAGONAL_SWITCH:
        return cmath.exp(-1j * mu * length / 2) * tau_pm(
            mu, lam, gamma, 1
        ) + cmath.exp(1j * mu * length / 2) * tau_pm(mu, lam, gamma, -1)
    if not r.on_shell:
        raise ValueError(
            "transfer eigenvalue at mu near a rapidity requires on-shell data"
        )
    acc = cmath.exp(-1j * mu * length / 2) + cmath.exp(1j * mu * length / 2)
    for j, lj in enumerate(lam):
        rest = lam[:j] + lam[j + 1 :]
        acc -= (
            cmath.exp(-1j * mu * length / 2)
            * 1j
            * gamma
            * tau_pm(lj, rest, gamma, -1)
            * cmath.exp(1j * mu * length)
            * _exp_ratio(lj - mu, length)
        )
    return acc


def asymptotic_check(
    r: RapiditySet, mu_scales: Sequence[float] = (1e2, 1e3)
) -> dict:
    """Large-|mu| behavior of log(e^{i mu L/2} tau_mu) at mu = i t.

    Compares against the three-term expansion in the power sums
    p_n = sum_j lambda_j^n and reports the residual ratio across a
    tenfold increase of |mu| (fourth-order decay gives about 1e-4).
    """
    lam, gamma = r.lam, r.gamma
    p0 = float(len(lam))
    p1 = sum(lam)
    p2 = sum(v * v for v in lam)
    results = []
    for t in mu_scales:
        mu = 1j * t
        # e^{i mu L/2} tau_mu = tau^+_mu + e^{i mu L} tau^-_mu, evaluated
        # without the overflowing intermediate factors
        exact = cmath.log(
            tau_pm(mu, lam, gamma, 1)
            + cmath.exp(1j * mu * r.length) * tau_pm(mu, lam, gamma, -1)
        )
        g = 1j * gamma
        series = (
            (g / mu) * p0
            + (g / mu**2) * (p1 - (g / 2) * p0)
            + (g / mu**3) * (p2 - g * p1 + (g * g / 3) * p0)
        )
        results.append({"scale": t, "residual": abs(exact - series)})
    ratio = (
        results[1]["residual"] / results[0]["residual"]
        if len(results) > 1 and results[0]["residual"] > 0
        else float("nan")
    )
    return {"levels": results, "ratio": ratio}


def solution_to_json(r: RapiditySet, residual: float, iterations: int) -> str:
    return json.dumps(
        {
            "lambda": [[v.real, v.imag] for v in r.lam],
            "residual": residual,
            "iterations": iterations,
        },
        indent=2,
        sort_keys=True,
    )
