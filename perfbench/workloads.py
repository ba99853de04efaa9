"""The four benchmark workloads.

Each workload builds every input from the benchmark seed in ``setup`` and
then repeats the same pass: one client, one process, each call waiting for
the previous one (a closed loop).  Checks of the outputs run inside the
pass and go to the tally; a pass never stops on a failed check.
"""

from __future__ import annotations

import json
import os
import random

import numpy as np

from qnls import alcovefn, bae, cli, exppoly, momrep, oracle, wavefn, ybops
from qnls.exppoly import Bound
from qnls.symgroup import all_permutations, identity

LENGTH = 10.0
ROUTE_TOL = 1e-9
IDENTITY_TOL = 1e-9
QUAD_TOL = 1e-6
IDS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "verify_ids.json")


def seeded_complex_lambda(rng: random.Random, n: int) -> tuple[complex, ...]:
    """Distinct complex rapidities with pairwise gaps above 0.2, drawn like
    the acceptance tests draw theirs."""
    while True:
        lam = tuple(
            complex(rng.uniform(-1.6, 1.6), rng.uniform(-0.3, 0.3)) for _ in range(n)
        )
        gaps = [abs(lam[a] - lam[b]) for a in range(n) for b in range(a + 1, n)]
        if min(gaps) > 0.2:
            return lam


def afn_terms(F) -> int:
    return sum(len(p.terms) for p in F.pieces.values())


def eval_terms(fns, pts) -> int:
    """Terms in the pieces read by evaluating each function at each point."""
    sides = [alcovefn.ordering_permutation(x)[0] for x in pts]
    return sum(len(F.pieces[s].terms) for F in fns for s in sides)


def relative_gap(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def route_spread(columns: list[list[complex]]) -> float:
    """Worst pointwise disagreement between routes, relative to the largest
    value at the point (as ``wavefn.assert_routes_agree`` measures it)."""
    worst = 0.0
    for vals in zip(*columns):
        scale = max(max(abs(v) for v in vals), 1.0)
        worst = max(worst, max(abs(v - vals[0]) for v in vals) / scale)
    return worst


class Verify:
    """All nine identity suites through ``cli.run_suite`` at max-n 3,
    gamma 1, L 10: the verdict ``qnls verify`` gives."""

    MAX_N = 3
    GAMMA = 1.0

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, tr) -> None:
        with open(IDS_PATH) as fh:
            self.expected = json.load(fh)

    def run_pass(self, tr, tally) -> int:
        for suite, ids in self.expected.items():
            with tally.op(f"suite {suite}"):
                with tr.span(f"cli.suite.{suite}"):
                    records = cli.run_suite(suite, self.MAX_N, self.GAMMA, LENGTH, self.seed)
                failing = [r for r in records if not r["pass"]]
                tr.add("cli.records", len(records))
                tr.add("cli.records_failed", len(failing))
                for r in records:
                    tally.check(
                        r["pass"],
                        f"{suite} {r['identity_id']} n={r['n']} residual {r['max_residual']:.3e}",
                    )
                got = sorted({r["identity_id"] for r in records})
                tally.check(got == ids, f"{suite} identity ids {got} != {ids}")
        return 0


class Routes:
    """Every pre route (creation_plus included) and every Bethe route for
    seeded complex rapidities, cross-checked at interior points."""

    NS = (2, 3, 4)
    GAMMAS = (-0.7, 1.3)
    POINTS = 50

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, tr) -> None:
        rng = random.Random(self.seed)
        self.cases = []
        for n in self.NS:
            for gamma in self.GAMMAS:
                r = wavefn.RapiditySet(seeded_complex_lambda(rng, n), gamma, LENGTH)
                pts = alcovefn.sample_interior(n, self.POINTS, LENGTH, rng.getrandbits(32))
                self.cases.append((r, pts))

    def run_pass(self, tr, tally) -> int:
        for r, pts in self.cases:
            with tally.op(f"routes n={r.n} gamma={r.gamma}"):
                built = {}
                for route in wavefn.PRE_ROUTES:
                    with tr.span(f"wavefn.pre.{route}"):
                        built["pre", route] = wavefn.prewavefunction(r, route)
                for route in wavefn.BETHE_ROUTES:
                    with tr.span(f"wavefn.bethe.{route}"):
                        built["bethe", route] = wavefn.bethe_wavefunction(r, route)
                if r.n == 4:
                    for (kind, route), F in built.items():
                        tr.peak(f"wavefn.{kind}.{route}_n4_terms", afn_terms(F))
                with tr.span("alcovefn.eval"):
                    values = {key: [F.eval(x) for x in pts] for key, F in built.items()}
                tr.add("alcovefn.eval_calls", len(built) * len(pts))
                tr.add("alcovefn.eval_terms", eval_terms(built.values(), pts))
                for kind in ("pre", "bethe"):
                    spread = route_spread([v for (k, _), v in values.items() if k == kind])
                    tr.peak("wavefn.route_spread", spread)
                    tally.check(
                        spread <= ROUTE_TOL,
                        f"{kind} routes disagree by {spread:.3e} at n={r.n} gamma={r.gamma}",
                    )
        return 0


class Tabulate:
    """The ``qnls eval`` read path: psi (propagation route) and Psi
    (explicit route) for seeded on-shell rapidities, evaluated at many
    seeded interior points.  Solving and construction are set-up."""

    NS = (3, 4)
    GAMMA = 1.0
    POINTS = 1000
    SWAPPED_POINTS = 50

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, tr) -> None:
        rng = random.Random(self.seed)
        self.cases = []
        for n in self.NS:
            # the ground state with its top quantum number raised by 1 to 3, the
            # family the acceptance tests use; solve_bae does not converge on
            # some other sets (the N=4 ground state among them)
            twice = [n - 1 - 2 * j for j in range(n)]
            twice[0] += 2 * rng.randint(1, 3)
            qn = bae.QuantumNumbers(tuple(twice))
            with tr.span("bae.solve"):
                r = bae.solve_bae(qn, self.GAMMA, LENGTH)
            tr.peak("bae.iterations", bae.solve_bae.last_iterations)
            with tr.span("wavefn.pre.propagation"):
                psi = wavefn.prewavefunction(r, "propagation")
            with tr.span("wavefn.bethe.explicit"):
                Psi = wavefn.bethe_wavefunction(r, "explicit")
            pts = alcovefn.sample_interior(n, self.POINTS, LENGTH, rng.getrandbits(32))
            swapped = []
            for x in pts[: self.SWAPPED_POINTS]:
                a, b = rng.sample(range(n), 2)
                y = list(x)
                y[a], y[b] = y[b], y[a]
                swapped.append(tuple(y))
            terms = eval_terms([psi, Psi], pts) + eval_terms([Psi], swapped)
            self.cases.append({"n": n, "psi": psi, "Psi": Psi, "pts": pts,
                               "swapped": swapped, "terms": terms, "first": None})

    def run_pass(self, tr, tally) -> int:
        evals = 0
        for case in self.cases:
            with tally.op(f"tabulate n={case['n']}"):
                psi, Psi = case["psi"], case["Psi"]
                with tr.span("alcovefn.eval"):
                    rows = [(psi.eval(x), Psi.eval(x)) for x in case["pts"]]
                    mirrored = [Psi.eval(y) for y in case["swapped"]]
                calls = 2 * len(rows) + len(mirrored)
                evals += calls
                tr.add("alcovefn.eval_calls", calls)
                tr.add("alcovefn.eval_terms", case["terms"])
                worst = max(relative_gap(v, row[1]) for v, row in zip(mirrored, rows))
                tally.check(
                    worst <= IDENTITY_TOL,
                    f"Psi not symmetric at n={case['n']}: {worst:.3e}",
                )
                if case["first"] is None:
                    case["first"] = rows
                else:
                    tally.check(
                        rows == case["first"],
                        f"values at n={case['n']} differ from the first pass",
                    )
        return evals


class Kernels:
    """Direct calls into each module's public operations on seeded inputs,
    so exppoly, momrep and oracle get spans of their own."""

    GAMMA = 1.3
    MOMREP_NS = (3, 4)
    ALCOVE_NS = (3, 4)
    YB_NS = (2, 3)
    CHECK_POINTS = 10
    NONSYMMETRIC = (("a", 2), ("b+", 3), ("b-", 3), ("c+", 1), ("c-", 1), ("d", 2))
    SYMMETRIC = (("A", 2), ("B", 3), ("C", 1), ("D", 2))

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, tr) -> None:
        rng = random.Random(self.seed)
        self.mu = rng.uniform(-1.0, 1.0)
        self.momrep_cases = []
        for n in self.MOMREP_NS:
            lam = seeded_complex_lambda(rng, n)
            pts = alcovefn.sample_interior(n, 2, LENGTH, rng.getrandbits(32))
            self.momrep_cases.append((momrep.orbit_planewave(lam), pts))
        self.alcove_cases = []
        for n in self.ALCOVE_NS:
            r = wavefn.RapiditySet(seeded_complex_lambda(rng, n), self.GAMMA, LENGTH)
            pts = alcovefn.sample_interior(n, self.CHECK_POINTS, LENGTH, rng.getrandbits(32))
            lo = rng.uniform(-LENGTH / 2, 0.0)
            self.alcove_cases.append((r, exppoly.plane_wave(r.lam), pts, lo, lo + 2.0))
        self.yb_cases = []
        for n in self.YB_NS:
            r = wavefn.RapiditySet(seeded_complex_lambda(rng, n), self.GAMMA, LENGTH)
            psi = wavefn.prewavefunction(r)
            Psi = wavefn.bethe_wavefunction(r, "explicit")
            # the quadrature oracle is checked at one point per family on N=2 input
            quad = {
                fam: alcovefn.sample_interior(out_n, 1, LENGTH, rng.getrandbits(32))[0]
                for fam, out_n in self.NONSYMMETRIC + self.SYMMETRIC
            } if n == 2 else {}
            self.yb_cases.append((psi, Psi, quad))

    def run_pass(self, tr, tally) -> int:
        self._momrep(tr, tally)
        self._alcovefn(tr, tally)
        self._ybops(tr, tally)
        return 0

    def _momrep(self, tr, tally) -> None:
        for o, pts in self.momrep_cases:
            for w in all_permutations(o.n):
                with tally.op(f"deformed word {w}"):
                    with tr.span("momrep.apply_deformed_word"):
                        table = momrep.apply_deformed_word(o, w, self.GAMMA)
                    with tr.span("exppoly.canonicalize"):
                        merged = {s: exppoly.canonicalize(p) for s, p in table.entries.items()}
                    terms_in = sum(len(p.terms) for p in table.entries.values())
                    tr.add("momrep.deformed_terms", terms_in)
                    tr.add("exppoly.canonicalize_terms_in", terms_in)
                    tr.add("exppoly.canonicalize_terms_out", sum(len(p.terms) for p in merged.values()))
                    # every entry carries 3^l(w) terms; one stands for all in the check
                    before, after = table.entries[identity(o.n)], merged[identity(o.n)]
                    with tr.span("exppoly.eval"):
                        worst = max(relative_gap(before.eval(x), after.eval(x)) for x in pts)
                    tally.check(
                        worst <= IDENTITY_TOL,
                        f"canonicalize changed values by {worst:.3e} (n={o.n}, w={w})",
                    )

    def _alcovefn(self, tr, tally) -> None:
        for r, wave, pts, lo, hi in self.alcove_cases:
            n, gamma = r.n, r.gamma
            with tally.op(f"alcovefn n={n}"):
                with tr.span("alcovefn.propagation"):
                    psi = alcovefn.propagation(wave, gamma)
                with tr.span("alcovefn.symmetrize"):
                    sym = alcovefn.symmetrize(psi)
                with tr.span("alcovefn.dunkl"):
                    dunkl = [alcovefn.dunkl(psi, j, gamma) for j in range(1, n + 1)]
                with tr.span("wavefn.bethe.explicit"):
                    explicit = wavefn.bethe_wavefunction(r, "explicit")
                tr.add("alcovefn.propagation_terms", afn_terms(psi))
                tr.add("alcovefn.symmetrize_terms", afn_terms(sym))
                with tr.span("alcovefn.eval"):
                    base = [psi.eval(x) for x in pts]
                    applied = [[D.eval(x) for x in pts] for D in dunkl]
                    pairs = [(sym.eval(x), explicit.eval(x)) for x in pts]
                tr.add("alcovefn.eval_calls", len(pts) * (n + 3))
                tr.add("alcovefn.eval_terms", eval_terms([psi, *dunkl, sym, explicit], pts))
                worst = max(
                    relative_gap(got, 1j * r.lam[j] * want)
                    for j, column in enumerate(applied)
                    for got, want in zip(column, base)
                )
                tally.check(worst <= IDENTITY_TOL, f"Dunkl eigenrelation off by {worst:.3e} at n={n}")
                worst = max(relative_gap(a, b) for a, b in pairs)
                tally.check(worst <= ROUTE_TOL, f"symmetrize != explicit by {worst:.3e} at n={n}")

                piece = psi.pieces[identity(n)]
                with tr.span("exppoly.integrate"):
                    integral = exppoly.integrate(piece, 1, Bound.const(lo), Bound.const(hi))
                with tr.span("exppoly.mul"):
                    square = exppoly.mul(piece, piece)
                x = pts[0]
                with tr.span("exppoly.eval"):
                    got = integral.eval(x)
                    want = _gauss_legendre(lambda t: piece.eval((t,) + x[1:]), lo, hi)
                    sq, base_val = square.eval(x), piece.eval(x)
                tally.check(relative_gap(got, want) <= IDENTITY_TOL,
                            f"integrate off by {relative_gap(got, want):.3e} at n={n}")
                tally.check(relative_gap(sq, base_val * base_val) <= IDENTITY_TOL,
                            f"mul off by {relative_gap(sq, base_val * base_val):.3e} at n={n}")

    def _ybops(self, tr, tally) -> None:
        for psi, Psi, quad in self.yb_cases:
            inputs = [(fam, psi) for fam, _ in self.NONSYMMETRIC] + [(fam, Psi) for fam, _ in self.SYMMETRIC]
            for fam, source in inputs:
                with tally.op(f"ybops {fam} on n={psi.n}"):
                    symmetric = fam.isupper()
                    span = "ybops.apply_symmetric" if symmetric else "ybops.apply_nonsymmetric"
                    apply = ybops.apply_symmetric if symmetric else ybops.apply_nonsymmetric
                    with tr.span(span):
                        out = apply(fam, self.mu, source, self.GAMMA, LENGTH)
                    tr.add("ybops.out_terms", afn_terms(out))
                    if fam not in quad:
                        continue
                    x = quad[fam]
                    with tr.span("oracle.quad_apply"):
                        want = oracle.quad_apply(fam, self.mu, source, self.GAMMA, LENGTH, x)
                    with tr.span("alcovefn.eval"):
                        got = out.eval(x)
                    tr.add("alcovefn.eval_calls", 1)
                    tr.add("alcovefn.eval_terms", eval_terms([out], [x]))
                    tr.add("oracle.quad_points", 1)
                    tally.check(relative_gap(got, want) <= QUAD_TOL,
                                f"{fam} exact vs quadrature off by {relative_gap(got, want):.3e}")


def _gauss_legendre(func, a: float, b: float, nodes: int = 48) -> complex:
    """A plain fixed-order rule, independent of qnls.oracle."""
    ts, ws = np.polynomial.legendre.leggauss(nodes)
    mid, half = (a + b) / 2, (b - a) / 2
    return half * sum(complex(w) * func(mid + half * float(t)) for t, w in zip(ts, ws))


WORKLOADS = {"verify": Verify, "routes": Routes, "tabulate": Tabulate, "kernels": Kernels}
