"""Command-line interface: solve Bethe equations, evaluate wavefunctions,
and run the identity verification suites of ``qnls.suites``.

Exit codes: 0 success, 1 usage error, 2 solver non-convergence, 3 at
least one identity check failed.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import json
import os
import sys
from typing import Sequence

from . import alcovefn, bae, suites, wavefn
from .suites import SUITES, run_suite
from .wavefn import RapiditySet

__all__ = ["main", "SUITES", "run_suite", "parse_complex"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_IDENTITY_FAILURE = 3


def parse_complex(text: str) -> complex:
    """Complex numbers with an i suffix, e.g. '1.5+0.2i' or '-3i'."""
    return complex(text.strip().replace("i", "j").replace(" ", ""))


def parse_complex_list(text: str) -> tuple[complex, ...]:
    return tuple(parse_complex(part) for part in text.split(",") if part.strip())


def load_config(path: str) -> dict[str, str]:
    """key=value lines; blank lines and # comments ignored."""
    out: dict[str, str] = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _finite(convert=float, positive: bool = False):
    """An option type: the text converted, refused unless every value is
    finite (and, if positive, above zero)."""

    def check(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        values = value if isinstance(value, tuple) else (value,)
        if not values:
            raise argparse.ArgumentTypeError("needs at least one value")
        if not all(cmath.isfinite(v) and (not positive or v > 0) for v in values):
            what = "finite and positive" if positive else "finite"
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value

    return check


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _check_n(args, count: int, what: str) -> None:
    if args.n is not None and count != args.n:
        raise ValueError(f"--n {args.n} does not match {count} {what}")


def _quantum_numbers(args) -> bae.QuantumNumbers:
    """--quantum-numbers, checked against --n."""
    qn = bae.QuantumNumbers.from_values([float(v) for v in args.quantum_numbers.split(",")])
    _check_n(args, qn.n, "quantum numbers")
    return qn


def _cmd_solve(args) -> int:
    if args.quantum_numbers is None:
        raise ValueError("solve requires --quantum-numbers")
    qn = _quantum_numbers(args)
    with _writer(args.out) as write:
        # a solver that does not converge raises RuntimeError
        r = bae.solve_bae(qn, args.gamma, args.length)
        residual = max(abs(v) for v in bae.bae_residual(r.lam, r.gamma, r.length))
        write(bae.solution_to_json(r, residual, bae.solve_bae.last_iterations))
    return EXIT_OK


def _rapidities(args, lam) -> RapiditySet:
    """lam as a RapiditySet, refused if degenerate without --allow-degenerate."""
    r = RapiditySet(lam, args.gamma, args.length)
    if not (r.is_regular() or args.allow_degenerate):
        raise ValueError("degenerate rapidities; pass --allow-degenerate to evaluate the limit")
    return r


def _cmd_eval(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    if args.lam is not None:
        _check_n(args, len(args.lam), "rapidities")
        r = _rapidities(args, args.lam)
    elif args.quantum_numbers is not None:
        qn = _quantum_numbers(args)
    else:
        raise ValueError("eval requires --lambda or --quantum-numbers")
    with _writer(args.out) as write:
        if args.lam is None:
            r = _rapidities(args, bae.solve_bae(qn, args.gamma, args.length).lam)
        _tabulate(args, r, write)
    return EXIT_OK


def _tabulate(args, r: RapiditySet, write) -> None:
    """Write psi and Psi of r at --count seeded interior points as CSV."""
    psi = wavefn.prewavefunction(r)
    Psi = alcovefn.symmetrize(psi)
    n = r.n
    points = alcovefn.sample_interior(n, args.count, args.length, args.seed)
    lines = [
        f"# n={n}",
        f"# gamma={args.gamma!r}",
        f"# length={args.length!r}",
        f"# seed={args.seed}",
        "# lambda=" + ",".join(_fmt_complex(v) for v in r.lam),
        ",".join(
            [f"x{j}" for j in range(1, n + 1)]
            + ["re_pre", "im_pre", "re_sym", "im_sym"]
        ),
    ]
    for x in points:
        vp = psi.eval(x)
        vs = Psi.eval(x)
        lines.append(
            ",".join(
                [f"{c:.17g}" for c in x]
                + [f"{vp.real:.17g}", f"{vp.imag:.17g}", f"{vs.real:.17g}", f"{vs.imag:.17g}"]
            )
        )
    write("\n".join(lines))


def _fmt_complex(v: complex) -> str:
    return f"{v.real:.17g}{v.imag:+.17g}i"


def _max_n(args) -> int:
    """The effective max-n (--n wins over --max-n).  One below 2 is
    refused: no suite would check more than at 2, and Q-operator less."""
    max_n = args.n if args.n is not None else args.max_n
    if max_n < 2:
        raise ValueError(f"max-n must be at least 2, got {max_n}")
    return max_n


def _records(args, names):
    """The records of the named suites, as ``suites.stream`` yields them."""
    chosen = [(name, SUITES[name]) for name in names]
    return suites.stream(chosen, _max_n(args), args.gamma, args.length, args.seed)


def _cmd_verify(args) -> int:
    by_lower = {name.lower(): name for name in SUITES}
    if args.suite.lower() == "all":
        names = list(SUITES)
    elif args.suite.lower() in by_lower:
        names = [by_lower[args.suite.lower()]]
    else:
        raise ValueError(f"unknown suite {args.suite!r}; choose from {sorted(SUITES)}")
    # a bad max-n raises here, before the output file is opened
    records = _records(args, names)
    failed = False
    with _writer(args.out) as write:
        for rec in records:
            write(json.dumps(rec, sort_keys=True))
            failed = failed or not rec["pass"]
    return EXIT_IDENTITY_FAILURE if failed else EXIT_OK


def _cmd_report(args) -> int:
    report = {"max_n": _max_n(args), "gamma": args.gamma, "length": args.length, "seed": args.seed}
    with _writer(args.out) as write:
        grouped = {name: [] for name in SUITES}
        for rec in _records(args, SUITES):
            grouped[rec.pop("suite")].append(rec)
        report["suites"] = {}
        for name, recs in grouped.items():
            row = suites.PARTICLES[name]
            ns = row.ns(report["max_n"])
            report["suites"][name] = {"records": recs, "pass": all(rec["pass"] for rec in recs),
                                      "n_checked": [ns[0], ns[-1]], "n_reason": row.reason}
        report["pass"] = all(suite["pass"] for suite in report["suites"].values())
        write(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if report["pass"] else EXIT_IDENTITY_FAILURE


@contextlib.contextmanager
def _writer(out: str | None):
    """A function that writes one line and flushes it, to the file out or
    to stdout.  Once stdout's reader is gone (say, `| head`), lines go
    nowhere, so the command still runs to its end and its exit code."""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:

        def write(line: str) -> None:
            try:
                fh.write(line + "\n")
                fh.flush()
            except BrokenPipeError:
                # later lines and the flush at exit go to the null device
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)

        yield write


# add_argument keywords of each option, by long name
_OPTIONS: dict[str, dict] = {
    "n": dict(type=int),
    "gamma": dict(type=_finite(), default=1.0),
    "length": dict(type=_finite(positive=True), default=10.0),
    "seed": dict(type=int, default=alcovefn.DEFAULT_SEED),
    "out": {},
    "quantum-numbers": {},
    "lambda": dict(dest="lam", type=_finite(parse_complex_list), help="rapidities, i-suffix complex"),
    "count": dict(type=int, default=20, help="number of sample points"),
    "allow-degenerate": dict(action="store_true"),
    "suite": dict(default="all"),
    "max-n": dict(type=int, default=3),
}

# each subcommand: handler, help and the long names of its options
_COMMANDS = {
    "solve": (_cmd_solve, "solve the Bethe equations", "n gamma length out quantum-numbers"),
    "eval": (
        _cmd_eval,
        "tabulate wavefunction values as CSV",
        "n gamma length seed out quantum-numbers lambda count allow-degenerate",
    ),
    "verify": (_cmd_verify, "run one identity suite (or all)", "n gamma length seed out suite max-n"),
    "report": (
        _cmd_report, "run every suite and emit one JSON report", "n gamma length seed out max-n"
    ),
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and, by name, its subcommand parsers."""
    parser = argparse.ArgumentParser(
        prog="qnls",
        description="Exact construction and verification for the quantum "
        "nonlinear Schroedinger model on an interval.",
    )
    parser.add_argument("--config", help="key=value config file; flags override it")
    sub = parser.add_subparsers(dest="command")
    commands = {}
    for command, (_, text, names) in _COMMANDS.items():
        commands[command] = sub.add_parser(command, help=text)
        for name in names.split():
            commands[command].add_argument(f"--{name}", **_OPTIONS[name])
    return parser, commands


def _config_defaults(command: str, path: str) -> dict[str, str]:
    """The config file's values by option dest.  A key is a long option name
    of the command, in - or _ spelling; allow-degenerate is a flag only."""
    names = _COMMANDS[command][2].split()
    defaults = {}
    for key, value in load_config(path).items():
        name = key.replace("_", "-")
        if name not in names or name == "allow-degenerate":
            raise ValueError(f"{command} takes no option {key!r}")
        defaults[_OPTIONS[name].get("dest", name.replace("-", "_"))] = value
    return defaults


def _join_value_flags(argv: list[str]) -> list[str]:
    """Fuse flags with their (possibly leading-minus) values so argparse
    does not mistake '-0.5,0.5' for an option."""
    fused = ("--quantum-numbers", "--lambda", "--gamma", "--length")
    out = []
    skip = False
    for pos, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in fused and pos + 1 < len(argv):
            out.append(f"{token}={argv[pos + 1]}")
            skip = True
        else:
            out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    parser, commands = _build_parser()
    argv = _join_value_flags(list(sys.argv[1:] if argv is None else argv))
    try:
        args = parser.parse_args(argv)
        if args.command is not None and args.config:
            # config values become the defaults, so flags win and argparse
            # converts them with each option's own type
            commands[args.command].set_defaults(**_config_defaults(args.command, args.config))
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except (OSError, ValueError) as exc:
        print(f"bad config file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command][0](args)
    except (ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
