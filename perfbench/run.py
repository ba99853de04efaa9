"""qnls benchmark: one workload per run, measured for a fixed time.

    python3 perfbench/run.py --workload tabulate --seed 1 --seconds 20 --trace 0

Run from the repository root.  It imports qnls from ``src/`` of the
same tree, builds every input from ``--seed``, sets up several times in
fresh interpreters (``setup_s``), then repeats the workload's pass until
``--seconds`` have elapsed.  It prints each metric by name and unit, then,
as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` passes alternate untraced and traced, and the metrics
are the per-layer ones; spans are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

from tracing import NULL_TRACER, Tally, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 9
# a pass that starts before the deadline runs to its end; at least this many run
MIN_PASSES = 3
TAIL_BEYOND = 10
PROBE_INTERVAL = 0.25


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("verify", "routes", "tabulate", "kernels"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="internal: import and set up once, print the seconds taken")
    return p.parse_args(argv)


def load_workloads():
    """Import qnls from this tree's src/ only; exit non-zero without it."""
    sys.path.insert(0, SRC)
    try:
        import qnls
        import workloads
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import qnls from {SRC}: {exc}")
    if not os.path.abspath(qnls.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: qnls was imported from {qnls.__file__}, not {SRC}")
    return workloads


def timed_setup(args) -> float:
    """Seconds a fresh interpreter takes to import qnls and set up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        sys.exit(f"perfbench: set-up failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def machine() -> dict:
    import numpy

    digest = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(SRC)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


class SpeedProbe:
    """Times a short fixed loop of the tuple, dict and complex work qnls
    does: before and after each pass, and every PROBE_INTERVAL seconds
    inside it from a timer signal.  Pass time over the mean probe time
    cancels the machine's speed during the pass, which on a shared host
    drifts by tens of percent for minutes at a time."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def sample(self, *_) -> None:
        # a collection of qnls's heap must not land inside the probe
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        acc = {}
        z = 0.3 + 0.1j
        for i in range(10000):
            key = (i % 97, i % 13)
            acc[key] = acc.get(key, 0j) + z * i
        elapsed = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL, PROBE_INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


def tail(times: list[float]) -> tuple[float, float] | None:
    """The highest percentile with TAIL_BEYOND samples above it, and its value."""
    if len(times) <= TAIL_BEYOND:
        return None
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / len(ordered), ordered[k]


class Run:
    """Timings of one run: passes alternate untraced and traced when
    tracing is on, and fresh-interpreter set-ups are spread over the run."""

    def __init__(self, args, wl, tracer, tally) -> None:
        self.untraced, self.traced, self.relative, self.setups = [], [], [], []
        self.evals = 0
        setup_due = [] if args.trace else [args.seconds * k / SETUP_REPEATS for k in range(SETUP_REPEATS)]
        begin = time.perf_counter()
        index = 0
        while index < MIN_PASSES or time.perf_counter() < begin + args.seconds:
            while setup_due and time.perf_counter() >= begin + setup_due[0]:
                self.setups.append(timed_setup(args))
                setup_due.pop(0)
            on = bool(args.trace and index % 2)
            tr = tracer if on else NULL_TRACER
            if on:
                tracer.group = f"pass-{index}"
            # each pass starts without the previous pass's garbage
            gc.collect()
            probe = SpeedProbe()
            probe.sample()
            if on:
                t0 = time.perf_counter()
                with tr.span("bench.pass"):
                    wl.run_pass(tr, tally)
                self.traced.append(time.perf_counter() - t0)
            else:
                with probe:
                    t0 = time.perf_counter()
                    evals = wl.run_pass(tr, tally)
                    elapsed = time.perf_counter() - t0 - (probe.spent - probe.samples[0])
                probe.sample()
                self.untraced.append(elapsed)
                self.relative.append(elapsed / statistics.mean(probe.samples))
                self.evals += evals
            index += 1
        self.setups += [timed_setup(args) for _ in setup_due]

    def table(self, tally) -> list[tuple]:
        """(name, value, unit, note) for every end-to-end metric."""
        n = len(self.untraced)
        rows = []
        if self.setups:
            rows.append(("setup_s", statistics.median(self.setups), "s",
                         f"median of {len(self.setups)} set-ups"))
        rows.append(("pass_s", statistics.median(self.untraced), "s", f"median of {n} passes"))
        rows.append(("pass_rel", statistics.median(self.relative), "ratio",
                     f"median of {n} passes, each over the reference loop around it"))
        t = tail(self.untraced)
        rows.append(("pass_tail_s", t[1], "s", f"p{t[0]:.1f} of {n} passes") if t else
                    ("pass_tail_s", None, "s", f"needs {TAIL_BEYOND + 1} passes, had {n}"))
        if self.evals:
            rows.append(("evals_per_s", self.evals / sum(self.untraced), "1/s", f"{self.evals} evals"))
        rows.append(("fail_frac", tally.failed / max(tally.attempted, 1), "ratio",
                     f"{tally.failed} failed of {tally.attempted} checks"))
        rows.append(("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", ""))
        return rows


def main(argv=None) -> int:
    start = time.perf_counter()
    args = parse_args(argv)
    workloads = load_workloads()
    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        wl.setup(NULL_TRACER)
        print(time.perf_counter() - start)
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    tracer = Tracer() if args.trace else NULL_TRACER
    tally = Tally()
    wl.setup(tracer)
    run = Run(args, wl, tracer, tally)

    if args.trace:
        wanted = spec["per_layer"]
        measured = tracer.metrics()
        measured["bench.trace_overhead_s"] = (
            statistics.median(run.traced) - statistics.median(run.untraced)
        )
        unknown = sorted(set(measured) - {m["name"] for m in wanted})
        if unknown:
            sys.exit(f"perfbench: metrics missing from BENCHMARK.json per_layer: {unknown}")
        # a layer this workload never calls measures 0
        table = [(m["name"], measured.get(m["name"], 0), m["unit"], "") for m in wanted]
    else:
        wanted = spec["end_to_end"]
        table = run.table(tally)
        measured = {name: value for name, value, _, _ in table if value is not None}
        missing = [m["name"] for m in wanted if m["name"] not in measured]
        if missing:
            sys.exit(f"perfbench: end-to-end metrics not measured: {missing}")
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    info = machine()
    print(f"# qnls benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# machine: {json.dumps(info)}")
    for name, value, unit, note in table:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:40s} {shown:>14s} {unit:6s} {note}".rstrip())

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "machine": info, "metrics": metrics, "setups_s": run.setups,
                   "untraced_pass_s": run.untraced, "traced_pass_s": run.traced,
                   "spans": tracer.dump() if args.trace else []}, fh)

    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
