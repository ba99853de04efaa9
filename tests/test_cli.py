"""Command-line interface: parsing, commands, exit codes, determinism."""

import cmath
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qnls import bae, cli, suites, wavefn, ybops


def test_parse_complex():
    assert cli.parse_complex("1.5+0.2i") == 1.5 + 0.2j
    assert cli.parse_complex("-3i") == -3j
    assert cli.parse_complex("2") == 2 + 0j
    assert cli.parse_complex_list("0.5,-0.5i") == (0.5 + 0j, -0.5j)


def test_join_value_flags():
    argv = ["solve", "--quantum-numbers", "-0.5,0.5", "--gamma", "1"]
    assert cli._join_value_flags(argv) == [
        "solve",
        "--quantum-numbers=-0.5,0.5",
        "--gamma=1",
    ]


def test_solve_command_json(tmp_path):
    out = tmp_path / "sol.json"
    code = cli.main(
        ["solve", "--n", "2", "--gamma", "1", "--length", "10",
         "--quantum-numbers", "-0.5,0.5", "--out", str(out)]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["residual"] < 1e-10
    lam = [v[0] + 1j * v[1] for v in data["lambda"]]
    assert abs(lam[0] + lam[1]) < 1e-12  # symmetric quantum numbers


def test_solve_usage_errors():
    assert cli.main(["solve", "--gamma", "1", "--length", "10"]) == 1
    assert (
        cli.main(
            ["solve", "--n", "3", "--gamma", "1", "--length", "10",
             "--quantum-numbers", "-0.5,0.5"]
        )
        == 1
    )


def test_solver_failure_exit_two(tmp_path, monkeypatch, capsys):
    def diverging(qn, gamma, length):
        raise RuntimeError("Armijo backtracking failed")

    monkeypatch.setattr(bae, "solve_bae", diverging)
    for command in ("solve", "eval"):
        args = [command, "--quantum-numbers", "-0.5,0.5", "--out", str(tmp_path / "o")]
        assert cli.main(args) == 2
        assert "Armijo backtracking failed" in capsys.readouterr().err


def test_nonfinite_gamma_refused_by_solve(capsys):
    args = ["solve", "--quantum-numbers", "-0.5,0.5", "--gamma", "inf"]
    assert cli.main(args) == 1
    assert "--gamma" in capsys.readouterr().err


def test_nonfinite_gamma_refused_by_verify(tmp_path):
    out = tmp_path / "v.jsonl"
    assert cli.main(["verify", "--suite", "QNLS-eigen", "--gamma", "nan", "--out", str(out)]) == 1
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("gamma=nan\n")
    assert cli.main(["--config", str(cfg), "verify", "--suite", "QNLS-eigen", "--out", str(out)]) == 1
    assert not out.exists()


def test_nonfinite_lambda_refused(tmp_path, capsys):
    args = ["eval", "--lambda", "0.8,nan", "--allow-degenerate", "--out", str(tmp_path / "e.csv")]
    assert cli.main(args) == 1
    assert "--lambda" in capsys.readouterr().err


def test_infinite_quantum_number_refused(tmp_path, capsys):
    # round(2 * inf) raises OverflowError, which is no usage error
    out = tmp_path / "o"
    assert cli.main(["solve", "--quantum-numbers", "inf,0.5", "--out", str(out)]) == 1
    assert "error: quantum number inf is not finite" in capsys.readouterr().err
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("quantum-numbers=1e400,0.5\n")
    assert cli.main(["--config", str(cfg), "eval", "--out", str(out)]) == 1
    assert "error: quantum number inf is not finite" in capsys.readouterr().err
    assert not out.exists()


def _run_qnls(*args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """The qnls command in a subprocess, so a command that never returns
    fails its test at the timeout instead of hanging the run."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "qnls.cli", *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )


@pytest.mark.parametrize(
    "args",
    [
        # no sample point fits in a box of width 0 or inf
        ["verify", "--length", "0"],
        ["eval", "--lambda", "0.8,-0.45", "--length", "inf"],
    ],
)
def test_bad_length_refused(args):
    proc = _run_qnls(*args)
    assert proc.returncode == 1
    assert "--length" in proc.stderr and proc.stdout == ""


def test_verify_on_a_length_without_room_fails_its_suites():
    # a box narrower than the sample gap floor: every suite that samples
    # ends in a suite-error record instead of drawing points forever
    proc = _run_qnls("verify", "--length", "1e-7")
    assert proc.returncode == 3
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    errors = [rec for rec in records if rec["identity_id"] == "suite-error"]
    assert errors and all("too short" in rec["error"] for rec in errors)


def test_eval_csv_round_trip(tmp_path):
    out = tmp_path / "vals.csv"
    code = cli.main(
        ["eval", "--lambda", "0.8,-0.45", "--gamma", "1.3", "--length", "10",
         "--count", "5", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    meta = [l for l in lines if l.startswith("#")]
    assert any(l.startswith("# lambda=") for l in meta)
    header = [l for l in lines if not l.startswith("#")][0].split(",")
    rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert header == ["x1", "x2", "re_pre", "im_pre", "re_sym", "im_sym"]

    # re-evaluate from the CSV-declared rapidities and compare
    lam_text = next(l for l in meta if l.startswith("# lambda=")).split("=", 1)[1]
    lam = cli.parse_complex_list(lam_text)
    from qnls import wavefn

    r = wavefn.RapiditySet(lam, 1.3, 10.0)
    psi = wavefn.prewavefunction(r)
    Psi = wavefn.bethe_wavefunction(r)
    for row in rows:
        x = (float(row[0]), float(row[1]))
        assert abs(psi.eval(x) - complex(float(row[2]), float(row[3]))) < 1e-12
        assert abs(Psi.eval(x) - complex(float(row[4]), float(row[5]))) < 1e-12


def test_eval_two_particle_closed_form(tmp_path):
    # on the region x1 > x2 the symmetric wavefunction is the two-term
    # gamma-weighted superposition of plane waves
    out = tmp_path / "vals.csv"
    lam = (0.9, -0.3)
    gamma, length = 1.0, 10.0
    assert (
        cli.main(
            ["eval", "--lambda", "0.9,-0.3", "--gamma", "1", "--length", "10",
             "--count", "8", "--out", str(out)]
        )
        == 0
    )
    rows = [
        l.split(",")
        for l in out.read_text().strip().splitlines()
        if not l.startswith("#") and not l.startswith("x1")
    ]

    def closed_form(x):
        hi, lo = max(x), min(x)

        def g(a, b):
            return (a - b - 1j * gamma) / (a - b)

        return 0.5 * (
            g(lam[0], lam[1]) * cmath.exp(1j * (lam[0] * hi + lam[1] * lo))
            + g(lam[1], lam[0]) * cmath.exp(1j * (lam[1] * hi + lam[0] * lo))
        )

    for row in rows:
        x = (float(row[0]), float(row[1]))
        got = complex(float(row[4]), float(row[5]))
        assert abs(got - closed_form(x)) < 1e-12


def test_eval_degenerate_needs_flag(tmp_path):
    for lam in ("0.5,0.5", "0.3,0.3,0.3,0.3"):
        base = ["eval", "--lambda", lam, "--gamma", "1", "--length", "10",
                "--count", "2", "--out", str(tmp_path / "d.csv")]
        assert cli.main(base) == 1
        assert cli.main(base + ["--allow-degenerate"]) == 0


def test_eval_negative_count_exit_one(tmp_path, capsys):
    args = ["eval", "--lambda", "0.8,-0.45", "--gamma", "1", "--length", "10",
            "--count", "-1", "--out", str(tmp_path / "e.csv")]
    assert cli.main(args) == 1
    assert "--count" in capsys.readouterr().err


def test_eval_empty_lambda_exit_one(tmp_path, capsys):
    args = ["eval", "--lambda", ",", "--gamma", "1", "--length", "10",
            "--out", str(tmp_path / "e.csv")]
    assert cli.main(args) == 1
    assert "--lambda" in capsys.readouterr().err


def test_verify_single_suite_exit_zero(tmp_path):
    out = tmp_path / "v.jsonl"
    code = cli.main(
        ["verify", "--suite", "wavefunction-routes", "--max-n", "2",
         "--out", str(out)]
    )
    assert code == 0
    records = [json.loads(l) for l in out.read_text().strip().splitlines()]
    assert all(rec["pass"] for rec in records)
    assert {"identity_id", "n", "gamma", "length", "max_residual", "pass", "suite"} <= set(
        records[0]
    )


def test_verify_lowercase_suite_alias(tmp_path):
    out = tmp_path / "v.jsonl"
    assert cli.main(["verify", "--suite", "aba", "--n", "2", "--out", str(out)]) == 0


def test_verify_all_in_any_case(tmp_path, monkeypatch):
    def passing(max_n, gamma, length, seed):
        return [{"identity_id": "ok", "n": max_n, "gamma": gamma, "length": length,
                 "max_residual": 0.0, "pass": True}]

    monkeypatch.setattr(cli, "SUITES", {"one": passing, "two": passing})
    out = tmp_path / "v.jsonl"
    assert cli.main(["verify", "--suite", "ALL", "--out", str(out)]) == 0
    records = [json.loads(l) for l in out.read_text().strip().splitlines()]
    assert [rec["suite"] for rec in records] == ["one", "two"]


def test_verify_unknown_suite_exit_one():
    assert cli.main(["verify", "--suite", "bogus"]) == 1


def test_nan_residual_fails():
    records = {rec["identity_id"]: rec for rec in cli.run_suite("dAHA-axioms", 2, float("nan"), 10.0)}
    for name in ("symbol-exchange-relation", "dunkl-commutativity", "dunkl-eigen-prewavefunction"):
        assert math.isnan(records[name]["max_residual"]) and not records[name]["pass"]


def test_appendix_a_checks_something_below_three_particles():
    records = cli.run_suite("appendix-A", 2, 1.0, 10.0)
    assert records and all(rec["pass"] for rec in records)


def test_each_suite_checks_the_particle_numbers_of_its_table_row():
    assert list(suites.PARTICLES) == list(cli.SUITES)
    records = {}
    for max_n in (2, 3, 4, 5):
        for name, row in suites.PARTICLES.items():
            records[name, max_n] = cli.run_suite(name, max_n)
            seen = {rec["n"] for rec in records[name, max_n]}
            ns = set(row.ns(max_n))
            # fixed-input suites check their own inputs, inside the row
            assert seen <= ns if row.fixed else seen == ns, (name, max_n, seen)
    # no row goes past 4, so max-n 5 checks what max-n 4 does
    assert max(row.largest for row in suites.PARTICLES.values()) == 4
    assert all(records[name, 5] == records[name, 4] for name in suites.PARTICLES)
    assert [list(suites.PARTICLES["nonsymmetric-YBA"].ns(n)) for n in (2, 4)] == [[2], [2]]


def test_report_carries_each_suite_row(tmp_path):
    out = tmp_path / "r.json"
    assert cli.main(["report", "--max-n", "4", "--out", str(out)]) == 0
    entries = json.loads(out.read_text())["suites"]
    assert sorted(entries) == sorted(suites.PARTICLES)
    for name, row in suites.PARTICLES.items():
        ns = row.ns(4)
        assert entries[name]["n_checked"] == [ns[0], ns[-1]] and entries[name]["n_reason"] == row.reason
        assert row.reason
    assert entries["nonsymmetric-YBA"]["n_checked"] == [2, 2]


def test_nonsymmetric_yba_applies_each_operator_once(monkeypatch):
    calls, held = [], []
    for name in ("apply_nonsymmetric", "apply_symmetric"):
        apply = getattr(ybops, name)

        def counted(family, nu, F, *rest, apply=apply):
            # holding F keeps its id from passing to a later input
            held.append(F)
            calls.append((family, nu, id(F)))
            return apply(family, nu, F, *rest)

        monkeypatch.setattr(ybops, name, counted)
    records = cli.run_suite("nonsymmetric-YBA", 3, 1.0, 10.0)
    assert calls and len(calls) == len(set(calls))

    # the same records as with every application computed afresh
    calls.clear()

    def afresh(gamma, length, inputs, paths):
        def apply(path):
            if len(path) == 1:
                return inputs[path[0]]
            return suites._op(*path[-1], apply(path[:-1]), gamma, length)

        return apply

    monkeypatch.setattr(suites, "_applications", afresh)
    assert cli.run_suite("nonsymmetric-YBA", 3, 1.0, 10.0) == records
    assert len(calls) > len(set(calls))


def test_max_n_below_two_rejected(capsys):
    assert cli.main(["verify", "--max-n", "1"]) == 1
    assert cli.main(["report", "--n", "1"]) == 1
    assert "max-n" in capsys.readouterr().err


def test_identity_failure_exit_three(tmp_path, monkeypatch):
    def broken(max_n, gamma, length, seed):
        return [
            {"identity_id": "broken", "n": 2, "gamma": gamma, "length": length,
             "max_residual": 1.0, "pass": False}
        ]

    monkeypatch.setitem(cli.SUITES, "wavefunction-routes", broken)
    code = cli.main(
        ["verify", "--suite", "wavefunction-routes", "--out", str(tmp_path / "v")]
    )
    assert code == 3


def test_raising_suite_becomes_failing_record(tmp_path, monkeypatch):
    def raising(max_n, gamma, length, seed):
        raise wavefn.RouteMismatchError("routes disagree")

    broken = "nonsymmetric-YBA"
    monkeypatch.setitem(cli.SUITES, broken, raising)
    out = tmp_path / "v.jsonl"
    assert cli.main(["verify", "--max-n", "2", "--out", str(out)]) == 3
    records = [json.loads(l) for l in out.read_text().strip().splitlines()]
    failed = [rec for rec in records if rec["suite"] == broken]
    assert len(failed) == 1 and not failed[0]["pass"]
    assert failed[0]["error"] == "RouteMismatchError: routes disagree"
    others = [rec for rec in records if rec["suite"] != broken]
    # suites on both sides of the broken one still write their records
    assert {"ABA", "Q-operator", "oracle-crosscheck"} <= {rec["suite"] for rec in others}
    assert all(rec["pass"] and "error" not in rec for rec in others)

    report = tmp_path / "r.json"
    assert cli.main(["report", "--max-n", "2", "--out", str(report)]) == 3
    suites = json.loads(report.read_text())["suites"]
    assert not suites[broken]["pass"]
    assert suites[broken]["records"][0]["error"] == "RouteMismatchError: routes disagree"
    assert all(suites[name]["pass"] for name in cli.SUITES if name != broken)


def test_suite_raising_midway_keeps_its_records(tmp_path, monkeypatch):
    def half(max_n, gamma, length, seed):
        yield {"identity_id": "ok", "n": 2, "gamma": gamma, "length": length,
               "max_residual": 0.0, "pass": True}
        raise wavefn.RouteMismatchError("routes disagree")

    monkeypatch.setitem(cli.SUITES, "QNLS-eigen", half)
    out = tmp_path / "v.jsonl"
    assert cli.main(["verify", "--suite", "QNLS-eigen", "--out", str(out)]) == 3
    records = [json.loads(l) for l in out.read_text().strip().splitlines()]
    assert [rec["identity_id"] for rec in records] == ["ok", "suite-error"]
    assert records[0]["pass"] and not records[1]["pass"]
    assert records[1]["error"] == "RouteMismatchError: routes disagree"
    assert {rec["suite"] for rec in records} == {"QNLS-eigen"}
    with pytest.raises(wavefn.RouteMismatchError):
        cli.run_suite("QNLS-eigen")


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("gamma=2.5\nlength=8\n# comment\n")
    out = tmp_path / "v.jsonl"
    code = cli.main(
        ["--config", str(cfg), "verify", "--suite", "QNLS-eigen",
         "--max-n", "2", "--gamma", "1.5", "--out", str(out)]
    )
    assert code == 0
    rec = json.loads(out.read_text().strip().splitlines()[0])
    assert rec["gamma"] == 1.5  # flag wins
    assert rec["length"] == 8.0  # config applies


def test_config_suite_key(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("suite=ABA\n")
    out = tmp_path / "v.jsonl"
    assert cli.main(["--config", str(cfg), "verify", "--max-n", "2", "--out", str(out)]) == 0
    records = [json.loads(l) for l in out.read_text().strip().splitlines()]
    assert records and {rec["suite"] for rec in records} == {"ABA"}


def test_config_n_checked_against_quantum_numbers(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n=3\nquantum-numbers=-0.5,0.5\n")
    args = ["--config", str(cfg), "solve", "--gamma", "1", "--length", "10"]
    assert cli.main(args + ["--out", str(tmp_path / "s.json")]) == 1


def test_config_max_n_in_either_spelling(tmp_path):
    out = tmp_path / "v.jsonl"
    for key in ("max-n", "max_n"):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"{key}=2\n")
        args = ["--config", str(cfg), "verify", "--suite", "QNLS-eigen", "--out", str(out)]
        assert cli.main(args) == 0
        records = [json.loads(l) for l in out.read_text().strip().splitlines()]
        assert {rec["n"] for rec in records} == {2}


def test_config_unknown_key_exit_one(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    for key, args in (
        ("gama", ["verify", "--max-n", "2"]),
        ("allow-degenerate", ["eval", "--lambda", "0.5,-0.5"]),
    ):
        cfg.write_text(f"{key}=2\n")
        assert cli.main(["--config", str(cfg)] + args) == 1
        assert key in capsys.readouterr().err


def test_closed_stdout_exits_quietly():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qnls.cli", "verify", "--suite", "QNLS-eigen", "--max-n", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait() == 0
    assert "Traceback" not in err


def test_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["verify", "--suite", "dAHA-axioms", "--max-n", "2"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_no_command_prints_usage():
    assert cli.main([]) == 1
