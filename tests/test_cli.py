"""Command-line interface: parsing, commands, exit codes, determinism."""

import cmath
import json

from qnls import cli, wavefn


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


def test_verify_unknown_suite_exit_one():
    assert cli.main(["verify", "--suite", "bogus"]) == 1


def test_appendix_a_checks_something_below_three_particles():
    records = cli.run_suite("appendix-A", 2, 1.0, 10.0)
    assert records and all(rec["pass"] for rec in records)


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


def test_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["verify", "--suite", "dAHA-axioms", "--max-n", "2"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_no_command_prints_usage():
    assert cli.main([]) == 1
