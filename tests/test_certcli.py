"""Command-line interface: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import prymcert
from prymcert.certcli import main


def run(args):
    return main(args)


def test_verify_deterministic_exit_zero(tmp_path):
    out = tmp_path / "cert.json"
    assert run(["verify", "--p", "3", "--r", "4", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"]["kind"] == "Deterministic"
    assert any(c["statement"] == "End(Prym) = Z[zeta_3]" for c in doc["claims"])


def test_verify_descent_failure_exit_two(tmp_path):
    out = tmp_path / "cert.json"
    assert run(["verify", "--p", "5", "--r", "4", "--output", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert doc["verdict"]["kind"] == "Inconclusive"
    assert "condition (3)" in doc["verdict"]["detail"]["failed_premise"]


def test_verify_usage_errors():
    assert run(["verify", "--p", "4", "--r", "2"]) == 3
    assert run(["verify", "--p", "3"]) == 3
    assert run(["nonsense"]) == 3


def test_verify_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["verify", "--p", "3", "--r", "4", "--output", str(a)])
    run(["verify", "--p", "3", "--r", "4", "--output", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_text_rendering(tmp_path, capsys):
    assert run(["verify", "--p", "3", "--r", "4", "--format", "text"]) == 0
    text = capsys.readouterr().out
    assert "verdict: Deterministic" in text
    assert "[TwoGroup]" in text and "[CyclotomicDescent]" in text


def test_scan(tmp_path, capsys):
    assert run(["scan", "--p-max", "5", "--r-max", "4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    rows = {(row["p"], row["r"]): row for row in doc["rows"]}
    assert rows[(3, 2)]["m"] == 5 and rows[(3, 2)]["cond3_pass"] is True
    assert rows[(3, 2)]["det_eligible"] is False
    assert rows[(3, 4)]["m"] == 11 and rows[(3, 4)]["det_eligible"] is True
    assert rows[(5, 4)]["cond3_pass"] is False
    # even r only
    assert all(r % 2 == 0 for (_, r) in rows)
    assert run(["scan", "--p-max", "5", "--r-max", "4", "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.splitlines()[0].startswith("p,r,m,")
    assert run(["scan", "--p-max", "5", "--r-max", "4", "--format", "text"]) == 0
    assert run(["scan", "--p-max", "1", "--r-max", "4"]) == 3
    # no odd prime is <= 2, so the grid would be empty
    assert run(["scan", "--p-max", "2", "--r-max", "2", "--format", "csv"]) == 3


def test_galois_certify(tmp_path):
    out = tmp_path / "g.json"
    assert run(["galois", "--m", "11", "--c", "1", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"]["kind"] == "Deterministic"
    # the same family member via --poly
    assert run(["galois", "--poly", "x^22 - x^2 - 1", "--output", str(out)]) == 0
    assert run(["galois", "--m", "5", "--c", "1", "--samples", "60", "--output", str(out)]) == 2
    assert json.loads(out.read_text())["verdict"]["kind"] == "Probabilistic"


def test_galois_sample(tmp_path):
    out = tmp_path / "s.json"
    rc = run(["galois", "--poly", "x^6-x^2-1", "--mode", "sample", "--samples", "100",
              "--output", str(out)])
    assert rc == 2
    doc = json.loads(out.read_text())
    assert doc["report"]["consistent"] is True
    rc = run(["galois", "--poly", "x^6-x-1", "--mode", "sample", "--samples", "50",
              "--output", str(out)])
    assert rc == 1
    doc = json.loads(out.read_text())
    assert doc["report"]["consistent"] is False


def test_galois_usage_errors():
    assert run(["galois", "--poly", "x^6-x-1", "--mode", "certify"]) == 3
    assert run(["galois", "--poly", "bad(", "--mode", "sample"]) == 3
    assert run(["galois", "--poly", "x^5-x-1", "--mode", "sample"]) == 3
    assert run(["galois", "--mode", "sample"]) == 3
    assert run(["galois", "--m", "4"]) == 3


def test_galois_sample_rejects_repeated_factor():
    assert run(["galois", "--m", "3", "--c", "0", "--mode", "sample"]) == 3
    assert run(["galois", "--poly", "x^4", "--mode", "sample", "--samples", "10"]) == 3


def test_galois_text_format(capsys):
    rc = run(["galois", "--poly", "x^6-x^2-1", "--mode", "sample", "--samples", "60",
              "--format", "text"])
    assert rc == 2
    text = capsys.readouterr().out
    assert "consistent: True" in text and "W(D_3)" in text


def test_invariants(tmp_path, capsys):
    assert run(["invariants", "--p", "3", "--r", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["multiplicities"] == {"1": 1, "2": 4}
    assert doc["gcd"] == 1 and doc["genus"] == 10 and doc["dim_prym"] == 5
    assert run(["invariants", "--p", "3", "--r", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["gcd"] == 2 and doc["note"] == "r odd: coprimality fails"
    assert run(["invariants", "--p", "3", "--r", "3", "--format", "text"]) == 0
    assert "r odd: coprimality fails" in capsys.readouterr().out
    assert run(["invariants", "--p", "2", "--r", "2"]) == 3


def test_prime_budget_below_one_is_usage_error(capsys):
    for budget in ("0", "-5"):
        assert run(["verify", "--p", "5", "--r", "2", "--prime-budget", budget]) == 3
        assert run(["galois", "--m", "9", "--prime-budget", budget]) == 3
    assert "--prime-budget: must be >= 1" in capsys.readouterr().err
    assert run(["galois", "--m", "9", "--prime-budget", "1"]) == 2


def test_cli_import_does_not_load_numpy():
    # the CLI path is pure Python; numpy is a test-only dependency
    code = "import sys, prymcert.certcli; assert 'numpy' not in sys.modules, 'numpy loaded'"
    src = str(Path(prymcert.__file__).resolve().parents[1])  # the package under test
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert res.returncode == 0, res.stderr.decode()


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = str(tmp_path / "missing" / "x.json")
    assert run(["verify", "--p", "5", "--r", "2", "--output", target]) == 3
    assert run(["invariants", "--p", "3", "--r", "2", "--output", target]) == 3
    err = capsys.readouterr().err
    assert err.count(f"prymcert: error: cannot write {target}") == 2
