"""Command-line interface: exit codes, formats, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_text_format_prints_every_verdict_detail(tmp_path, capsys):
    # each top-level key of the JSON verdict detail has its line in the text form
    cases = [
        (["verify", "--p", "3", "--r", "3"], "reason: odd r makes m even and every eigenvalue "
         "multiplicity even"),
        (["verify", "--p", "5", "--r", "4"], "base verdict: Deterministic"),
        (["galois", "--m", "11", "--prime-budget", "5"], "detail: Inconclusive()"),
        (["verify", "--p", "3", "--r", "2", "--samples", "50"],
         "reason: m = 5 < 9: the deterministic chain does not apply"),
    ]
    out = tmp_path / "cert.json"
    for args, line in cases:
        assert run([*args, "--output", str(out)]) == 2
        detail = json.loads(out.read_text())["verdict"]["detail"]
        assert run([*args, "--format", "text"]) == 2
        text = capsys.readouterr().out
        assert f"\n{line}\n" in text, args
        for key in detail:
            assert f"\n{key.replace('_', ' ')}" in text, (args, key)


def test_galois_rejects_non_ascii_digits(capsys):
    for poly in ("x^\u0661\u0660 - x^\u0662 - \u0661", "x^2 + \U0001d7d9"):
        assert run(["galois", "--poly", poly, "--mode", "sample"]) == 3
        assert "cannot parse polynomial near" in capsys.readouterr().err


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


def test_galois_poly_takes_no_m_or_c(capsys):
    # the polynomial fixes m and c, so a --m or --c beside it is a usage error,
    # not silently ignored; --c alone defaults to 1 with --m
    for extra in (["--m", "7"], ["--c", "9"], ["--m", "7", "--c", "9"], ["--m", "5", "--c", "1"]):
        assert run(["galois", "--poly", "x^10 - x^2 - 1", *extra]) == 3, extra
    capsys.readouterr()
    assert run(["galois", "--m", "9"]) == 0
    implicit = capsys.readouterr().out
    assert run(["galois", "--m", "9", "--c", "1"]) == 0
    assert capsys.readouterr().out == implicit
    assert json.loads(implicit)["config"]["c"] == 1


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


def test_samples_below_one_is_usage_error(capsys):
    for samples in ("0", "-5"):
        assert run(["verify", "--p", "3", "--r", "4", "--samples", samples]) == 3
        assert run(["galois", "--m", "9", "--samples", samples]) == 3
    assert "--samples: must be >= 1" in capsys.readouterr().err


def test_cli_import_does_not_load_numpy():
    # the CLI path is pure Python; numpy is a test-only dependency
    code = "import sys, prymcert.certcli; assert 'numpy' not in sys.modules, 'numpy loaded'"
    src = str(Path(prymcert.__file__).resolve().parents[1])  # the package under test
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert res.returncode == 0, res.stderr.decode()


def test_cli_import_loads_no_dataclasses_or_fractions():
    # these modules cost start-up time on every CLI run and the program needs none
    unwanted = ("dataclasses", "inspect", "fractions", "decimal")
    code = f"import sys, prymcert.certcli; print(sorted(set({unwanted!r}) & set(sys.modules)))"
    src = str(Path(prymcert.__file__).resolve().parents[1])  # the package under test
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout.decode().strip() == "[]"


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = str(tmp_path / "missing" / "x.json")
    assert run(["verify", "--p", "5", "--r", "2", "--output", target]) == 3
    assert run(["invariants", "--p", "3", "--r", "2", "--output", target]) == 3
    err = capsys.readouterr().err
    assert err.count(f"prymcert: error: cannot write {target}") == 2


def test_sampling_past_the_census_budget_is_usage_error(capsys, monkeypatch):
    # W(D_9) has order 2^8 9! > the census budget: refused as bad input
    # (exit 3, not the Refuted exit 1), before any prime is factored
    from prymcert import intpoly

    def no_factoring(*args):
        raise AssertionError("a prime was factored before the budget check")

    monkeypatch.setattr(intpoly, "_factor_degrees", no_factoring)
    assert run(["galois", "--m", "9", "--mode", "sample", "--samples", "20"]) == 3
    assert run(["galois", "--poly", "x^18 - x^2 - 1", "--mode", "sample"]) == 3
    err = capsys.readouterr().err
    assert err.count("group of order 92897280 exceeds enumeration budget 5160960") == 2


def test_out_of_memory_is_usage_error():
    # each input asks at once for a list of about 10^15 entries: exit 3 with a
    # named error, never exit 1 (Refuted) with a traceback; the address-space
    # limit keeps a child that could allocate from growing large
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(prymcert.__file__).resolve().parents[1])  # the package under test
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    for args in (
        ["galois", "--m", "1000000000000001"],
        ["verify", "--p", "3", "--r", "333333333333334"],
        ["galois", "--poly", "x^1000000000000000 - x^2 - 1"],
    ):
        res = subprocess.run(
            [sys.executable, "-m", "prymcert.certcli", *args],
            env=env, capture_output=True, timeout=60, preexec_fn=limit,
        )
        err = res.stderr.decode()
        assert res.returncode == 3, (args, err)
        assert err == "prymcert: error: out of memory: the input is too large\n", (args, err)


def test_census_budget_names_an_order_too_long_for_decimal(capsys):
    # |W(D_2001)| has more digits than int-to-str conversion allows: the
    # budget error names its digit count instead of failing to print it
    from prymcert.signedperm import GroupDescriptor

    assert run(["galois", "--poly", "x^4002 - x^2 - 1", "--mode", "sample", "--samples", "20"]) == 3
    err = capsys.readouterr().err
    assert err == (
        "prymcert: error: group of order with 6341 decimal digits exceeds enumeration budget 5160960\n"
    )
    order = GroupDescriptor.wdm(2001).order()
    assert 10**6340 <= order < 10**6341


def test_commands_load_only_the_modules_they_run():
    # start-up compiles what it imports: the package and the CLI load no
    # pipeline module, and neither do argument errors or the commands that
    # need none; verify and galois load all four, and no run loads numpy or
    # the standard modules the program avoids
    pipeline = ("galoiscert", "intpoly", "signedperm", "fpmodule")
    unwanted = ("numpy", "dataclasses", "inspect", "fractions", "decimal")
    runs = [
        [],  # the import alone
        ["--version"],
        ["--help"],
        ["verify", "--p", "3"],  # usage error: --r is missing
        ["verify", "--p", "4", "--r", "2"],  # p is not prime
        ["galois"],  # neither --poly nor --m
        ["galois", "--m", "4"],
        ["galois", "--poly", "x^6 - x^2 - 1", "--m", "3"],
        ["invariants", "--p", "3", "--r", "2"],
        ["scan", "--p-max", "5", "--r-max", "4"],
        ["verify", "--p", "5", "--r", "2"],
        ["galois", "--m", "7", "--mode", "sample", "--samples", "100"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from prymcert.certcli import main\n"
        "loaded = []\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        try:\n"
        "            if argv:\n"
        "                main(argv)\n"
        "        except SystemExit:  # --version and --help exit from argparse\n"
        "            pass\n"
        f"    loaded.append([n for n in {pipeline!r} if 'prymcert.' + n in sys.modules])\n"
        f"print(json.dumps([loaded, sorted(set({unwanted!r}) & set(sys.modules))]))\n"
    )
    src = str(Path(prymcert.__file__).resolve().parents[1])  # the package under test
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=60)
    assert res.returncode == 0, res.stderr.decode()
    loaded, unwanted_loaded = json.loads(res.stdout)
    loaded = dict(zip((" ".join(argv) for argv in runs), loaded))
    assert loaded == {
        **{" ".join(argv): [] for argv in runs[:-2]},
        "verify --p 5 --r 2": list(pipeline),
        "galois --m 7 --mode sample --samples 100": list(pipeline),
    }
    assert unwanted_loaded == []


def test_package_exports_resolve_to_their_home_modules():
    from prymcert import galoiscert, intpoly

    home = {
        "IntPoly": intpoly,
        "parse_poly": intpoly,
        "certify_prym": galoiscert,
        "certify_wdm_over_Q": galoiscert,
        "cyclotomic_descent": galoiscert,
    }
    assert sorted(prymcert.__all__) == sorted([*home, "__version__"])
    for name, module in home.items():
        assert getattr(prymcert, name) is getattr(module, name), name
    assert prymcert.__version__ == "0.1.0" == galoiscert.TOOL_VERSION
    with pytest.raises(AttributeError, match="no_such_name"):
        prymcert.no_such_name


def test_inconclusive_irreducibility_names_the_prime_budget(tmp_path):
    # no prime <= 500 has x^55 - x - 1 irreducible mod q: the detail names the
    # budget that ran out, through certify_prym too, and keeps its verdict repr
    out = tmp_path / "c.json"
    for args in (["galois", "--m", "55"], ["verify", "--p", "7", "--r", "8"]):
        assert run([*args, "--output", str(out)]) == 2
        doc = json.loads(out.read_text())
        assert doc["verdict"] == {
            "kind": "Inconclusive",
            "detail": {
                "failed_premise": "u is irreducible over Q",
                "detail": "Inconclusive()",
                "prime_budget": 500,
            },
        }, args
    assert run(["galois", "--m", "55", "--prime-budget", "100", "--output", str(out)]) == 2
    assert json.loads(out.read_text())["verdict"]["detail"]["prime_budget"] == 100


def test_missing_jordan_prime_names_the_prime_budget(tmp_path, capsys):
    # x^13 - x - 1 has a witness prime below 17 but no qualifying
    # prime-length cycle: the budget is a key, as for the irreducibility walk
    out = tmp_path / "c.json"
    assert run(["galois", "--m", "13", "--prime-budget", "17", "--output", str(out)]) == 2
    assert json.loads(out.read_text())["verdict"] == {
        "kind": "Inconclusive",
        "detail": {
            "failed_premise": "a qualifying prime-length cycle was observed",
            "prime_budget": 17,
        },
    }
    assert run(["galois", "--m", "13", "--prime-budget", "17", "--format", "text"]) == 2
    text = capsys.readouterr().out
    assert "failed premise: a qualifying prime-length cycle was observed\n" in text
    assert "prime budget exhausted: 17\n" in text


def test_seed_is_not_an_option(tmp_path, capsys):
    # sampling takes the first unramified primes in increasing order, so a seed
    # would change nothing but its own echo; certificates still record seed 0
    assert run(["verify", "--p", "3", "--r", "2", "--seed", "5"]) == 3
    assert run(["galois", "--m", "5", "--mode", "sample", "--samples", "100", "--seed", "9"]) == 3
    assert "unrecognized arguments: --seed" in capsys.readouterr().err
    out = tmp_path / "cert.json"
    assert run(["verify", "--p", "3", "--r", "2", "--samples", "50", "--output", str(out)]) == 2
    doc = json.loads(out.read_text())
    assert doc["config"]["seed"] == 0
    assert doc["verdict"]["detail"]["sampling"]["seed"] == 0


def test_sample_mode_takes_no_prime_budget(tmp_path, capsys):
    # sampling walks --samples primes, so a budget would be silently ignored
    for budget in ("3", "500"):
        args = ["galois", "--m", "5", "--mode", "sample", "--samples", "100"]
        assert run([*args, "--prime-budget", budget]) == 3
    assert "--mode sample takes no --prime-budget" in capsys.readouterr().err
    out = tmp_path / "cert.json"
    for args in (["galois", "--m", "9"], ["verify", "--p", "5", "--r", "2"]):
        assert run([*args, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["prime_budget"] == 500


def test_output_file_receives_exactly_stdout(tmp_path, capsys):
    runs = [
        *[["verify", "--p", "5", "--r", "2", "--format", f] for f in ("json", "text")],
        *[["galois", "--m", "9", "--format", f] for f in ("json", "text")],
        *[["galois", "--m", "5", "--mode", "sample", "--samples", "50", "--format", f]
          for f in ("json", "text")],
        *[["scan", "--p-max", "7", "--r-max", "4", "--format", f] for f in ("json", "csv", "text")],
        *[["invariants", "--p", "3", "--r", "3", "--format", f] for f in ("json", "text")],
    ]
    out = tmp_path / "out"
    for args in runs:
        code = run(args)
        stdout = capsys.readouterr().out
        assert run([*args, "--output", str(out)]) == code, args
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == stdout.encode(), args


def test_integers_past_an_index_are_usage_errors(capsys):
    # a degree past sys.maxsize cannot size a list: exit 3 with one line,
    # never exit 1 (Refuted) with an OverflowError traceback
    for args in (
        ["galois", "--m", "100000000000000000000001"],
        ["galois", "--m", "100000000000000000000001", "--mode", "sample"],
        ["galois", "--poly", "x^100000000000000000000000 - x^2 - 1", "--mode", "sample",
         "--samples", "10"],
    ):
        assert run(args) == 3, args
        assert capsys.readouterr().err == "prymcert: error: overflow: the input is too large\n"


def test_verify_refuses_a_strong_pseudoprime(capsys):
    # 318665857834031151167461 = 399165290221 * 798330580441 passes Miller-Rabin
    # to every base <= 37; taken for prime, it overflowed building u
    assert run(["verify", "--p", "318665857834031151167461", "--r", "2"]) == 3
    assert capsys.readouterr().err == (
        "prymcert: error: p must be an odd prime, got 318665857834031151167461\n"
    )


def test_the_cli_corpus_matches_its_golden_lines():
    """Every command of tools/cli_corpus.py, run through main in process, gives
    the stdout and stderr hashes and the exit code of tests/cli_corpus.expected."""
    import contextlib
    import importlib.util
    import io

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("cli_corpus", root / "tools" / "cli_corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    lines = []
    for argv in corpus.CORPUS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        lines.append(corpus.corpus_line(argv, out.getvalue().encode(), err.getvalue().encode(), code))
    assert lines == (root / "tests" / "cli_corpus.expected").read_text().splitlines()


def test_a_non_integer_samples_is_usage_error(capsys):
    assert run(["galois", "--m", "9", "--samples", "abc"]) == 3
    assert capsys.readouterr().err == (
        "prymcert: error: argument --samples: invalid int value: 'abc'\n"
    )


def test_galois_sample_text_form_of_a_refutation(capsys):
    assert run(["galois", "--poly", "x^14 - x - 1", "--mode", "sample", "--format", "text"]) == 1
    text = capsys.readouterr().out
    assert "consistent: False\nrefuted at q = 2 by cycle type [2, 5, 7]\n" in text
    assert "samples:" not in text and text.endswith("the cycle type of a Frobenius element)\n")


@pytest.mark.parametrize("poly", [
    "x^10 - x^2 + x - 1",  # a stray x term
    "2x^10 - x^2 - 1",  # leading coefficient 2
    "x^4 - x^2 - 1",  # m = 2
    "x^10 + x^2 - 1",  # +x^2
])
def test_certify_mode_refuses_a_near_family_poly(poly, capsys):
    assert run(["galois", "--poly", poly]) == 3
    assert capsys.readouterr().err == (
        "prymcert: error: certify mode needs the family shape x^(2m) - x^2 - c "
        "(pass --m/--c or a matching --poly)\n"
    )


def test_certify_mode_reads_m_and_c_off_a_matching_poly(capsys):
    code = run(["galois", "--poly", "x^18 - x^2 + 1"])
    by_poly = capsys.readouterr().out
    assert run(["galois", "--m", "9", "--c", "-1"]) == code == 1  # -u(0) = -1 is no square
    assert capsys.readouterr().out == by_poly
