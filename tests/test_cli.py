import contextlib
import hashlib
import json
import os
import tracemalloc

import pytest

from cycpres import cli
from cycpres.cyclic import gnkl
from cycpres.dynamics import shift_orbits
from cycpres.relative import RelativeWord, rho
from cycpres.taxonomy import classify

K_TEXT = """\
gens: b u
rels:
b^6
u u b^3 u b^2
"""


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rewrite_examples(capsys):
    code, out, _ = run(capsys, "rewrite", "--n", "3", "--f", "1", "--word", "x x x")
    assert code == 0 and out.strip() == "x0 x1 x2"
    code, out, _ = run(capsys, "rewrite", "--n", "6", "--f", "2", "--word", "x x x")
    assert code == 0 and out.strip() == "x0 x2 x4"
    code, out, _ = run(capsys, "rewrite", "--n", "3", "--f", "2", "--word", "x x x")
    assert code == 0 and out.strip() == "x0 x2 x1"


def test_rewrite_matches_library(capsys):
    W = RelativeWord.from_text("x a^2 x a^3 x a^-5")
    _, out, _ = run(capsys, "rewrite", "--n", "10", "--f", "0",
                    "--word", "x a^2 x a^3 x a^-5")
    assert out.strip() == str(rho(W, 10, 0))


def test_rewrite_invalid_exponent_exit_2(capsys):
    code, _, err = run(capsys, "rewrite", "--n", "18", "--f", "2",
                       "--word", "x x a^9 x a^6")
    assert code == 2
    assert "3*2 + 15" in err and "(mod 18)" in err


def test_rewrite_n_zero_exit_2(capsys):
    code, _, err = run(capsys, "rewrite", "--n", "0", "--f", "0", "--word", "x")
    assert code == 2 and "positive integer" in err


def test_rewrite_bad_token_exit_2(capsys):
    code, _, err = run(capsys, "rewrite", "--n", "3", "--f", "0", "--word", "q")
    assert code == 2 and "token" in err


def test_classify_human(capsys):
    code, out, _ = run(capsys, "classify", "--n", "18", "--k", "1", "--l", "11")
    assert code == 0
    assert "finite: False" in out
    assert "aspherical: False" in out
    assert "exceptional n=18" in out


def test_classify_json_round_trip(capsys):
    code, out, _ = run(capsys, "classify", "--n", "7", "--k", "0", "--l", "3", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep == cli._classification_report(classify(7, 0, 3))
    assert rep["finite"] is True and rep["order"] == 129


def test_classify_order_too_long_for_decimal(capsys):
    argv = ("classify", "--n", "20000", "--k", "0", "--l", "1")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and "finite: True of order 2^20000 - (-1)^20000" in out
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(out)["order"] == "2^20000 - (-1)^20000"


def test_sweep_matches_library(capsys):
    code, out, _ = run(capsys, "sweep", "--nmax", "4", "--json")
    assert code == 0
    rep = json.loads(out)
    triples = rep["triples"]
    assert len(triples) == sum(n * n for n in range(1, 5))
    for entry in triples:
        expect = cli._classification_report(
            classify(entry["n"], entry["k"], entry["l"])
        )
        assert entry == expect


def test_sweep_human_output(capsys):
    code, out, _ = run(capsys, "sweep", "--nmax", "3")
    assert code == 0
    assert "G_3(1,2):" in out


@pytest.mark.parametrize(
    "argv, digest",
    [
        (("--json",), "3400b9fb5935621ecb80ab6dbd65ad71d84c173ab5ec9635832caa59096fea6f"),
        ((), "6eee17f0d379ee0d926a868711faae4a8a0206bb82f7f42fcf2376d06226f5c5"),
    ],
    ids=["json", "text"],
)
def test_sweep_to_30_digest(capsys, argv, digest):
    # pins every verdict, order, note and flag of the 9,455 triples with n <= 30
    code, out, _ = run(capsys, "sweep", "--nmax", "30", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sweep_streams_its_reports():
    # 9,455 reports held at once traced about 13 MiB; printed as each triple
    # is classified, the peak does not grow with nmax
    tracemalloc.start()
    try:
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            code = cli.main(["sweep", "--nmax", "30", "--json"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2**20, peak


def test_enumerate_file(tmp_path, capsys):
    path = tmp_path / "k.txt"
    path.write_text(K_TEXT + "sub:\nb\n")
    code, out, _ = run(capsys, "enumerate", "--file", str(path))
    assert code == 0 and out.splitlines()[0] == "57 cosets"

    path2 = tmp_path / "k_full.txt"
    path2.write_text(K_TEXT)
    code, out, _ = run(capsys, "enumerate", "--file", str(path2))
    assert code == 0 and out.splitlines()[0] == "342 cosets"


def test_enumerate_table_dump(tmp_path, capsys):
    path = tmp_path / "c3.txt"
    path.write_text("gens: a\nrels:\na^3\n")
    code, out, _ = run(capsys, "enumerate", "--file", str(path), "--table")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "3 cosets"
    assert any(line.strip().startswith("1 |") for line in lines)


def test_enumerate_overflow_exit_3(tmp_path, capsys):
    path = tmp_path / "z2.txt"
    path.write_text("gens: a b\nrels:\na b A B\n")
    code, out, _ = run(capsys, "enumerate", "--file", str(path),
                       "--max-cosets", "100")
    assert code == 3 and "undecided" in out


def test_enumerate_huge_power_exit_2(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("gens: a\nrels:\na^1000000000\n")
    code, _, err = run(capsys, "enumerate", "--file", str(path))
    assert code == 2 and "letters" in err


def test_enumerate_many_long_relators_exit_2(tmp_path, capsys):
    path = tmp_path / "long.txt"
    path.write_text("gens: a\nrels:\n" + "a^1000000\n" * 10)
    code, _, err = run(capsys, "enumerate", "--file", str(path))
    assert code == 2 and "letters" in err


def test_enumerate_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "enumerate", "--file", "/nonexistent/x.txt")
    assert code == 2


def test_orbits_word(capsys):
    code, out, _ = run(capsys, "orbits", "--n", "5", "--word", "x0 x1 X2")
    assert code == 0
    assert out.splitlines()[0] == "11 points: 1 + 5 + 5"


def test_orbits_triple_json_round_trip(capsys):
    code, out, _ = run(capsys, "orbits", "--n", "5", "--k", "0", "--l", "1", "--json")
    assert code == 0
    rep = json.loads(out)
    lib = shift_orbits(5, gnkl(5, 0, 1).word)
    assert rep == cli._orbit_report_dict(lib)
    assert rep["total_points"] == 33


def test_orbits_overflow_exit_3(capsys):
    # G_6(1,5) is infinite (condition B, 3 | n), so no order is promised
    code, out, _ = run(capsys, "orbits", "--n", "6", "--k", "1", "--l", "5",
                       "--max-cosets", "200")
    assert code == 3 and "undecided" in out
    assert "may be infinite or the limit too small" in out
    assert "is finite" not in out and "raise --max-cosets" not in out


def test_orbits_overflow_on_a_finite_group_says_so(capsys):
    code, out, _ = run(capsys, "orbits", "--n", "20", "--k", "0", "--l", "1",
                       "--max-cosets", "1000")
    assert code == 3 and "undecided" in out
    assert "G_20(0,1) is finite of order 2^20 - (-1)^20; raise --max-cosets" in out
    code, out, _ = run(capsys, "orbits", "--n", "10", "--k", "1", "--l", "2",
                       "--max-cosets", "2")  # finite, with no closed order
    assert code == 3 and "G_10(1,2) is finite; raise --max-cosets" in out


def test_orbits_needs_word_or_triple(capsys):
    code, _, err = run(capsys, "orbits", "--n", "5")
    assert code == 2 and "--word" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("classify", "--n", "0", "--k", "0", "--l", "0"), "positive integer"),
        (("sweep", "--nmax", "0"), "--nmax must be positive"),
        (("orbits", "--n", "5", "--word", "x0 X0"), "not cyclically reduced"),
        (("rewrite", "--n", "3", "--f", "0", "--word", "q"), "token"),
        (("rewrite", "--n", "5", "--f", "0", "--word", "x a^"),
         "bad relative-word token 'a^'"),
        (("rewrite", "--n", "5", "--f", "0", "--word", "x a^1.5"),
         "bad relative-word token 'a^1.5'"),
        (("rewrite", "--n", "5", "--f", "0", "--word", "x a^1_0 X"),
         "bad relative-word token 'a^1_0'"),
        (("rewrite", "--n", "5", "--f", "0", "--word", "x a^+2 X"),
         "bad relative-word token 'a^+2'"),
        (("enumerate", "--file", "/nonexistent/x.txt"), "No such file"),
        (("enumerate", "--file", "{k}", "--max-cosets", "-5"), "at least 1"),
        (("orbits", "--n", "5", "--k", "0", "--l", "1", "--max-cosets", "-1"),
         "at least 1"),
        (("orbits", "--n", "5", "--word", "x0 x1 X2", "--k", "0"), "not both"),
    ],
    ids=["classify", "sweep", "orbits-word", "rewrite", "rewrite-empty-power",
         "rewrite-fraction-power", "rewrite-underscore-power",
         "rewrite-plus-power", "enumerate", "enumerate-cap", "orbits-cap",
         "orbits-word-and-triple"],
)
def test_invalid_input_prints_one_error_line_and_exits_2(
    tmp_path, capsys, argv, message
):
    path = tmp_path / "k.txt"  # "{k}" in argv names this file
    path.write_text(K_TEXT)
    code, out, err = run(capsys, *(a.replace("{k}", str(path)) for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err



def test_classify_at_a_ten_digit_n_builds_no_order(capsys):
    # the order 2^n - (-1)^n at n = 10^9 is a 125 MB int: classify derives
    # it only when read, and both reports print its formula instead
    argv = ("classify", "--n", str(10**9), "--k", "0", "--l", "1")
    tracemalloc.start()
    try:
        cls = classify(10**9, 0, 1)
        code, out, _ = run(capsys, *argv)
        code_json, out_json, _ = run(capsys, *argv, "--json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    formula = "2^1000000000 - (-1)^1000000000"
    assert cls.finite and cls.order_formula == formula
    assert code == 0 and f"finite: True of order {formula}" in out
    assert code_json == 0 and json.loads(out_json)["order"] == formula
    assert peak < 2**20, peak
