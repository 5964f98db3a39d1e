"""Tests of the benchmark itself: oracle, checker, spans and a smoke pass.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- smoke passes --------------------------------------------------------------

SMALL = {
    "finite_sweep": lambda key: key[0] <= 9,
    "capped_enum": lambda key: key[0] == 10 or not oracle.expected(*key).finite,
    "verdicts": lambda key: key == ("n18",) or key[0] <= 12,
}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_has_no_failures(workload):
    ops = [op for op in workloads.build(workload, 5) if SMALL[workload](op.key)]
    tally, _ = run.measure(ops, 0)
    assert tally.attempted == 2 * len(ops) >= 40
    assert tally.failed == 0
    assert tally.errors == []
    assert tally.pass_counts[0][1] > 0  # some table completed


def test_workload_sizes_and_work_counts_do_not_depend_on_the_seed():
    assert len(workloads.build("finite_sweep", 1)) == 297
    assert len(workloads.build("capped_enum", 1)) >= 100
    for w in workloads.WORKLOADS:
        a, b = workloads.build(w, 1), workloads.build(w, 2)
        assert len(a) == len(b) >= 100
        if w != "verdicts":
            assert sorted(op.key for op in a) == sorted(op.key for op in b)
    small = {t for t in oracle.triples(2, workloads.ENUM_NMAX)}
    for seed in (1, 2):
        keys = {op.key for op in workloads.build("verdicts", seed)}
        assert small <= keys


def test_traced_run_reports_every_per_layer_metric():
    ops = [op for op in workloads.build("verdicts", 3) if op.key[0] in (5, 9)]
    args = run.parse_args(["--workload", "verdicts", "--seed", "3", "--trace", "1"])
    tally, metrics, _ = run.per_layer(workloads, args, ops)
    assert tally.failed == 0 and tally.errors == []
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert all(math.isfinite(v) for v, _ in metrics.values())


def test_command_prints_the_result_line():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "verdicts",
           "--seed", "4", "--seconds", "0.1", "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True).stdout
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_command_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    cmd = [sys.executable, "perfbench/run.py", "--workload", "verdicts",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- the oracle against sympy ---------------------------------------------------


def test_oracle_orders_match_sympy_for_small_n():
    sympy_ct = pytest.importorskip("sympy.combinatorics.coset_table")
    from sympy.combinatorics.fp_groups import FpGroup
    from sympy.combinatorics.free_groups import free_group

    F, a, x = free_group("a, x")
    finite = [t for t in oracle.triples(2, 7) if oracle.expected(*t).finite]
    assert len(finite) == 99
    for n, k, l in finite:
        G = FpGroup(F, [a**n, x * a**k * x * a**(l - k) * x * a**(-l)])
        table = sympy_ct.coset_enumeration_r(G, [a])
        table.compress()
        assert len(table.table) == oracle.expected(n, k, l).order, (n, k, l)


def test_oracle_branch_examples():
    assert oracle.expected(5, 0, 1) == ("C finite", True, 33, False)
    assert oracle.expected(7, 1, 3) == ("neither", False, None, True)
    assert oracle.expected(10, 1, 2).order == 3
    assert oracle.expected(18, 1, 11).branch == "n=18"
    assert oracle.expected(12, 2, 4).branch == "gcd"
    assert oracle.expected(9, 1, 8).branch == "B 3|n"


# -- the checker rejects corrupted results ----------------------------------------


@pytest.fixture(scope="module")
def g5():
    op = workloads.enumeration_op((5, 0, 1), workloads.DEFAULT_CAP, True)
    return op, op.run(run.NO_SPAN)


def test_checker_accepts_the_real_result(g5):
    op, result = g5
    assert op.check(result).errors == []
    assert op.check(result).decided == 1


def test_checker_rejects_index_off_by_one(g5):
    _, (table, _) = g5
    assert oracle.check_complete_table(table, 5, 0, 1, 34)
    short = replace(table, rows=table.rows[:-1], count=table.count - 1)
    assert oracle.check_complete_table(short, 5, 0, 1, 32)


def test_checker_rejects_a_permuted_column(g5):
    op, (table, report) = g5
    rows = [list(r) for r in table.rows]
    c = oracle.X
    i, j = 1, 2
    rows[i][c], rows[j][c] = rows[j][c], rows[i][c]
    bad = replace(table, rows=tuple(map(tuple, rows)))
    assert oracle.check_complete_table(bad, 5, 0, 1, 33)
    assert op.check((bad, report)).errors


def test_checker_rejects_a_wrong_orbit_report(g5):
    op, (table, report) = g5
    bad = replace(report, cycle_type=(1, 1, 9))
    assert oracle.check_orbit_report(bad, table, 5, True)
    flipped = replace(report, free_action_on_nonbase=not report.free_action_on_nonbase)
    assert op.check((table, flipped)).errors


def test_checker_rejects_completion_on_an_infinite_group(g5):
    _, (table, report) = g5
    op = workloads.enumeration_op((7, 1, 3), workloads.CAP, False)
    assert op.check((table, report)).errors
    assert oracle.check_overflow(replace(table, status="overflow"), 5)


def test_checker_rejects_wrong_verdicts():
    op = workloads.verdict_op((7, 1, 3))
    w, cls, ori, W, rhos, enum = op.run(run.NO_SPAN)
    assert op.check((w, cls, ori, W, rhos, enum)).errors == []
    assert op.check((w, replace(cls, finite=True), ori, W, rhos, enum)).errors
    assert op.check((w, cls, replace(ori, orientable=False), W, rhos, enum)).errors
    f, word = rhos[0]
    assert op.check((w, cls, ori, W, [(f, w.__class__(7, word.letters[::-1]))], enum)).errors


def test_symmetry_check_catches_a_mismatch():
    summary = {(7, 0, 1): (43, (1, 7, 7)), (7, 0, 2): (43, (1, 7, 7))}
    assert workloads.symmetry_errors(summary) == []
    summary[(7, 0, 2)] = (43, (1, 1, 1, 7, 7))
    assert workloads.symmetry_errors(summary)


# -- span self time -------------------------------------------------------------


def test_self_time_on_a_hand_built_tree():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 3.0, 6.0),  # overlaps a
        Span(3, 0, "c", 8.0, 12.0),  # runs past its parent
        Span(4, 1, "a.child", 2.0, 3.0),
        Span(5, 2, "leaf", 3.5, 3.5),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10 - 5 - 2)
    assert own[1] == pytest.approx(3 - 1)
    assert own[2] == pytest.approx(3)
    assert own[3] == pytest.approx(4)
    assert own[4] == pytest.approx(1)
    assert own[5] == 0


def test_tracer_records_parents():
    tr = Tracer()
    with tr.span("op"):
        with tr.span("enumerate.todd_coxeter") as s:
            s.counts["defined"] = 7
        with tr.span("dynamics.orbit_report"):
            pass
    with tr.span("op"):
        pass
    assert [(s.name, s.parent) for s in tr.spans] == [
        ("op", None), ("enumerate.todd_coxeter", 0), ("dynamics.orbit_report", 0),
        ("op", None),
    ]
    assert tr.spans[1].counts == {"defined": 7}
    assert all(s.end >= s.start for s in tr.spans)
