"""Benchmark of cycpres: enumeration-backed shift dynamics, end to end.

    python3 perfbench/run.py --workload finite_sweep --seed 1 --seconds 35 --trace 0

Workloads: finite_sweep, capped_enum, verdicts (see perfbench/README.md).
With --trace 0 the run repeats whole passes over the workload's fixed
list of operations, timing each operation alone: at least two passes,
and more while the next should end within --seconds.  It prints the
end-to-end metrics over every operation timed.  With --trace 1 it makes
one pass in which every operation runs once untraced and once traced,
adds a fixed probe that touches every layer, times CLI cold starts, and
prints the per-layer metrics.  Every result is checked against the benchmark's own oracle.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The run also writes its result,
and in traced runs its spans, under perfbench/results/.
"""

from time import perf_counter

T0 = perf_counter()  # set-up time counts from here: import plus building inputs

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import NO_SPAN, Tracer, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 11
COLD_START_SAMPLES = 5
CHILD_TIMEOUT_S = 60


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("finite_sweep", "capped_enum", "verdicts"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="build the inputs, print the set-up seconds and exit")
    return p.parse_args(argv)


def import_workloads():
    """Import cycpres from this checkout's src/, never from elsewhere."""
    if not (SRC / "cycpres" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'cycpres'} not found; run from a cycpres checkout")
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402 - needs the path above
    import cycpres

    if Path(cycpres.__file__).resolve().parent != (SRC / "cycpres").resolve():
        sys.exit(f"error: imported cycpres from {cycpres.__file__}, not {SRC}")
    return workloads


def quantile(values, q):
    """The q-quantile by linear interpolation, as numpy's default does."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def child(args, extra):
    """Run a fresh interpreter to completion and return its stdout."""
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S, check=True, env={**os.environ, **extra},
    ).stdout


def setup_seconds(workload, seed):
    """Median set-up time of fresh processes: import cycpres, build inputs."""
    args = [str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    return statistics.median(
        float(child(args, {}).split()[-1]) for _ in range(SETUP_SAMPLES)
    )


class Tally:
    """Work counts, errors and table shapes of one or more passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.pass_counts = []  # (cosets defined, tables completed) per pass
        self.summary = {}  # triple -> (index, cycle type), complete tables only

    def start_pass(self):
        self.pass_counts.append([0, 0])

    def record(self, op, result, exc):
        self.attempted += 1
        if exc is not None:
            self.failed += 1
            self.errors.append(f"{op.key}: {exc!r}")
            return
        checked = op.check(result)
        self.pass_counts[-1][0] += checked.defined
        self.pass_counts[-1][1] += checked.decided
        self.errors += checked.errors
        if checked.shape is not None:
            self.summary[op.key] = checked.shape


def timed(op, sp):
    """Run one operation; the timer covers the library calls only."""
    gc.collect()
    t = perf_counter()
    try:
        result = op.run(sp)
    except Exception:  # an operation that raises counts as failed
        traceback.print_exc(file=sys.stderr)
        return perf_counter() - t, None, sys.exc_info()[1]
    return perf_counter() - t, result, None


def measure(ops, seconds):
    """Two whole passes, then more while the next should end within seconds.

    Returns the tally and the latency of every operation that completed.
    """
    tally = Tally()
    latencies = []
    start = perf_counter()
    while True:
        begun = perf_counter()
        tally.start_pass()
        for op in ops:
            dt, result, exc = timed(op, NO_SPAN)
            if exc is None:
                latencies.append(dt)
            tally.record(op, result, exc)
        now = perf_counter()
        if len(tally.pass_counts) >= 2 and now - start + (now - begun) > seconds:
            return tally, latencies


def end_to_end(wl, args, ops):
    tally, lat = measure(ops, args.seconds)
    if len(set(map(tuple, tally.pass_counts))) != 1:
        tally.errors.append(f"work counts differ between passes: {tally.pass_counts}")
    if args.workload == "finite_sweep":
        tally.errors += wl.symmetry_errors(tally.summary)
    defined, decided = tally.pass_counts[0]
    metrics = {
        "setup_s": (setup_seconds(args.workload, args.seed), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (quantile(lat, 0.5) * 1e3, "ms"),
        "op_p90_ms": (quantile(lat, 0.9) * 1e3, "ms"),
        "cosets_defined": (defined, "cosets"),
        "decided": (decided, "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"passes": len(tally.pass_counts), "ops_per_pass": len(ops), "samples": len(lat)}
    return tally, metrics, info


def cold_start_ms():
    """Median wall time of a fresh `python -m cycpres.cli classify ... --json`."""
    args = ["-m", "cycpres.cli", "classify", "--n", "18", "--k", "1", "--l", "11", "--json"]
    env = {"PYTHONPATH": str(SRC)}
    times = []
    for _ in range(COLD_START_SAMPLES):
        t = perf_counter()
        out = child(args, env)
        times.append(perf_counter() - t)
        if json.loads(out)["exceptional_n18"] is not True:
            raise RuntimeError(f"cold-start classify gave {out!r}")
    return statistics.median(times) * 1e3


def per_layer(wl, args, ops):
    """One interleaved pass (untraced and traced) plus the probe, traced."""
    tracer = Tracer()
    tally = Tally()
    plain = traced = 0.0
    for i, op in enumerate(ops):
        # alternate which goes first, so machine phases hit both alike
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            if not on:
                dt, _, _ = timed(op, NO_SPAN)
                plain += dt
                continue
            tally.start_pass()
            first = len(tracer.spans)
            with tracer.span("op", key=str(op.key)):
                dt, result, exc = timed(op, tracer.span)
            audits = sum(s.end - s.start for s in tracer.spans[first:]
                         if s.name == "enumerate.audit_table")
            traced += dt - audits
            tally.record(op, result, exc)
    for op in wl.probe_ops():
        tally.start_pass()
        with tracer.span("probe", key=str(op.key)):
            _, result, exc = timed(op, tracer.span)
        tally.record(op, result, exc)

    spans = tracer.spans
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def mean_self(name, scale):
        xs = [own[s.id] for s in named(name)]
        return statistics.fmean(xs) * scale

    tc = [s for s in named("enumerate.todd_coxeter") if s.counts]  # not failed ones
    tc_s = sum(own[s.id] for s in tc)
    complete = [s for s in tc if s.counts["complete"]]
    overflow = [s for s in tc if not s.counts["complete"]]
    metrics = {
        "enumerate.todd_coxeter_s": (tc_s, "s"),
        "enumerate.defined_per_s": (sum(s.counts["defined"] for s in tc) / tc_s, "1/s"),
        "enumerate.defined_per_index": (
            sum(s.counts["defined"] for s in complete)
            / sum(s.counts["count"] for s in complete), "cosets/index"),
        "enumerate.overflow_live_rows": (
            statistics.fmean(s.counts["count"] for s in overflow), "rows"),
        "enumerate.audit_table_s": (
            sum(own[s.id] for s in named("enumerate.audit_table")), "s"),
        "dynamics.orbit_report_ms": (mean_self("dynamics.orbit_report", 1e3), "ms"),
        "dynamics.verify_n18_evidence_ms": (
            mean_self("dynamics.verify_n18_evidence", 1e3), "ms"),
        "taxonomy.classify_us": (mean_self("taxonomy.classify", 1e6), "us"),
        "cyclic.orientability_us": (mean_self("cyclic.orientability", 1e6), "us"),
        "relative.to_relative_us": (mean_self("relative.to_relative", 1e6), "us"),
        "relative.lift_us": (mean_self("relative.lift", 1e6), "us"),
        "relative.rho_us": (mean_self("relative.rho", 1e6), "us"),
        "words.parse_word_us": (mean_self("words.parse_word", 1e6), "us"),
        "cli.cold_start_ms": (cold_start_ms(), "ms"),
        "trace.overhead_s": (traced - plain, "s"),
    }
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"{args.workload}-seed{args.seed}-spans.json")
    info = {"spans": len(spans), "untraced_s": plain, "traced_s": traced}
    return tally, metrics, info


def main(argv=None):
    args = parse_args(argv)
    wl = import_workloads()
    ops = wl.build(args.workload, args.seed)
    if args.setup_only:
        print(perf_counter() - T0)
        return 0
    gc.freeze()  # keep the inputs out of the per-operation collections
    if args.trace:
        tally, metrics, info = per_layer(wl, args, ops)
    else:
        tally, metrics, info = end_to_end(wl, args, ops)
    for e in tally.errors[:20]:
        print("error:", e, file=sys.stderr)
    out = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(RESULTS / name, "w") as fh:
        json.dump({**out, "info": info, "errors": tally.errors}, fh, indent=1)
    for k, (v, u) in metrics.items():
        print(f"{args.workload:>12} {k:<32} {v:>14.6g} {u}")
    print(f"{args.workload:>12} {json.dumps(info)}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
