"""matchlab benchmark harness.

    python3 bench/run.py --workload survey-3x3 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20

Run from the repository root. One process, no threads; CLI commands run
one at a time. `--trace 0` measures the end-to-end metrics with nothing
patched; `--trace 1` is a separate run that records per-layer spans from
outside the package and reports per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
NAMES = ("survey-3x3", "certify-2x2", "college-fixture", "cli-markets")
SETUP_REPEATS = 5
# The machine's speed drifts by a quarter over seconds to minutes on a
# shared 2-core box, so times are reported in durations of the reference
# loop, taken around each unit and each set-up. setup_s is converted back
# to seconds at the speed where the loop takes REF_NOMINAL_S.
REF_NOMINAL_S = 0.004
# reported on the line before the result, and in the `all` table
RAW_UNITS = {
    "units_per_s": "1/s",
    "unit_ms_p50": "ms",
    "unit_ms_p90": "ms",
    "p90_samples": "count",
    "setup_raw_s": "s",
    "failed_ratio": "ratio",
}
END_TO_END = {
    "units_per_ref": "1/ref",
    "unit_ref_p50": "ref",
    "unit_ref_p90": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class _Record:
    __slots__ = ("who", "what")

    def __init__(self, who, what):
        self.who = who
        self.what = what


def _reference_tables(n: int = 40, seed: int = 12345):
    rng = random.Random(seed)
    lists = [tuple(rng.sample(range(n), n)) for _ in range(n)]
    ranks = []
    for _ in range(n):
        rank = [0] * n
        for pos, i in enumerate(rng.sample(range(n), n)):
            rank[i] = pos
        ranks.append(tuple(rank))
    return lists, ranks


_LISTS, _RANKS = _reference_tables()
# a table of about 15 MB, so part of the loop waits on memory as the units do
_TABLE_SIZE = 150_000
_TABLE = {i * 7919: i for i in range(_TABLE_SIZE)}
_KEYS = list(_TABLE)


def reference_loop() -> int:
    """Fixed pure-Python work that touches no matchlab code: the yardstick
    for the `ref` metrics, timed between units so it sees the same machine.

    Most of it is a proposal loop over fixed random rank tables, with
    small-object allocation, tuple indexing and list and dict updates; a
    quarter of its time goes to random lookups in a table too large for
    the caches. On this box that mix tracked the speed of both light and
    heavy survey units better than either part alone.
    """
    n = len(_LISTS)
    total = 0
    for _ in range(20):
        nxt, held, free, records = [0] * n, [-1] * n, list(range(n)), []
        while free:
            i = free.pop()
            j = _LISTS[i][nxt[i]]
            nxt[i] += 1
            k = held[j]
            records.append(_Record(i, (j, k)))
            if k < 0 or _RANKS[j][i] < _RANKS[j][k]:
                held[j] = i
                if k >= 0:
                    free.append(k)
            else:
                free.append(i)
        tally: dict = {}
        for r in records:
            tally[r.what] = tally.get(r.what, 0) + r.who
        total += len(tally) + sum(held)
    x = seed = 12345
    for _ in range(1200):
        x = (x * 1103515245 + seed) & 0x7FFFFFFF
        total += _TABLE[_KEYS[x % _TABLE_SIZE]]
    return total


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def machine_record() -> dict:
    try:
        with open("/proc/loadavg", encoding="ascii") as f:
            load = f.read().split()[:3]
    except OSError:
        load = None
    return {"python": sys.version.split()[0], "nproc": os.cpu_count(), "loadavg": load}


def fresh_interpreter_seconds(code: str) -> float:
    """Wall time of `code` in a new interpreter, measured inside it."""
    probe = f"import time\nt0 = time.perf_counter()\n{code}\nprint(time.perf_counter() - t0)"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=60, check=True,
    )
    return float(out.stdout.strip())


def interpreter_wall_seconds(code: str) -> float:
    """Wall time of a whole new interpreter running `code`, start-up included."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, timeout=60, check=True)
    return time.perf_counter() - t0


def _betainc(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta I_x(a, b), by Lentz's continued fraction."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log1p(-x)
    ) / a
    f, c, d = 1.0, 1.0, 0.0
    for i in range(400):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 / (1.0 + num * d or 1e-30)
        c = 1.0 + num / c or 1e-30
        f *= c * d
        if abs(1.0 - c * d) < 1e-12:
            break
    return front * (f - 1.0)


def hd_quantile(values: list, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics. It spreads less between runs than any one order
    statistic, which matters where a run has few units or a fixed mix of
    unit kinds. (Harrell and Davis, Biometrika 69(3), 1982.)"""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def set_up(cls, seed: int, workdir: str):
    """Set the workload up SETUP_REPEATS times: import the package in a
    fresh interpreter, then generate inputs and load fixtures in this one.

    Returns the last build, the median set-up seconds, and the median
    set-up time in reference-loop durations.
    """
    seconds, in_refs = [], []
    for _ in range(SETUP_REPEATS):
        before = time_reference()
        t_import = fresh_interpreter_seconds("import matchlab, matchlab.cli")
        t0 = time.perf_counter()
        workload = cls(seed, ROOT, workdir)
        took = t_import + time.perf_counter() - t0
        seconds.append(took)
        in_refs.append(took * 2 / (before + time_reference()))
    return workload, statistics.median(seconds), statistics.median(in_refs)


def run_units(workload, seconds: float, tracer=None, limit=None):
    """Run units until `seconds` pass (at whole cycles) or `limit` units ran.

    Returns per-unit latencies, reference-loop times (one before the first
    unit and one after each) and failure reasons.
    """
    latencies, failures = [], []
    refs = [time_reference()]
    start = time.perf_counter()
    for i, inp in enumerate(workload.inputs()):
        if i == limit:
            break
        if limit is None and latencies and i % workload.cycle == 0 and time.perf_counter() - start >= seconds:
            break
        if tracer is not None:
            tracer.unit, tracer.active = i, True
        t0 = time.perf_counter()
        try:
            (out, took), reason = workload.timed(inp), None
        except Exception as exc:  # a raising unit is a failed unit, not a crash
            out, took, reason = None, time.perf_counter() - t0, f"raised {exc!r}"
        latencies.append(took)
        if tracer is not None:
            tracer.active = False
        if reason is None:
            try:
                reason = workload.check(inp, out)
            except Exception as exc:
                reason = f"check raised {exc!r}"
        if reason is not None:
            failures.append(f"unit {i}: {reason}")
        refs.append(time_reference())
    return latencies, refs, failures


def run_checks(workload) -> tuple[int, list]:
    """Run the once-per-run checks; return how many ran and their failures."""
    try:
        reasons = workload.run_checks()
    except Exception as exc:
        return 1, [f"run check raised {exc!r}"]
    return len(reasons), [f"run check: {r}" for r in reasons if r is not None]


def timed_run(cls, seed: int, seconds: float, workdir: str) -> dict:
    workload, setup_raw, setup_refs = set_up(cls, seed, workdir)
    attempted, failures = run_checks(workload)
    latencies, refs, unit_failures = run_units(workload, seconds, limit=workload.units_for(seconds))
    # each unit in reference-loop durations: its latency over the mean of
    # the reference timings taken just before and just after it
    in_refs = [u * 2 / (a + b) for u, a, b in zip(latencies, refs, refs[1:])]
    values = {
        "units_per_ref": len(in_refs) / sum(in_refs),
        "unit_ref_p50": hd_quantile(in_refs, 0.5),
        "unit_ref_p90": hd_quantile(in_refs, 0.9),
        "setup_s": setup_refs * REF_NOMINAL_S,
        "peak_rss_mb": workload.peak_rss_kb() / 1024.0,
    }
    attempted += len(latencies)
    failures += unit_failures
    raw = {
        "units_per_s": len(latencies) / sum(latencies),
        "unit_ms_p50": hd_quantile(latencies, 0.5) * 1e3,
        "unit_ms_p90": hd_quantile(latencies, 0.9) * 1e3,
        "p90_samples": len(latencies),
        "setup_raw_s": setup_raw,
        "ref_ms_p50": statistics.median(refs) * 1e3,
        "failed_ratio": len(failures) / attempted,
    }
    return {
        "attempted": attempted,
        "failures": failures,
        "raw": raw,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()},
    }


def traced_run(cls, seed: int, seconds: float, workdir: str) -> dict:
    import spans

    workload, _, _ = set_up(cls, seed, workdir)
    workload.subprocesses = False  # spans need the program in this process
    attempted, failures = run_checks(workload)
    tracer = spans.Tracer()
    workload.counts = tracer.counts
    uninstall = spans.install(tracer)
    try:
        traced, _, unit_failures = run_units(workload, seconds / 2, tracer=tracer)
    finally:
        uninstall()
    workload.counts = None
    values = spans.layer_metrics(tracer, len(traced))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{cls.name}-seed{seed}.jsonl.gz"))
    # drop the spans first: kept alive, they would slow the collector below
    tracer.spans.clear()
    # the same inputs again with nothing patched, for the tracing overhead
    plain, _, _ = run_units(workload, seconds, limit=len(traced))
    values["trace.overhead_ratio"] = sum(traced) / sum(plain)
    bare = statistics.median(interpreter_wall_seconds("pass") for _ in range(SETUP_REPEATS))
    loaded = statistics.median(
        interpreter_wall_seconds("import matchlab.cli") for _ in range(SETUP_REPEATS)
    )
    values["cli.startup_s"] = loaded - bare
    return {
        "attempted": attempted + len(traced),
        "failures": failures + unit_failures,
        "raw": {"units": len(traced)},
        "metrics": {k: {"value": v, "unit": spans.PER_LAYER[k]} for k, v in values.items()},
    }


def run_all(seconds: float, seed: int) -> int:
    """Each workload in its own process (so peak memory is its own), one table."""
    print(f"{'workload':<16} {'metric':<14} {'value':>12}  unit")
    status = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(f"{name:<16} failed to run (exit {proc.returncode})", file=sys.stderr)
            sys.stderr.write(proc.stderr)
            status = 1
            continue
        lines = proc.stdout.splitlines()
        raw, result = json.loads(lines[-2])["raw"], json.loads(lines[-1])
        rows = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
        rows += [(k, raw[k], unit) for k, unit in RAW_UNITS.items()]
        for key, value, unit in rows:
            print(f"{name:<16} {key:<14} {value:>12.4f}  {unit}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seconds, args.seed)

    sys.path.insert(0, SRC)
    try:
        import matchlab
    except ImportError as exc:
        print(f"error: cannot import matchlab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not os.path.abspath(matchlab.__file__).startswith(SRC + os.sep):
        print(f"error: matchlab was imported from {matchlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("MATCHLAB_BUDGET", None)
    from workloads import WORKLOADS

    machine = {"start": machine_record()}
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        runner = traced_run if args.trace else timed_run
        result = runner(WORKLOADS[args.workload], args.seed, args.seconds, workdir)
    except (OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: the benchmark could not run: {exc!r}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    machine["end"] = machine_record()

    failures = result["failures"]
    for reason in failures[:20]:
        print(f"FAILED {args.workload}: {reason}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "machine": machine, "raw": result["raw"]}))
    print(json.dumps({
        "correct": not failures,
        "attempted": result["attempted"],
        "failed": len(failures),
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
