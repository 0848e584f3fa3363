#!/usr/bin/env python3
"""Benchmark of ptakkit's exact, certified solves.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py                   # all four workloads, seed 0
    python3 perfbench/run.py --smoke --trace 1 # tiny inputs, a few seconds

The library is imported from ``src/`` of the checkout this file sits in, never
from an installed copy.  Set-up makes the workload's inputs from ``--seed``.
The run then times passes over the items, back to back in one thread
(a closed loop with one client), until ``--seconds`` have passed, and checks
every output exactly.  Between items it times a fixed reference loop, and the
end-to-end times are given in units of that loop, which cancels the speed
swings of a shared host.  ``--trace 1`` adds one traced pass and reports the
per-layer metrics instead of the end-to-end ones.  The last line of standard
output is the JSON result; the lines above it are the same numbers for
people.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
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
import traceback
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("corpus", "large_lp", "oracle", "wide")
SETUP_REPEATS = 5

# The reference loop runs every REF_PERIOD_S of wall time in the timed run.
# An item's time is divided by the mean of the samples taken while it ran or
# within REF_WINDOW_S of it.
REF_PERIOD_S = 0.1
REF_WINDOW_S = 0.5

# metric -> unit; the names in BENCHMARK.json, in the JSON result line.  Item
# times are given in "ref": multiples of the reference loop's time around them.
END_TO_END = {"setup_s": "s", "certified_per_kref": "1/kref", "item_p50_ref": "ref",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "families.build_s": "s", "lp.solves": "count", "lp.pivots": "count",
    "lp.busy_s": "s", "lp.max_rows": "count", "lp.max_den_bits": "bits",
    "game.solves": "count", "game.rounds": "count", "game.self_s": "s",
    "game.useful_row_frac": "frac", "game.verify_s": "s", "game.verify_fail": "count",
    "accel.calls": "count", "accel.iterations": "count", "search.calls": "count",
    "search.nodes": "count", "norms.fnorm_calls": "count", "intervals.calls": "count",
    "trace.overhead_frac": "frac", "trace.coverage": "frac",
}
# printed only (see README.md): the end-to-end times in seconds, times that
# read 0 on some workload, ratios undefined on some, an input size, and figures
# the JSON line cannot hold
PRINTED = {
    "certified_per_s": "1/s", "item_p50_ms": "ms", "ref_ms": "ms", "item_p90_ms": "ms",
    "failed_frac": "frac", "families.sets": "count",
    "intervals.sweep_s": "s", "game.incidence_s": "s", "accel.busy_s": "s",
    "accel.us_per_iter": "us", "accel.converged_frac": "frac", "search.busy_s": "s",
    "norms.busy_s": "s", "trace.overhead_per_s": "1/s", "trace.coverage_min": "frac",
}
UNITS = {**END_TO_END, **PER_LAYER, **PRINTED}

# corpus: the first delta_exact of each item, summed (ROADMAP baseline)
BASELINE_FIRST_SOLVE = {"solves": 1864, "pivots": 8743}

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import numpy, ptakkit; "
    "ptakkit.accel.fp_bracket(numpy.eye(2, dtype=numpy.int64), 4, 0.5); "
    "print(time.perf_counter() - t)"
)


def load_library():
    """Import ptakkit from ``src/``; exit with a message when the checkout has none."""
    if not (SRC / "ptakkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {SRC / 'ptakkit'}")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import ptakkit

    if Path(ptakkit.__file__).resolve().parent != SRC / "ptakkit":
        sys.exit(f"perfbench: ptakkit imported from {ptakkit.__file__}, not {SRC}")
    return ptakkit


def import_seconds() -> float:
    """Import plus play-kernel warm-up (JIT when numba is present) in a fresh
    interpreter, as every CLI command pays it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=170)
    return float(out.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    import numpy
    from ptakkit import accel

    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "ptakkit").glob("*.py"))
    return {"backend": accel.backend_name(), "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(), "seed": seed,
            "src_lines": src_lines}


_REF_MATRIX = [[Fraction((3 * i + 7 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(7)]
               for i in range(7)]


def reference_loop() -> int:
    """A fixed pure-Python workload of the same kind as ptakkit's: Fraction
    elimination of a 7x7 matrix and 200 frozensets, four times over.  It takes
    about 2 ms on a 2.1 GHz Xeon.  It uses only the standard library, so no
    change to ptakkit moves it, while the host's speed moves it as it moves
    the items."""
    sets = 0
    for _ in range(4):
        a = [row[:] for row in _REF_MATRIX]
        for c in range(len(a)):
            p = next(r for r in range(c, len(a)) if a[r][c] != 0)
            a[c], a[p] = a[p], a[c]
            for r in range(c + 1, len(a)):
                f = a[r][c] / a[c][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
        sets += len({frozenset(range(i, i + 5)) for i in range(200)})
    return sets


class ReferenceSampler:
    """Runs the reference loop from a wall-clock timer (SIGALRM), so that its
    samples are spread evenly over the run, inside items of seconds too.

    ``spent`` is the wall time of the timer's handler, which is taken out of
    the time of the item it interrupted.  The cyclic garbage collector is off
    while the loop runs: the loop makes no cycles, and a collection it set off
    would time the program's heap, not the host."""

    def __init__(self):
        self.at: list[float] = []  # when each sample started
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            reference_loop()
        finally:
            if enabled:
                gc.enable()
        took = time.perf_counter() - t0
        self.at.append(t0)
        self.samples.append(took)
        self.spent += took

    @contextmanager
    def running(self):
        self._tick()  # at least one sample, however short the run
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class ItemRun(NamedTuple):
    item: object  # item id
    seconds: float  # without the sampler's handler
    record: Optional[dict]  # reported values, None when the item failed
    error: Optional[str]
    span: tuple[float, float]  # perf_counter at start and end


def run_pass(workload, items, tracer=None, sampler=None) -> list[ItemRun]:
    """Run every item once.  An item's time leaves out the sampler's handler."""
    out = []
    for item_id, item in items:
        spent0 = sampler.spent if sampler else 0.0
        t0 = time.perf_counter()
        try:
            if tracer is None:
                record = workload.run(item)
            else:
                with tracer.item(item_id):
                    record = workload.run(item)
            error = None
        except Exception as exc:  # a failed item is counted, and the run goes on
            record, error = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        t1 = time.perf_counter()
        seconds = t1 - t0 - ((sampler.spent - spent0) if sampler else 0.0)
        out.append(ItemRun(item_id, seconds, record, error, (t0, t1)))
    return out


def set_up(workload, seed: int, smoke: bool) -> tuple[float, list]:
    """Median set-up time over SETUP_REPEATS fresh imports and input generations."""
    times = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        t0 = time.perf_counter()
        items = workload.inputs(seed, smoke)
        times.append(t_import + time.perf_counter() - t0)
    return statistics.median(times), items


class TimedRun(NamedTuple):
    runs: list[ItemRun]  # in run order; the first len(items) are the first pass
    sampler: ReferenceSampler
    passes: int  # begun, the last one maybe cut short
    elapsed: float

    def in_ref(self, run: ItemRun) -> float:
        """Item time of ``run`` in reference loops: divided by the mean of the
        samples taken while it ran or within REF_WINDOW_S of it."""
        at = self.sampler.at
        lo = bisect.bisect_left(at, run.span[0] - REF_WINDOW_S)
        hi = bisect.bisect_right(at, run.span[1] + REF_WINDOW_S)
        return run.seconds / statistics.fmean(self.sampler.samples[lo:hi] or self.sampler.samples)


def timed_run(workload, items, seconds: float) -> TimedRun:
    """Passes over the items, back to back, until ``seconds`` have passed, with
    at least one whole pass; the reference loop samples the host meanwhile."""
    runs = []
    passes = 0
    start = time.perf_counter()
    with ReferenceSampler().running() as sampler:
        while not (passes and time.perf_counter() - start >= seconds):
            passes += 1
            for item in items:
                if passes > 1 and time.perf_counter() - start >= seconds:
                    break
                runs += run_pass(workload, [item], sampler=sampler)
    return TimedRun(runs, sampler, passes, time.perf_counter() - start)


def digest(first_pass: list[ItemRun]) -> str:
    """sha256 of every reported value of one pass: deltas, brackets, sizes, counts."""
    values = [[r.item, r.record if r.error is None else r.error] for r in first_pass]
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()


def _fmt(name: str, value) -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<22} {shown:>14} {UNITS[name]}"


def _gate_line(what: str, got: tuple, want: tuple) -> str:
    verdict = "ok" if got == want else "FAIL"
    return f"gate: first delta_exact {what} {got} (expected {want}) {verdict}"


def traced_run(workload, name: str, seed: int, smoke: bool, untraced_per_s: float,
               baseline: bool) -> tuple[dict, list[ItemRun], list[str], bool]:
    """One traced input generation and one traced pass; per-layer metrics."""
    import tracing

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        with tracer.item("setup"):
            items = workload.inputs(seed, smoke)
        t0 = time.perf_counter()
        traced = run_pass(workload, items, tracer)
        elapsed = time.perf_counter() - t0
    layer = tracing.layer_metrics(tracer.spans)
    traced_per_s = sum(r.error is None for r in traced) / elapsed
    layer["trace.overhead_per_s"] = traced_per_s - untraced_per_s
    layer["trace.overhead_frac"] = 1 - traced_per_s / untraced_per_s if untraced_per_s else 0.0
    layer["trace.coverage"], layer["trace.coverage_min"] = tracing.item_coverage(tracer.spans)

    lines = [f"traced pass: {len(traced)} items in {elapsed:.2f} s"]
    lines += [_fmt(k, v) for k, v in layer.items()]
    lines += [f"  accel {item}: {secs:.4f} s, {iters} iterations"
              for item, secs, iters in tracing.per_item_accel(tracer.spans)]
    ok = True
    if baseline:
        got = tracing.first_solve_counts(tracer.spans)
        want = (BASELINE_FIRST_SOLVE["solves"], BASELINE_FIRST_SOLVE["pivots"])
        ok = got == want
        lines.append(_gate_line("(LP solves, pivots)", got, want))
    spans_path = ROOT / ".perfbench" / f"spans-{name}-seed{seed}.json"
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps([s.to_json_dict() for s in tracer.spans]))
    lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    return layer, traced, lines, ok


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> tuple[dict, list[str]]:
    """One workload run; returns the JSON result and the lines printed above it."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    setup_s, items = set_up(workload, seed, smoke)
    timed = timed_run(workload, items, seconds)
    runs, first_pass = timed.runs, timed.runs[:len(items)]

    # Each item's mean time over its runs: a pass cut short weighs no item twice.
    by_item = {}
    for r in runs:
        by_item.setdefault(r.item, []).append(r)
    item_s = [statistics.fmean(r.seconds for r in rs) for rs in by_item.values()]
    item_ref = [statistics.fmean(timed.in_ref(r) for r in rs) for rs in by_item.values()]
    certified = sum(all(r.error is None for r in rs) for rs in by_item.values())
    times = [r.seconds for r in runs]
    failed = sum(r.error is not None for r in runs)
    p90 = statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0]
    e2e = {
        "setup_s": setup_s,
        "certified_per_kref": certified / sum(item_ref) * 1e3,
        "item_p50_ref": statistics.median(item_ref),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "certified_per_s": certified / sum(item_s),
        "item_p50_ms": statistics.median(item_s) * 1e3,
        "ref_ms": statistics.fmean(timed.sampler.samples) * 1e3,
        "item_p90_ms": p90 * 1e3,
        "failed_frac": failed / len(runs),
    }
    lines = [f"workload {name}: {len(runs)} items in {timed.passes} pass(es) of {len(items)}, "
             f"{len(timed.sampler.samples)} reference loops, {timed.elapsed:.2f} s",
             "env " + json.dumps(environment(seed)),
             f"digest sha256:{digest(first_pass)}"]
    lines += [_fmt(k, v) for k, v in e2e.items()]
    beyond = sum(t > p90 for t in times)
    lines.append(f"  (item_p90_ms from {len(times)} samples, {beyond} beyond it)")
    ok = True
    baseline = name == "corpus" and not smoke
    if baseline:
        got = sum(r.record["pivots"] for r in first_pass if r.error is None)
        ok = got == BASELINE_FIRST_SOLVE["pivots"]
        lines.append(_gate_line("pivots", got, BASELINE_FIRST_SOLVE["pivots"]))
    metrics = {k: e2e[k] for k in END_TO_END}

    if trace:
        layer, traced, trace_lines, trace_ok = traced_run(
            workload, name, seed, smoke, e2e["certified_per_s"], baseline)
        runs += traced
        failed += sum(r.error is not None for r in traced)
        lines += trace_lines
        ok = ok and trace_ok
        metrics = {k: layer[k] for k in PER_LAYER}

    result = {
        "correct": failed == 0 and ok,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for checking the benchmark itself")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    load_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    all_correct = True
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
