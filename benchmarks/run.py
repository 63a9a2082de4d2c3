"""Benchmark of laxepi's deciders: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload corpus-sweep --seed 0 --seconds 20 --trace 0
    python3 benchmarks/run.py            # every workload in turn, seed 0

One process, one caller, closed loop: each operation starts when the
previous one has returned. A workload runs whole rounds of a fixed list of
operations, the number of rounds nearest to `--seconds` at the reference
speed (at least one), so that the work a run does depends on `--seconds`
alone and not on how fast the host happens to be.

Every timed end-to-end metric is in seconds at the reference speed: each
operation's time is divided by the host-speed factor that `gauge.Gauge`
measured around it (see gauge.py). The raw figures are printed too.

`--trace 0` prints the end-to-end metrics of an untraced run. `--trace 1`
runs the same operations untraced, then again on fresh inputs with every
layer of `tracer.TARGETS` wrapped, and prints the per-layer metrics and the
tracing overhead (traced time over untraced time, both at the reference
speed). Every operation's verdict is checked; the command exits 1 when one
is wrong or raised, and 2 when the library is not found. The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import time

from gauge import Gauge
from tracer import Tracer, merge_totals
from workloads import ROOT, WORKLOADS, child_env, make

# Set-ups per run: at least SETUP_MIN, and more until SETUP_SECONDS have passed.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 15, 1.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class OverLimit(Exception):
    """Raised by the interval timer when an operation passes the latency limit."""


def _on_alarm(signum, frame):
    raise OverLimit()


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def p90_if_supported(values: list[float]) -> float | None:
    """Nearest-rank 90th percentile, or None unless 10 samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    if len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def verdict_digest(verdicts: dict[str, object]) -> str:
    """Order-free digest of operation name -> verdict."""
    h = hashlib.sha256()
    for key in sorted(verdicts):
        h.update(f"{key}={json.dumps(verdicts[key], sort_keys=True)}\n".encode())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Record:
    """Outcome of every operation of one loop."""

    def __init__(self):
        self.timings: list[tuple[float, float, bool]] = []  # start, raw seconds, over limit
        self.latencies: list[float] = []  # seconds at the reference speed, set by `finish`
        self.verdicts: dict[str, object] = {}
        self.expected: dict[str, object] = {}
        self.wrong: list[str] = []
        self.errors: list[str] = []
        self.over_limit: list[str] = []
        self.rounds = 0

    @property
    def attempted(self) -> int:
        return len(self.timings)

    @property
    def completed(self) -> int:
        return self.attempted - len(self.errors) - len(self.over_limit)

    @property
    def raw_latencies(self) -> list[float]:
        return [raw for _, raw, _ in self.timings]

    def finish(self, gauge: Gauge, limit: float | None) -> None:
        """Each time at the reference speed; an over-limit operation counts at the limit."""
        self.latencies = [
            limit if over else gauge.normalize(start, raw) for start, raw, over in self.timings
        ]


def execute(op, limit: float | None, rec: Record, refusal, gauge: Gauge) -> None:
    """Run one operation and check its verdict.

    `limit` is in seconds at the reference speed; the timer that stops the
    operation is set to it times the host's current speed factor.
    """
    gc.collect()  # every operation starts from the same collector state
    gauge.maybe_sample()
    timer = limit * gauge.recent_factor() if limit else 0.0
    status, got = "ok", None
    spent = gauge.spent
    start = time.perf_counter()
    try:
        try:
            if timer:
                signal.setitimer(signal.ITIMER_REAL, timer)
            got = op.run()
        except refusal as e:
            got = f"refused:{e.code}"
        except OverLimit:
            status = "over_limit"
        except Exception as e:  # a crash is a failed operation, not the end of the run
            status, got = "error", f"{type(e).__name__}: {e}"
        finally:
            if timer:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except OverLimit:  # the timer fired between the return and the disarm
        pass
    elapsed = time.perf_counter() - start - (gauge.spent - spent)  # less the gauge's samples
    rec.timings.append((start, elapsed, status == "over_limit"))
    if status == "over_limit":
        rec.over_limit.append(op.key)
        return
    if status == "error":
        rec.errors.append(f"{op.key}: {got}")
        return
    rec.verdicts[op.key] = got
    rec.expected[op.key] = op.want
    if got != op.want:
        rec.wrong.append(f"{op.key}: got {got!r}, want {op.want!r}")


def run_loop(workload, refusal, rounds: int) -> Record:
    """`rounds` rounds of the workload; only the operations themselves are timed.

    The inputs made in set-up are frozen out of the cyclic collector, so that
    a collection inside an operation costs what it would in a process that
    holds only that operation's inputs.
    """
    gauge = workload.gauge()
    gauge.sample(5)
    rec = Record()
    gc.collect()
    gc.freeze()
    try:
        with gauge.sampling():
            for _ in range(rounds):
                for ops in workload.passes():
                    for op in ops:
                        execute(op, workload.latency_limit, rec, refusal, gauge)
                rec.rounds += 1
    finally:
        gc.unfreeze()
    gauge.sample(5)
    rec.finish(gauge, workload.latency_limit)
    return rec


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def import_seconds() -> float:
    """`import laxepi` in a fresh interpreter, timed inside it."""
    code = "import time; t = time.perf_counter(); import laxepi; print(time.perf_counter() - t)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout)


def timed_setup(workload, seed: int) -> tuple[float, float]:
    """Median over several set-ups of import time plus input generation,
    at the reference speed and raw."""
    gauge = workload.gauge()
    timings = []
    begin = time.perf_counter()
    with gauge.sampling():
        while len(timings) < SETUP_MIN or (
            len(timings) < SETUP_MAX and time.perf_counter() - begin < SETUP_SECONDS
        ):
            gauge.sample(3)
            t0 = time.perf_counter()
            t_import = import_seconds()
            spent = gauge.spent
            t1 = time.perf_counter()
            workload.setup(seed)
            t2 = time.perf_counter() - (gauge.spent - spent)
            gauge.sample(3)
            timings.append(((t0, t_import), (t1, t2 - t1)))
    normalized = [sum(gauge.normalize(s, d) for s, d in parts) for parts in timings]
    raw = [sum(d for _, d in parts) for parts in timings]
    return statistics.median(normalized), statistics.median(raw)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def peak_rss_mb(workload_name: str) -> float:
    """Peak resident set of the process that runs the operations (a CLI call in cli-check)."""
    who = resource.RUSAGE_CHILDREN if workload_name == "cli-check" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def end_to_end(latencies: list[float], completed: int, setup_s: float, rss_mb: float) -> dict[str, float]:
    """ops_per_s is operations completed per second busy running operations."""
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": completed / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": rss_mb,
    }
    p90 = p90_if_supported(latencies)
    if p90 is not None:
        metrics["latency_p90_ms"] = p90 * 1e3
    return metrics


def layer_metrics(
    totals: dict, import_ms: list[float], overhead_pct: float, spans: int
) -> dict[str, tuple[float, str]]:
    """Flatten tracer totals into named per-layer metrics with units."""
    out: dict[str, tuple[float, str]] = {}
    for layer, fields in sorted(totals.items()):
        out[f"{layer}.calls"] = (fields["calls"], "count")
        if "self_s" in fields:
            out[f"{layer}.self_s"] = (fields["self_s"], "s")
        if "cells" in fields:
            out[f"{layer}.cells"] = (fields["cells"], "count")
            out[f"{layer}.nnz_ratio"] = (fields["nnz"] / fields["cells"] if fields["cells"] else 0.0, "ratio")
        for key in ("mults", "unknowns", "equations", "big_width"):
            if key in fields:
                out[f"{layer}.{key}"] = (fields[key], "count")
        if "dim_in" in fields:
            growth = fields["dim_out"] / fields["dim_in"] if fields["dim_in"] else 0.0
            out[f"{layer}.dim_growth"] = (growth, "ratio")
    out["cli.import_ms"] = (statistics.median(import_ms) if import_ms else 0.0, "ms")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    out["trace.spans"] = (spans, "count")
    return out


def load_benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def traced_loop(args, refusal) -> tuple[Record, dict, list[float], int, list]:
    """The same operations again, on fresh inputs, with every layer wrapped.

    Returns the record, the layer totals, the CLI children's import times,
    the span count and the layers absent from the library.
    """
    workload = make(args.workload, traced=True)
    tracer = Tracer()
    try:
        workload.setup(args.seed)  # fresh inputs: TorsionData caches its J modules
        tracer.install()
        try:
            rec = run_loop(workload, refusal, workload.rounds(args.seconds))
        finally:
            tracer.uninstall()
    finally:
        workload.close()
    totals = tracer.layer_totals()
    spans = tracer.span_count()
    import_ms = []
    for child in getattr(workload, "child_totals", []):
        merge_totals(totals, child["totals"])
        import_ms.append(child["import_ms"])
        spans += child["spans"]
    return rec, totals, import_ms, spans, tracer.missing


def report_loop(name: str, rec: Record, limit: float | None) -> None:
    fails = len(rec.wrong) + len(rec.errors) + len(rec.over_limit)
    print(f"{name}: {rec.attempted} operations in {rec.rounds} rounds, "
          f"{sum(rec.latencies):.3f} s at the reference speed, {sum(rec.raw_latencies):.3f} s raw")
    print(f"fail_ratio = {fails / rec.attempted:.6g} ratio (wrong {len(rec.wrong)}, "
          f"errors {len(rec.errors)}, over limit {len(rec.over_limit)})")
    if limit:
        seeds = sorted({int(k.split(":")[0]) for k in rec.over_limit})
        print(f"latency limit {limit} s; over-limit seeds: {seeds}")
    print(f"verdict digest {verdict_digest(rec.verdicts)}, "
          f"expected {verdict_digest(rec.expected)}")
    for line in rec.wrong + rec.errors:
        print(f"FAILED {line}")


def run_all(args) -> int:
    """Every workload in turn, each in its own process; exits 1 if any failed."""
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return 1 if status else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument(
        "--seconds", type=float, default=20.0,
        help="time to measure, at the reference speed, in whole rounds of the workload",
    )
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "laxepi" / "__init__.py").is_file():
        print(f"laxepi sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    from laxepi.errors import PreconditionError

    spec = load_benchmark_spec()
    signal.signal(signal.SIGALRM, _on_alarm)
    workload = make(args.workload)
    try:
        if args.trace:  # set-up time is an end-to-end metric: one untimed set-up will do
            workload.setup(args.seed)
        else:
            setup_s, setup_raw = timed_setup(workload, args.seed)
        untraced = run_loop(workload, PreconditionError, workload.rounds(args.seconds))
    finally:
        workload.close()
    report_loop("untraced", untraced, workload.latency_limit)
    records = [untraced]
    if args.trace:
        traced, totals, import_ms, spans, missing = traced_loop(args, PreconditionError)
        records.append(traced)
        report_loop("traced", traced, workload.latency_limit)
        if missing:
            print(f"not traced (absent from the library): {', '.join(missing)}")
        overhead = (sum(traced.latencies) / sum(untraced.latencies) - 1.0) * 100.0
        metrics = layer_metrics(totals, import_ms, overhead, spans)
        wanted = [m["name"] for m in spec["per_layer"]]
    else:
        rss = peak_rss_mb(args.workload)
        raw = end_to_end(untraced.raw_latencies, untraced.completed, setup_raw, rss)
        print("raw: " + ", ".join(f"{k} = {v:.6g} {END_TO_END_UNITS[k]}" for k, v in raw.items()))
        print("at the reference speed:")
        metrics = {
            k: (v, END_TO_END_UNITS[k])
            for k, v in end_to_end(untraced.latencies, untraced.completed, setup_s, rss).items()
        }
        wanted = [m["name"] for m in spec["end_to_end"]]
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")

    attempted = sum(r.attempted for r in records)
    failed = sum(len(r.wrong) + len(r.errors) for r in records)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted if k in metrics},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
