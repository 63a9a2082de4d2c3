"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest benchmarks -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gauge  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TARGETS, Tracer, self_times  # noqa: E402


# -- self time ---------------------------------------------------------------


def test_self_time_nested_and_back_to_back_children():
    spans = [
        (0, 0.0, 10.0, -1),  # root
        (1, 1.0, 3.0, 0),  # child a
        (1, 3.0, 5.0, 0),  # child b starts where a ends
        (2, 1.5, 2.5, 1),  # grandchild inside a
    ]
    assert self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 1.0])


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    spans = [
        (0, 0.0, 10.0, -1),
        (1, 6.0, 8.0, 0),
        (1, 7.0, 9.0, 0),  # overlaps the previous child: union is 6..9
        (1, 9.5, 12.0, 0),  # runs past the parent: only 9.5..10 counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 3.0 - 0.5)


def test_self_times_of_a_traced_call_add_up_to_its_duration():
    from laxepi import linalg

    original = linalg.kernel_basis
    tracer = Tracer()
    tracer.install()
    try:
        m = linalg.RationalMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
        linalg.kernel_basis(m)
    finally:
        tracer.uninstall()
    assert linalg.kernel_basis is original
    spans = list(tracer.spans())
    names = [tracer.names[tid] for tid, *_ in spans]
    assert names[0] == "linalg.kernel_basis" and "linalg.rref" in names
    root_start, root_end = spans[0][1], spans[0][2]
    assert sum(self_times(spans)) == pytest.approx(root_end - root_start)
    totals = tracer.layer_totals()
    assert totals["linalg.kernel_basis"]["calls"] == 1
    assert totals["linalg.rref"]["cells"] >= 9
    assert "self_s" not in totals["linalg.matrix_new"]


# -- host-speed gauge ------------------------------------------------------------


def _gauge_with(samples):
    g = gauge.Gauge()
    g.starts = [t for t, _ in samples]
    g.times = [d for _, d in samples]
    return g


def test_gauge_scales_a_time_by_the_median_sample_near_it():
    nominal = gauge.IN_PROCESS.nominal_s
    assert gauge.IN_PROCESS.window_s == 1.0
    g = _gauge_with([(0.0, nominal), (0.5, 2 * nominal), (0.9, 2 * nominal), (10.0, 4 * nominal)])
    # samples within window_s of [0.2, 0.7]: the first three, median twice the nominal
    assert g.factor(0.2, 0.7) == pytest.approx(2.0)
    assert g.normalize(0.2, 0.5) == pytest.approx(0.25)
    # no sample within window_s: the nearest on either side
    assert g.factor(5.0, 5.5) == pytest.approx(3.0)
    assert g.recent_factor() == pytest.approx(2.0)


def test_gauge_reference_is_fixed_work():
    assert gauge.reference() == gauge.reference() == 7 + 2000


def test_new_process_gauge_samples_only_between_operations():
    g = gauge.Gauge(gauge.NEW_PROCESS)
    with g.sampling():
        g.maybe_sample()
        g.maybe_sample()  # within period_s of the first: no sample
    assert len(g.times) == 1 and g.spent == g.times[0] > 0
    assert workloads.make("cli-check").gauge().ref is gauge.NEW_PROCESS
    assert workloads.make("an-ladder").gauge().ref is gauge.IN_PROCESS


def test_rounds_fill_the_seconds_at_least_once():
    w = workloads.make("an-ladder")
    assert w.rounds(0.1) == 1
    assert w.rounds(3 * w.round_s) == 3


# -- percentile rule -----------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert run.p90_if_supported([float(i) for i in range(99)]) is None
    assert run.p90_if_supported([float(i) for i in range(100)]) == 89.0
    assert run.p90_if_supported([float(i) for i in range(109)]) == 98.0
    assert run.p90_if_supported([float(i) for i in range(105)]) == 94.0


# -- latency limit --------------------------------------------------------------


def test_over_limit_operation_is_stopped_and_charged_at_the_limit():
    import signal
    import time

    def spin():
        end = time.perf_counter() + 5.0
        while time.perf_counter() < end:
            pass
        return True

    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    g = gauge.Gauge()
    g.sample(3)
    try:
        rec = run.Record()
        run.execute(workloads.Op("7:glax", spin, True), 0.05, rec, LookupError, g)
        run.execute(workloads.Op("8:glax", lambda: False, True), 0.05, rec, LookupError, g)
    finally:
        signal.signal(signal.SIGALRM, previous)
    rec.finish(g, 0.05)
    assert rec.timings[0][1] < 2.0  # stopped, not run to the end
    assert rec.over_limit == ["7:glax"] and rec.latencies[0] == 0.05
    assert rec.wrong == ["8:glax: got False, want True"]
    assert rec.completed == 1 and rec.attempted == 2


# -- verdict digests -----------------------------------------------------------


def _digest(workload, passes: int):
    from laxepi.errors import PreconditionError

    rec = run.Record()
    g = gauge.Gauge()
    for ops, _ in zip(workload.passes(), range(passes)):
        for op in ops:
            run.execute(op, None, rec, PreconditionError, g)
    assert not rec.wrong and not rec.errors
    return run.verdict_digest(rec.verdicts), run.verdict_digest(rec.expected)


@pytest.mark.parametrize("name", ["corpus-sweep", "an-ladder"])
def test_digest_is_the_same_for_two_runs_on_one_seed(name):
    digests = []
    for _ in range(2):
        w = workloads.make(name)
        w.setup(5)
        digests.append(_digest(w, 8 if name == "corpus-sweep" else 1))
    assert digests[0] == digests[1]
    got, expected = digests[0]
    assert got == expected


def test_cli_verdict_reads_refusals_and_dims():
    refusal = json.dumps({"error": "E_NOT_SURJECTIVE_ON_OBJECTS", "message": "m"})
    assert workloads.cli_verdict("check", 2, refusal) == "refused:E_NOT_SURJECTIVE_ON_OBJECTS"
    dims = json.dumps({"closed_module": {"dims": {"10": 1, "2": 3, "1": 0}}})
    assert workloads.cli_verdict("localize", 0, dims) == [0, 3, 1]


# -- BENCHMARK.json ----------------------------------------------------------


def test_benchmark_json_names_metrics_the_run_prints():
    spec = run.load_benchmark_spec()
    assert {m["name"] for m in spec["end_to_end"]} <= set(run.END_TO_END_UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    totals = {t.name: {"calls": 0, "self_s": 0.0} for t in TARGETS}
    totals["linalg.rref"].update(cells=0, nnz=0)
    totals["linalg.matmul"]["mults"] = 0
    totals["modules.hom_modules"].update(unknowns=0, equations=0)
    totals["functors.induce"]["big_width"] = 0
    totals["functors.tensor_bimodule"]["big_width"] = 0
    totals["torsion.localize"].update(dim_in=0, dim_out=0)
    printed = run.layer_metrics(totals, [], 0.0, 0)
    for m in spec["per_layer"]:
        assert printed[m["name"]][1] == m["unit"], m["name"]
