"""Self-tests of the benchmark: statistics, span arithmetic, inputs, checks.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchlib import checks, speed, stats  # noqa: E402
from benchlib.layers import PER_LAYER  # noqa: E402
from benchlib.tracer import Span, Tracer  # noqa: E402
from benchlib.workloads import WORKLOADS, build_world, scaled_config  # noqa: E402


def _load_run_module():
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- the percentile rule ---------------------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (200, 95.0), (960, 98.0), (999, 98.0),
     (1000, 99.0), (8000, 99.0), (10000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.highest_supported_percentile(count) == expected


def test_tail_summary_records_whether_the_rule_holds():
    values = list(range(1, 1001))
    summary = stats.tail_summary(values, 99.0)
    assert summary["samples"] == 1000 and summary["beyond"] == 10
    assert summary["rule_ok"]
    assert summary["p50"] == pytest.approx(500.5)
    assert summary["tail"] == pytest.approx(990.01)
    short = stats.tail_summary([3.0, 1.0, 2.0], None)
    assert short["tail"] == short["p50"] == 2.0 and not short["rule_ok"]


def test_quartiles_match_statistics_module():
    values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 10.1, 9.9, 10.4]
    q = stats.quartiles(values)
    import statistics

    q1, median, q3 = statistics.quantiles(values, n=4)
    assert (q["q1"], q["median"], q["q3"]) == (q1, median, q3)
    assert q["spread"] == pytest.approx((q3 - q1) / median)


# -- span arithmetic ---------------------------------------------------------------


def _span(tracer, name, start, end, parent=None):
    span = Span(name, start, parent, "t", "measure")
    span.end = end
    tracer.spans.append(span)
    return span


def test_self_time_subtracts_the_union_of_direct_children():
    tracer = Tracer()
    root = _span(tracer, "report", 0.0, 10.0)
    child_a = _span(tracer, "detect", 1.0, 3.0, root)
    _span(tracer, "detect", 2.0, 5.0, root)  # overlaps child_a: union 1..5
    _span(tracer, "scan", 8.0, 12.0, root)  # clipped to the parent: 8..10
    _span(tracer, "inner", 1.5, 2.5, child_a)  # grandchild: not subtracted again
    assert tracer.self_time("report") == pytest.approx(10.0 - 4.0 - 2.0)
    assert tracer.self_time("detect") == pytest.approx(2.0 - 1.0 + 3.0)


def test_busy_counts_reentrant_spans_once_and_filters_by_ancestor():
    tracer = Tracer()
    tick = _span(tracer, "tick", 0.0, 10.0)
    outer = _span(tracer, "refine", 1.0, 4.0, tick)
    _span(tracer, "refine", 2.0, 3.0, outer)
    _span(tracer, "refine", 20.0, 21.0)
    assert tracer.busy("refine") == pytest.approx(4.0)
    assert tracer.busy("refine", within="tick") == pytest.approx(3.0)


def test_wrappers_link_parents_and_share_a_trace_id():
    tracer = Tracer()
    tracer.phase = "measure"
    inner = tracer.timed("inner", lambda: 1)
    outer = tracer.timed("outer", lambda: inner() + 1)
    assert outer() == 2 and outer() == 2
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    first_inner, first_outer = by_name["inner"][0], by_name["outer"][0]
    assert first_inner.parent is first_outer
    assert first_inner.trace == first_outer.trace
    assert by_name["outer"][0].trace != by_name["outer"][1].trace
    assert first_outer.start <= first_inner.start <= first_inner.end <= first_outer.end


def test_counted_wrapper_counts_outermost_measured_calls():
    tracer = Tracer()
    calls = []

    def flows(depth):
        calls.append(depth)
        return counted(depth - 1) if depth else 0

    counted = tracer.counted("flows", flows)
    counted(2)  # set-up phase: not counted
    tracer.phase = "measure"
    counted(2)
    counted(0)
    assert tracer.counts["flows"] == 2
    assert len(calls) == 7


# -- reference-speed scaling -------------------------------------------------------------


def _meter(samples):
    meter = speed.SpeedMeter()
    for start, duration_ms in samples:
        meter.starts.append(start)
        meter.durations.append(duration_ms / 1e3)
    return meter


def test_an_operation_is_scaled_by_the_probes_taken_during_it():
    inside = [(float(t), 2 * speed.REFERENCE_MS) for t in range(10, 20)]
    meter = _meter([(0.0, speed.REFERENCE_MS)] + inside + [(30.0, speed.REFERENCE_MS)])
    # The host ran the probe at half the reference speed during [9, 21].
    assert meter.factor(9.0, 21.0) == pytest.approx(0.5)
    assert meter.scale(9.0, 12.0) == pytest.approx(6.0)


def test_a_short_operation_widens_to_the_nearest_probes():
    slow = [(float(t), 4 * speed.REFERENCE_MS) for t in range(speed.NEAREST)]
    fast = [(100.0 + t, speed.REFERENCE_MS) for t in range(speed.NEAREST)]
    meter = _meter(slow + fast)
    assert meter.factor(4.2, 4.3) == pytest.approx(0.25)
    assert meter.factor(104.2, 104.3) == pytest.approx(1.0)
    # With fewer probes than NEAREST, all of them count.
    assert _meter([(0.0, speed.REFERENCE_MS)]).factor(5.0, 6.0) == pytest.approx(1.0)
    with pytest.raises(RuntimeError):
        speed.SpeedMeter().factor(0.0, 1.0)


def test_background_sampling_records_probes_and_stops_its_thread():
    import threading
    import time

    meter = speed.SpeedMeter()
    with meter.sampling(period_s=0.005):
        time.sleep(0.1)
    assert len(meter.durations) >= 3
    assert meter.starts == sorted(meter.starts)
    assert 0.0 < meter.busy_s < 0.1
    assert not any(t.name == "speed-sampler" for t in threading.enumerate())
    meter.reset()
    assert meter.durations == [] and meter.busy_s == 0.0


# -- generated inputs ----------------------------------------------------------------


def test_same_seed_gives_byte_identical_inputs():
    from repro.simulation.config import SimulationConfig

    def inputs(seed):
        config = scaled_config(seed, scale=2, base=SimulationConfig.tiny(seed))
        return checks.world_bytes(build_world(config))

    first = inputs(5)
    assert first == inputs(5)
    assert first != inputs(6)
    assert scaled_config(5) == scaled_config(5)


def test_scaled_config_multiplies_every_wash_count():
    from repro.simulation.config import SimulationConfig

    base = SimulationConfig(seed=3)
    scaled = scaled_config(3)
    assert scaled.legit_traders == 4 * base.legit_traders
    assert scaled.wash_mix.total_planted == 4 * base.wash_mix.total_planted
    assert scaled.duration_days == base.duration_days


# -- output checks ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_result():
    from repro.analysis.report import PaperReport
    from repro.simulation.config import SimulationConfig

    return PaperReport(build_world(SimulationConfig.tiny(3))).result


def test_a_perturbed_result_is_counted_as_a_failure(tiny_result):
    import copy

    run = _load_run_module()
    reference = checks.detection_digest(tiny_result)
    perturbed = copy.copy(tiny_result)
    perturbed.activities = tiny_result.activities[:-1]
    results = [
        checks.compare("same", checks.detection_digest(tiny_result), reference),
        checks.compare("perturbed", checks.detection_digest(perturbed), reference),
        checks.exactly_once("alerts", [0, 1, 1, 3], 4),
        checks.from_mismatches("parity", ["funnel_stats diverges"]),
    ]
    assert [r.ok for r in results] == [True, False, False, False]

    from benchlib.workloads import Measurement

    record = {"m": Measurement(attempted=5), "checks": results}
    attempted, failed, problems = run.outcome([record])
    assert (attempted, failed) == (9, 3)
    assert len(problems) == 3


def test_stored_reference_digests_are_well_formed():
    references = checks.load_references()
    for seed, digest in references.get("batch-4x", {}).items():
        assert int(seed) >= 0 and len(digest) == 64


# -- the benchmark definition ------------------------------------------------------------


def test_benchmark_json_matches_the_metrics_the_runner_emits():
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = _load_run_module()
    assert [w["name"] for w in definition["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in definition["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in definition["per_layer"]] == PER_LAYER
    setup = [m for m in definition["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in definition["end_to_end"])
