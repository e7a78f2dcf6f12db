"""Experiment S-scale -- end-to-end pipeline wall-clock scaling.

Every case runs the full detection pipeline (refinement + confirmation)
over a synthetic world, parametrized by world size *and* detection
backend -- the legacy networkx path and the columnar engine.  Select
backends with ``--backends``, e.g.::

    PYTHONPATH=src python -m pytest benchmarks/bench_pipeline_scaling.py \
        --backends legacy,engine -q

``--smoke`` caps the worlds at "small" with fewer rounds (the CI
profile).  One acceptance check anchors the backend ordering on the
largest selected world: ``test_engine_beats_legacy_on_largest_world``
-- the columnar engine (including its store build) must outrun the
legacy path under both Tarjan backends, the compiled kernel and the
pure-Python fallback (``force_fallback()``) that hosts without a C
compiler run.

With ``--obs``, ``test_obs_overhead_on_largest_world`` adds the
observability bar: a fully instrumented streaming ingest over the
largest selected world must stay within 5% of the bare run while
producing the identical detection result.
"""

from __future__ import annotations

import time
from contextlib import nullcontext

import pytest

from benchmarks.conftest import BACKEND_PIPELINE_KWARGS, kernel_status
from repro.core.detectors.pipeline import WashTradingPipeline
from repro.serve import ServeService
from repro.ingest.dataset import build_dataset
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig

WORLD_CONFIGS = {
    "tiny": SimulationConfig.tiny,
    "small": SimulationConfig.small,
    "default": SimulationConfig,
}


def run_full_pipeline(world, dataset=None, **pipeline_kwargs):
    if dataset is None:
        dataset = build_dataset(world.node, world.marketplace_addresses)
    # Drop any cached columnar store so engine timings include its build.
    dataset._columnar_store = None
    pipeline = WashTradingPipeline(
        labels=world.labels, is_contract=world.is_contract, **pipeline_kwargs
    )
    return pipeline.run(dataset)


@pytest.mark.parametrize("label", ["tiny", "small", "default"])
def test_pipeline_scaling(benchmark, label, backend, scaling_profile):
    if label not in scaling_profile["worlds"]:
        pytest.skip(f"world '{label}' excluded by the --smoke profile")
    world = build_default_world(WORLD_CONFIGS[label]())
    dataset = build_dataset(world.node, world.marketplace_addresses)
    result = benchmark.pedantic(
        run_full_pipeline,
        args=(world,),
        kwargs={"dataset": dataset, **BACKEND_PIPELINE_KWARGS[backend]},
        iterations=1,
        rounds=scaling_profile["rounds"],
    )
    print(
        f"\n== pipeline scaling [{label}/{backend}] =="
        f" transfers={world.chain.transaction_count()}"
        f" candidates={result.candidate_count} activities={result.activity_count}"
        f" ({kernel_status()})"
    )
    assert result.activity_count > 0


def _best_of(rounds, world, dataset, **pipeline_kwargs):
    best = None
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = run_full_pipeline(world, dataset=dataset, **pipeline_kwargs)
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best, result


@pytest.fixture(scope="module")
def largest_world(scaling_profile):
    world = build_default_world(WORLD_CONFIGS[scaling_profile["largest"]]())
    dataset = build_dataset(world.node, world.marketplace_addresses)
    return scaling_profile["largest"], world, dataset


@pytest.fixture(scope="module")
def legacy_best(largest_world):
    _, world, dataset = largest_world
    return _best_of(3, world, dataset, engine="legacy")


@pytest.mark.parametrize("tarjan", ["compiled", "fallback"])
def test_engine_beats_legacy_on_largest_world(largest_world, legacy_best, tarjan):
    """The engine must outrun the legacy path at the largest scale, with
    the compiled Tarjan and with the pure-Python fallback."""
    from repro.engine.kernels import force_fallback

    label, world, dataset = largest_world
    legacy_s, legacy_result = legacy_best
    with force_fallback() if tarjan == "fallback" else nullcontext():
        engine_s, engine_result = _best_of(3, world, dataset, engine="columnar")
        status = kernel_status()

    print(
        f"\n== engine vs legacy [{label} world] == {status}\n"
        f"legacy={legacy_s:.3f}s engine={engine_s:.3f}s "
        f"speedup={legacy_s / engine_s:.2f}x"
    )
    assert engine_result.activity_count == legacy_result.activity_count
    assert engine_s < legacy_s


def _stream_best_of(rounds, world, registry_factory, configure=None):
    """Best-of-``rounds`` full streaming ingest over ``world``'s chain.

    ``configure(service, registry)`` runs before each timed ingest --
    the hook the instrumented variant uses to attach its SLO engine.
    """
    import time as _time

    best = None
    result = None
    registry = None
    for _ in range(rounds):
        registry = registry_factory()
        service = ServeService.for_world(world, registry=registry)
        if configure is not None:
            configure(service, registry)
        started = _time.perf_counter()
        service.run()
        elapsed = _time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
        result = service.result()
    return best, result, registry


def test_obs_overhead_on_largest_world(largest_world, obs_enabled):
    """Instrumentation must cost <5% of ingest at the largest scale.

    The observability overhead bar: a full streaming ingest (cursor ->
    scheduler -> monitor -> serving index, every layer carrying its
    counters and spans, plus the ISSUE 9 layers -- per-tick trace
    minting and context, the alert-latency ledger, and a live SLO
    engine evaluating a latency and an error-rate objective every tick)
    over the largest selected world must stay within 5% of the
    identical uninstrumented run -- and must produce the identical
    detection result.  Best-of-five per variant to damp machine noise.
    """
    from repro.obs import (
        MetricsRegistry,
        SLOEngine,
        latency_objective,
        wire_error_objective,
    )

    def attach_slo(service, registry):
        service.attach_slo(
            SLOEngine(
                registry,
                [
                    latency_objective(0.25, stage="detect"),
                    wire_error_objective(0.01),
                ],
            )
        )

    label, world, _ = largest_world
    bare_best, bare_result, _ = _stream_best_of(5, world, lambda: None)
    obs_best, obs_result, registry = _stream_best_of(
        5, world, MetricsRegistry, configure=attach_slo
    )

    overhead = obs_best / bare_best - 1.0
    snapshot = registry.snapshot()
    blocks = snapshot["counters"]["cursor_blocks_ingested_total"]
    ticks = snapshot["counters"]["monitor_ticks_total"]
    tick_spans = snapshot["histograms"]['span_seconds{span="tick"}']["count"]
    detect_latency = snapshot["histograms"][
        'alert_latency_seconds{stage="detect"}'
    ]
    print(
        f"\n== obs overhead [{label} world] == "
        f"bare={bare_best:.3f}s instrumented={obs_best:.3f}s "
        f"({overhead * 100:+.2f}%, bar +5%)\n"
        f"  instrumented run saw {blocks} blocks, {ticks} ticks, "
        f"{tick_spans} tick spans, detect-stage latency "
        f"p95={detect_latency['p95'] * 1e3:.2f}ms "
        f"over {int(detect_latency['count'])} traces"
    )
    assert obs_result.activity_count == bare_result.activity_count
    assert obs_result.candidate_count == bare_result.candidate_count
    assert snapshot["counters"]["monitor_ticks_total"] > 0
    # The new layers really ran: every tick left a trace in the ledger
    # and the SLO gauges were evaluated.
    assert detect_latency["count"] == ticks
    assert snapshot["gauges"]['slo_healthy{slo="alert-latency-detect-p95"}'] in (
        0,
        1,
    )
    assert overhead < 0.05, (
        f"instrumentation cost {overhead:.1%} of ingest on the {label} "
        f"world; the observability bar is <5%"
    )
