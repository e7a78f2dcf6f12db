"""Experiment S-stream -- streaming monitor vs naive prefix replay.

The pre-stream answer to Sec. IX was ``examples/marketplace_monitoring``
rebuilding the full dataset and re-running the whole pipeline on every
growing block prefix -- O(n^2) in chain length.  This benchmark drives
the :class:`~repro.stream.StreamingMonitor` and the naive replay over
the *same* tick boundaries and compares blocks/sec and per-tick latency;
``test_monitor_beats_prefix_replay`` is the acceptance check pinning the
incremental path as the faster watchdog (the gap widens with cadence:
replay pays the whole prefix again on every tick, the monitor only the
new blocks and the tokens they touched).

``test_reorg_rollback_beats_full_rebuild`` covers the reorg-heavy
scenario: the chain tail is repeatedly reorganized and the monitor's
journal rollback + re-ingest recovery is raced against what a
non-reorg-safe system would have to do -- throw its state away and
rebuild dataset + detection from scratch.  Pass ``--reorgs`` for the
heavier schedule (more rounds, deeper cuts).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_stream_monitor.py -q
    PYTHONPATH=src python -m pytest benchmarks/bench_stream_monitor.py --reorgs -q
"""

from __future__ import annotations

import random
import time

import pytest

from repro.core.detectors.pipeline import WashTradingPipeline
from repro.ingest.dataset import build_dataset
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig
from repro.simulation.reorg import apply_random_reorg
from repro.stream import StreamingMonitor

#: Monitoring cadence: both contenders tick at these shared boundaries.
WINDOW_COUNT = 24

WORLD_PRESETS = [
    ("tiny", SimulationConfig.tiny),
    ("small", SimulationConfig.small),
]


def tick_boundaries(head: int, windows: int = WINDOW_COUNT):
    """Evenly spaced inclusive upper blocks, always ending at the head."""
    return sorted({max(head * (window + 1) // windows, 0) for window in range(windows)})


def drive_monitor(world, boundaries):
    """Advance a fresh monitor through the boundaries; time each tick."""
    monitor = StreamingMonitor.for_world(world)
    latencies = []
    for upper in boundaries:
        started = time.perf_counter()
        monitor.advance(upper)
        latencies.append(time.perf_counter() - started)
    return monitor.result(), latencies


def drive_prefix_replay(world, boundaries):
    """Rebuild the dataset and re-run the pipeline at every boundary."""
    pipeline = WashTradingPipeline(
        labels=world.labels, is_contract=world.is_contract
    )
    latencies = []
    result = None
    for upper in boundaries:
        started = time.perf_counter()
        dataset = build_dataset(
            world.node, world.marketplace_addresses, to_block=upper
        )
        result = pipeline.run(dataset)
        latencies.append(time.perf_counter() - started)
    return result, latencies


def summarize(label, head, latencies):
    total = sum(latencies)
    rate = head / total if total > 0 else float("inf")
    print(
        f"  {label:<18} total={total:.3f}s blocks/s={rate:>10,.0f}"
        f" tick mean={total / len(latencies) * 1e3:7.2f}ms"
        f" max={max(latencies) * 1e3:7.2f}ms"
    )
    return total


@pytest.mark.parametrize(
    "label,config_factory", WORLD_PRESETS, ids=[name for name, _ in WORLD_PRESETS]
)
def test_monitor_beats_prefix_replay(label, config_factory):
    """Same cadence, same final answer -- the monitor must be faster."""
    world = build_default_world(config_factory())
    head = world.node.block_number
    boundaries = tick_boundaries(head)

    monitor_result, monitor_latencies = drive_monitor(world, boundaries)
    replay_result, replay_latencies = drive_prefix_replay(world, boundaries)

    print(f"\n== stream monitor vs prefix replay [{label}] == "
          f"head={head} ticks={len(boundaries)}")
    monitor_total = summarize("monitor", head, monitor_latencies)
    replay_total = summarize("prefix replay", head, replay_latencies)
    print(f"  speedup={replay_total / monitor_total:.2f}x")

    # Identical final verdicts at the head...
    assert monitor_result.activity_count == replay_result.activity_count
    assert monitor_result.refinement.stages == replay_result.refinement.stages
    assert monitor_result.activity_count > 0
    # ...and the incremental path wins the wall clock.
    assert monitor_total < replay_total


def test_reorg_rollback_beats_full_rebuild(reorg_profile):
    """Journal rollback recovery must beat cold dataset+detection rebuild.

    Each round reorganizes the chain tail (transactions dropped,
    delayed, occasionally a shortened branch), then times two recoveries
    to the new canonical head: the monitor's rollback + re-ingest, and
    the from-scratch ``build_dataset`` + columnar pipeline run a
    stateless system would need.  Both must agree on the verdicts; the
    rollback path must win the wall clock in total.
    """
    world = build_default_world(SimulationConfig.tiny())
    monitor = StreamingMonitor.for_world(world, max_reorg_depth=64)
    monitor.run(step_blocks=25)
    pipeline = WashTradingPipeline(
        labels=world.labels, is_contract=world.is_contract
    )
    rng = random.Random(20230227)

    rounds = reorg_profile["rounds"]
    depths = reorg_profile["depths"]
    rollback_latencies = []
    rebuild_latencies = []
    for round_index in range(rounds):
        depth = depths[round_index % len(depths)]
        apply_random_reorg(
            world.chain,
            depth,
            rng,
            drop_probability=0.35,
            delay_probability=0.25,
            shorten=1 if round_index % 3 == 2 else 0,
        )

        started = time.perf_counter()
        monitor.advance()
        rollback_latencies.append(time.perf_counter() - started)

        started = time.perf_counter()
        rebuilt = pipeline.run(
            build_dataset(world.node, world.marketplace_addresses)
        )
        rebuild_latencies.append(time.perf_counter() - started)

        streamed = monitor.result()
        assert streamed.activity_count == rebuilt.activity_count
        assert streamed.refinement.stages == rebuilt.refinement.stages

    rollback_total = sum(rollback_latencies)
    rebuild_total = sum(rebuild_latencies)
    print(
        f"\n== reorg recovery: rollback vs full rebuild [tiny] == "
        f"rounds={rounds} depths={depths}"
    )
    print(
        f"  rollback  total={rollback_total:.3f}s"
        f" mean={rollback_total / rounds * 1e3:7.2f}ms"
        f" max={max(rollback_latencies) * 1e3:7.2f}ms"
    )
    print(
        f"  rebuild   total={rebuild_total:.3f}s"
        f" mean={rebuild_total / rounds * 1e3:7.2f}ms"
        f" max={max(rebuild_latencies) * 1e3:7.2f}ms"
    )
    print(f"  speedup={rebuild_total / rollback_total:.2f}x")
    assert rollback_total < rebuild_total


def test_monitor_scales_with_cadence():
    """Doubling the cadence must not double the monitor's total cost.

    The naive replay is O(windows * chain); the monitor's total work is
    dominated by the one pass over the chain, so twice the ticks must
    stay well under twice the time.  Guarded loosely (3x headroom) to
    stay robust on noisy CI boxes.
    """
    world = build_default_world(SimulationConfig.tiny())
    head = world.node.block_number

    def total_time(windows):
        boundaries = tick_boundaries(head, windows)
        best = None
        for _ in range(3):
            _, latencies = drive_monitor(world, boundaries)
            total = sum(latencies)
            best = total if best is None else min(best, total)
        return best

    coarse = total_time(WINDOW_COUNT)
    fine = total_time(WINDOW_COUNT * 2)
    print(
        f"\n== monitor cadence scaling [tiny] == "
        f"{WINDOW_COUNT} ticks: {coarse:.3f}s, {WINDOW_COUNT * 2} ticks: {fine:.3f}s"
    )
    assert fine < coarse * 3
