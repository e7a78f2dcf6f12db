"""Parallel dirty-token refinement: fan-out must be invisible.

The scheduler's process-pool fan-out re-runs per-token refinement and
detection in worker shards and merges the rows back in store order, so
a monitor with ``workers=N`` must produce *exactly* the stream a serial
monitor produces -- same alerts in the same sequence, same flagged
sets, same confirmed activities with the same evidence, tick for tick,
including through reorg retractions.  The serial fallback is pinned
too: a pool that cannot even start degrades to the serial path with a
``RuntimeWarning`` and identical output, never a crash or a divergence.

Runs on the pure-python tier as well (``REPRO_NO_CKERNEL=1`` in CI):
the fan-out payload carries the kernel toggle, so both tiers cross the
process boundary.
"""

from __future__ import annotations

import random
import warnings

import pytest

from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig
from repro.simulation.reorg import apply_random_reorg
from repro.stream import StreamingMonitor


#: Tick width for the pool tests: on the tiny world, 1-block ticks
#: never carry more than one live dirty token, so the pool is never
#: tried; at 25 blocks nearly every tick carries several.
FANNED_STEP_BLOCKS = 25


def _count_map_shards(monkeypatch):
    """Record the result of every ``SchedulerPool.map_shards`` call
    (``None`` = the pool failed and the tick ran serially)."""
    import repro.engine.executor as executor

    shipped = []
    original = executor.SchedulerPool.map_shards

    def counting(self, shard_tokens, payload):
        rows = original(self, shard_tokens, payload)
        shipped.append(rows)
        return rows

    monkeypatch.setattr(executor.SchedulerPool, "map_shards", counting)
    return shipped


def _storm_run(world, monitor, seed: int, ticks: int = 10):
    """Drive a monitor through a seeded reorg storm; returns snapshots."""
    rng = random.Random(seed)
    snapshots = []
    for tick in range(ticks):
        if monitor.processed_block >= world.node.block_number:
            apply_random_reorg(
                world.chain, rng.randint(1, 8), rng, drop_probability=0.35
            )
        snapshots.append(
            monitor.advance(
                min(
                    world.node.block_number,
                    monitor.processed_block + rng.randint(10, 60),
                )
            )
        )
    snapshots.extend(monitor.run())
    return snapshots


def _stream_fingerprint(monitor):
    """Everything the stream promised, in value-identity form."""
    alerts = tuple(
        (alert.seq, alert.kind.name, alert.block, alert.nft)
        for alert in monitor.alerts
    )
    result = monitor.result()
    activities = sorted(
        (
            activity.nft,
            tuple(sorted(activity.accounts)),
            tuple(sorted(method.value for method in activity.methods)),
            activity.volume_wei,
            tuple(
                sorted(
                    repr(sorted(evidence.details.items()))
                    for evidence in activity.evidence
                )
            ),
        )
        for activity in result.activities
    )
    stages = [
        (stage.name, stage.nft_count, stage.component_count, stage.account_count)
        for stage in result.refinement.stages
    ]
    return alerts, activities, stages, frozenset(monitor.flagged_nfts)


def _matched_monitors(workers: int, seed: int = 13):
    """(serial, fanned) monitors driven through identical storms."""
    fingerprints = []
    for worker_count in (0, workers):
        world = build_default_world(SimulationConfig.tiny())
        monitor = StreamingMonitor.for_world(world, workers=worker_count)
        try:
            _storm_run(world, monitor, seed=seed)
            fingerprints.append(_stream_fingerprint(monitor))
        finally:
            monitor.close()
    return fingerprints


class TestFanOutParity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_fanned_stream_is_bit_identical_to_serial(self, workers):
        serial, fanned = _matched_monitors(workers)
        assert fanned[0] == serial[0], "alert streams diverge"
        assert fanned[1] == serial[1], "confirmed activities diverge"
        assert fanned[2] == serial[2], "funnel stages diverge"
        assert fanned[3] == serial[3], "flagged sets diverge"

    def test_single_worker_never_builds_a_pool(self, tiny_world):
        monitor = StreamingMonitor.for_world(tiny_world, workers=1)
        try:
            monitor.run()
            assert monitor.scheduler._pool is None
        finally:
            monitor.close()

    def test_close_is_idempotent(self, tiny_world, monkeypatch):
        shipped = _count_map_shards(monkeypatch)
        monitor = StreamingMonitor.for_world(tiny_world, workers=2)
        monitor.run(step_blocks=FANNED_STEP_BLOCKS)
        # The pool must really have served ticks, or closing is vacuous.
        assert shipped, "no tick reached the process pool"
        assert all(rows is not None for rows in shipped)
        assert monitor.scheduler._pool is not None
        monitor.close()
        assert monitor.scheduler._pool is None
        monitor.close()
        # A closed monitor keeps ticking on the serial path.
        monitor.advance(monitor.processed_block)


class TestSerialFallback:
    def test_broken_pool_degrades_to_serial_with_a_warning(self, monkeypatch):
        """If the pool cannot start, the tick must complete serially,
        warn once, and never try the pool again."""
        import repro.engine.executor as executor

        class ExplodingPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no processes for you")

        monkeypatch.setattr(executor, "ProcessPoolExecutor", ExplodingPool)

        shipped = _count_map_shards(monkeypatch)
        world = build_default_world(SimulationConfig.tiny())
        serial_world = build_default_world(SimulationConfig.tiny())
        serial = StreamingMonitor.for_world(serial_world, workers=0)
        fanned = StreamingMonitor.for_world(world, workers=2)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                fanned.run(step_blocks=FANNED_STEP_BLOCKS)
            # The pool was tried (once) before the warning is checked.
            assert fanned.scheduler._pool is not None
            assert shipped == [None], "the pool must be tried exactly once"
            fallbacks = [
                entry
                for entry in caught
                if issubclass(entry.category, RuntimeWarning)
                and "falling back to serial" in str(entry.message)
            ]
            assert len(fallbacks) == 1, "the degradation must be announced once"
            assert fanned.scheduler._pool.failed
            serial.run(step_blocks=FANNED_STEP_BLOCKS)
            assert _stream_fingerprint(fanned) == _stream_fingerprint(serial)
        finally:
            fanned.close()
            serial.close()
