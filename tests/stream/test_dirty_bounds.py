"""Complexity guards for the live path: work counts, not wall time.

The scheduler splits each tick's work into two classes.  Refine-dirty
tokens (new or rolled-back transfers) are re-refined and re-detected;
detect-only tokens (a candidate holds an account whose transactions
changed) keep their cached candidates and only re-run the detectors.
These tests pin both classes exactly, tick by tick, and bound the
dirty-set amplification, so a regression back to "every token a
touched account ever appeared in" fails on any machine.

They also pin the detect-only path against the batch pipeline on a
world where it matters: on the tiny world no detect-only re-detection
changes a verdict, so tiny-world parity alone cannot catch a broken
detect-only path; on the small world some do.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Set, Tuple

import pytest

from repro.chain.types import NFTKey
from repro.core.detectors.pipeline import WashTradingPipeline
from repro.ingest.dataset import build_dataset
from repro.obs.registry import MetricsRegistry
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig
from repro.simulation.reorg import apply_random_reorg
from repro.stream import StreamingMonitor
from repro.stream.cursor import CursorTick
from repro.stream.scheduler import TickReport
from tests.stream.test_stream_parity import assert_results_match

#: Tick width of the guards (the live-follow benchmark's width).
STEP_BLOCKS = 25

REFINED = "scheduler_refined_tokens_total"
REDETECTED = "scheduler_redetected_tokens_total"


@dataclass
class TickRecord:
    """One monitor tick as the scheduler saw it."""

    tick: CursorTick
    #: The tick's new and rolled-back tokens still in the store.
    expected_refine: Set[NFTKey]
    #: Tokens holding a candidate with a touched account before the
    #: tick, minus the tick's refine-dirty tokens (computed from the
    #: states, independently of the scheduler's index).
    expected_redetect: Set[NFTKey]
    report: TickReport
    #: (refined, redetected) counter increments of this tick.
    counters: Tuple[float, float]
    #: Detect-only tokens whose base confirmations changed.
    flipped: List[NFTKey]


def _record_ticks(monitor):
    """Wrap the monitor's cursor and scheduler; returns the tick log."""
    records = []
    scheduler = monitor.scheduler
    registry = monitor.registry
    advance = monitor.cursor.advance
    process = scheduler.process
    ticks = []

    def recording_advance(to_block=None):
        tick = advance(to_block)
        ticks.append(tick)
        return tick

    def recording_process(dirty_tokens, context, touched_accounts=()):
        dirty_tokens = list(dirty_tokens)
        touched = set(touched_accounts)
        named = set(dirty_tokens)
        tick = ticks[-1]
        changed = set(tick.touched_nfts) | set(tick.rolled_back_nfts)
        live_changed = {nft for nft in changed if nft in scheduler.store.tokens}
        expected = {
            nft
            for nft, state in scheduler.states.items()
            if nft not in named
            and any(
                component.accounts & touched for component in state.candidates
            )
        }
        evidence_before = {
            nft: [bool(evidence) for evidence in state.evidence]
            for nft, state in scheduler.states.items()
        }
        before = registry.counter_values()
        report = process(dirty_tokens, context, touched_accounts)
        after = registry.counter_values()
        counters = tuple(
            after[name] - before[name] for name in (REFINED, REDETECTED)
        )
        flipped = [
            nft
            for nft in report.redetected_nfts
            if [bool(evidence) for evidence in scheduler.states[nft].evidence]
            != evidence_before[nft]
        ]
        records.append(
            TickRecord(tick, live_changed, expected, report, counters, flipped)
        )
        return report

    monitor.cursor.advance = recording_advance
    scheduler.process = recording_process
    return records


def _assert_exact_dirty_classes(records):
    """Every tick re-refined exactly its changed live tokens and
    re-detected exactly the other holders of a touched candidate."""
    assert records
    for record in records:
        tick, report = record.tick, record.report
        assert set(report.refined_nfts) == record.expected_refine
        assert len(report.refined_nfts) == len(record.expected_refine)
        assert set(report.redetected_nfts) == record.expected_redetect
        assert not set(report.redetected_nfts) & (
            set(tick.touched_nfts) | set(tick.rolled_back_nfts)
        )
        assert record.counters == (
            len(report.refined_nfts),
            len(report.redetected_nfts),
        )


def _monitor(world):
    return StreamingMonitor.for_world(world, registry=MetricsRegistry())


def _batch(world):
    """The batch pipeline over the world's current canonical chain."""
    dataset = build_dataset(world.node, world.marketplace_addresses)
    return WashTradingPipeline(
        labels=world.labels, is_contract=world.is_contract
    ).run(dataset)


class TestDirtyClasses:
    def test_append_only_ticks(self, tiny_world):
        monitor = _monitor(tiny_world)
        records = _record_ticks(monitor)
        monitor.run(step_blocks=STEP_BLOCKS)
        _assert_exact_dirty_classes(records)
        assert sum(len(r.report.redetected_nfts) for r in records) > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_reorg_storm_ticks(self, seed):
        """Follow to near the head, then reorganize the tail whenever the
        monitor catches up: rolled-back tokens are re-refined too."""
        world = build_default_world(SimulationConfig.tiny())
        rng = random.Random(seed)
        monitor = _monitor(world)
        records = _record_ticks(monitor)
        monitor.run(to_block=world.node.block_number - 120, step_blocks=STEP_BLOCKS)
        for _ in range(12):
            if monitor.processed_block >= world.node.block_number:
                apply_random_reorg(
                    world.chain,
                    rng.randint(3, 30),
                    rng,
                    drop_probability=0.4,
                    delay_probability=0.3,
                    shorten=rng.randint(0, 2),
                )
            monitor.advance(
                min(world.node.block_number, monitor.processed_block + STEP_BLOCKS)
            )
        monitor.run(step_blocks=STEP_BLOCKS)
        assert sum(1 for record in records if record.tick.rolled_back_nfts) >= 3
        _assert_exact_dirty_classes(records)
        assert_results_match(monitor.result(), _batch(world), ordered=True)


class TestAmplificationBound:
    def test_dirty_over_touched_is_bounded(self, tiny_world):
        """Σ dirty ÷ Σ touched tokens stays ≤ 2.5 at 25-block ticks
        (widening to every token of a touched account measured 3.4)."""
        monitor = _monitor(tiny_world)
        snapshots = monitor.run(step_blocks=STEP_BLOCKS)
        touched = sum(snapshot.touched_token_count for snapshot in snapshots)
        dirty = sum(snapshot.dirty_token_count for snapshot in snapshots)
        assert touched > 0
        assert dirty / touched <= 2.5
        # Without reorgs, re-refinement is exactly the touched tokens.
        counters = monitor.registry.counter_values()
        assert counters[REFINED] == touched
        assert counters[REDETECTED] > 0


class TestDetectOnlyPath:
    def test_detect_only_flips_confirmations_and_matches_batch(self, small_world):
        monitor = _monitor(small_world)
        records = _record_ticks(monitor)
        monitor.run(step_blocks=STEP_BLOCKS)

        flipped = [nft for record in records for nft in record.flipped]
        assert flipped, "no detect-only re-detection changed a verdict"
        # Each flip surfaced as a confirmation or retraction that tick.
        for record in records:
            report = record.report
            announced = {
                activity.nft
                for activity in report.newly_confirmed + report.retracted
            }
            assert set(record.flipped) <= announced

        assert_results_match(monitor.result(), _batch(small_world), ordered=True)
