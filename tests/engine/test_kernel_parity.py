"""Parity proofs: the engine's CSR kernels reproduce the references.

Mirrors ``tests/engine/test_parity.py`` one layer down: every output of
the CSR refinement (:func:`refine_tokens_kernel`,
:func:`refine_token_states`) must be identical to the per-token
reference :func:`refine_tokens`, and the engine ``WashTradingPipeline``
runs by default must be identical to the legacy networkx path
(``engine="legacy"``) -- batch and streaming, in-order and through a
reorg storm.  The opt-in volume-match detector is pinned batch ==
stream here as well.
"""

from __future__ import annotations

import random
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.activity import DetectionMethod
from repro.core.detectors.base import DetectionContext
from repro.core.detectors.pipeline import WashTradingPipeline
from repro.engine.executor import TransactionView
from repro.engine.kernels import refine_token_states, refine_tokens_kernel
from repro.engine.refine import refine_tokens
from repro.engine.store import ColumnarTransferStore
from repro.ingest.dataset import build_dataset
from repro.simulation.builder import build_default_world
from repro.simulation.config import SimulationConfig
from repro.simulation.reorg import ReorgStorm
from repro.stream import DirtyTokenScheduler, StreamingMonitor
from tests.engine.test_parity import (
    CONTRACT_SET,
    activity_key,
    candidate_key,
    make_labels,
    minimal_dataset,
    random_histories,
    run_backend,
)
from tests.stream.test_stream_parity import assert_results_match

def stages_of(refinement):
    return [stage.to_stage() for stage in refinement.stages]


def assert_refinements_equal(kernel, reference):
    assert stages_of(kernel) == stages_of(reference)
    assert list(map(candidate_key, kernel.candidates)) == list(
        map(candidate_key, reference.candidates)
    )


def assert_full_parity(engine, legacy):
    assert engine.refinement.stages == legacy.refinement.stages
    assert sorted(map(candidate_key, engine.refinement.candidates)) == sorted(
        map(candidate_key, legacy.refinement.candidates)
    )
    assert sorted(map(activity_key, engine.activities)) == sorted(
        map(activity_key, legacy.activities)
    )
    assert len(engine.unconfirmed) == len(legacy.unconfirmed)
    assert engine.count_by_method() == legacy.count_by_method()
    assert engine.venn_counts() == legacy.venn_counts()
    assert engine.washed_nfts() == legacy.washed_nfts()


# -- refinement-layer parity ---------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(random_histories(), st.booleans(), st.booleans(), st.booleans())
def test_kernel_refinement_matches_interpreted(
    histories, skip_services, skip_contracts, skip_zero_volume
):
    """Stage statistics, candidates and order agree."""
    labels = make_labels()
    store = ColumnarTransferStore.from_transfers(histories)
    kwargs = dict(
        service_ids=store.ids_matching(labels.is_graph_excluded_service),
        contract_ids=store.ids_matching(CONTRACT_SET.__contains__),
        skip_service_removal=skip_services,
        skip_contract_removal=skip_contracts,
        skip_zero_volume_removal=skip_zero_volume,
    )
    reference = refine_tokens(store.accounts, store, **kwargs)
    kernel = refine_tokens_kernel(store.accounts, list(store), **kwargs)
    assert_refinements_equal(kernel, reference)


@settings(max_examples=30, deadline=None)
@given(random_histories())
def test_refine_token_states_matches_single_token_runs(histories):
    """Element i of the batched pass equals a lone run over token i."""
    labels = make_labels()
    store = ColumnarTransferStore.from_transfers(histories)
    service_ids = store.ids_matching(labels.is_graph_excluded_service)
    contract_ids = store.ids_matching(CONTRACT_SET.__contains__)
    tokens = list(store)
    states = refine_token_states(store.accounts, tokens, service_ids, contract_ids)
    assert len(states) == len(tokens)
    for columns, state in zip(tokens, states):
        single = refine_tokens(
            store.accounts, [columns], service_ids, contract_ids
        )
        assert_refinements_equal(state, single)


# -- full pipeline parity ------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_dataset(tiny_world):
    return build_dataset(tiny_world.node, tiny_world.marketplace_addresses)


@pytest.fixture(scope="module")
def tiny_legacy(tiny_world, tiny_dataset):
    return run_backend(tiny_world, tiny_dataset, engine="legacy")


class TestKernelPipelineParity:
    # One Tarjan runs: the pure-Python CSR walk, once the fallback of a
    # compiled kernel; the case id keeps that name.
    @pytest.mark.parametrize("engine", ["kernel"], ids=["fallback"])
    def test_kernel_engine_matches_legacy(
        self, tiny_world, tiny_dataset, tiny_legacy, engine
    ):
        kernel = run_backend(tiny_world, tiny_dataset, engine=engine)
        assert_full_parity(kernel, tiny_legacy)


# -- streaming parity ----------------------------------------------------------


def replay_through_scheduler(histories, block_order):
    """Feed one transfer history to a scheduler, one block per tick."""
    labels = make_labels()
    is_contract = CONTRACT_SET.__contains__
    store = ColumnarTransferStore()
    scheduler = DirtyTokenScheduler(store, labels=labels, is_contract=is_contract)
    context = DetectionContext(
        dataset=TransactionView({}), labels=labels, is_contract=is_contract
    )
    by_block = defaultdict(lambda: defaultdict(list))
    for nft, transfers in histories.items():
        for transfer in transfers:
            by_block[transfer.block_number][nft].append(transfer)
    for block in block_order:
        touched = store.extend(by_block.get(block, {}))
        scheduler.process(touched, context)
    return scheduler.result()


@settings(max_examples=25, deadline=None)
@given(random_histories(), st.randoms(use_true_random=False))
def test_scheduler_kernel_path_matches_batch(histories, rng):
    """Scheduling converges to the batch result, even with blocks
    arriving out of order (the reorg-shaped append fallback path)."""
    blocks = sorted(
        {t.block_number for transfers in histories.values() for t in transfers}
    )
    shuffled = list(blocks)
    rng.shuffle(shuffled)
    streamed = replay_through_scheduler(histories, shuffled)
    labels = make_labels()
    batch = WashTradingPipeline(
        labels=labels, is_contract=CONTRACT_SET.__contains__
    ).run(minimal_dataset(histories))
    assert_results_match(streamed, batch)


def test_reorg_storm_with_kernels_matches_batch():
    """A randomized advance/reorg/advance storm on the scheduler still
    equals a fresh engine batch build of the final chain."""
    world = build_default_world(SimulationConfig.tiny())
    monitor = StreamingMonitor.for_world(world, max_reorg_depth=64)
    storm = ReorgStorm(
        world,
        random.Random(7),
        reorg_probability=0.45,
        max_depth=13,
        drop_probability=0.3,
        delay_probability=0.25,
        max_shorten=2,
        step_range=(5, 90),
    )
    summaries = storm.run(monitor)
    assert summaries, "the storm must actually reorg"
    dataset = build_dataset(world.node, world.marketplace_addresses)
    batch = WashTradingPipeline(
        labels=world.labels, is_contract=world.is_contract
    ).run(dataset)
    assert_results_match(monitor.result(), batch, ordered=True)


# -- volume-match across execution paths ---------------------------------------


class TestVolumeMatchParity:
    METHODS = frozenset(DetectionMethod.paper_methods()) | {
        DetectionMethod.VOLUME_MATCH
    }

    def test_batch_engines_agree_with_volume_match(
        self, tiny_world, tiny_dataset
    ):
        legacy = run_backend(
            tiny_world, tiny_dataset, enabled_methods=self.METHODS, engine="legacy"
        )
        kernel = run_backend(tiny_world, tiny_dataset, enabled_methods=self.METHODS)
        assert_full_parity(kernel, legacy)
        assert DetectionMethod.VOLUME_MATCH in kernel.count_by_method()

    def test_streaming_agrees_with_batch_with_volume_match(
        self, tiny_world, tiny_dataset
    ):
        kernel = run_backend(tiny_world, tiny_dataset, enabled_methods=self.METHODS)
        monitor = StreamingMonitor.for_world(
            tiny_world, enabled_methods=self.METHODS
        )
        monitor.run(step_blocks=29)
        assert_results_match(monitor.result(), kernel, ordered=True)

    def test_default_method_set_stays_the_papers(self, tiny_world, tiny_dataset):
        """Headline numbers must not move unless volume-match is asked for."""
        default = run_backend(tiny_world, tiny_dataset)
        assert DetectionMethod.VOLUME_MATCH not in default.count_by_method()
