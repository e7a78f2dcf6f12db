"""Sharded execution of the columnar detection engine.

The executor partitions the store's tokens into contiguous shards and
runs the batched CSR refinement of :mod:`repro.engine.kernels` plus the
per-component confirmation techniques (over a memoised
:class:`CachingDetectionContext`) independently per shard, either
serially (the deterministic fallback and the default) or on a
``ProcessPoolExecutor``.  Shard results are merged in shard order, so
the final candidate and activity lists line up with a serial run
regardless of worker count; the repeated-SCC rule needs the global pool
of confirmed account sets and therefore always runs once in the parent,
after the merge -- exactly where the legacy pipeline applies it.

Everything a worker needs travels in a :class:`SharedPayload` handed to
the pool initializer: the interned account table, the exclusion masks,
the label registry, the detection config and the per-account transaction
index.  Callables that may not pickle (``is_contract`` is usually a
bound method of a live world) are reduced to frozen address sets before
any fork.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.chain.types import NFTKey
from repro.core.activity import (
    CandidateComponent,
    DetectionEvidence,
    DetectionMethod,
    WashTradingActivity,
)
from repro.core.detectors.base import DetectionConfig, DetectionContext
from repro.core.detectors.pipeline import (
    build_detectors,
    collect_evidence,
    confirm_candidates,
)
from repro.core.detectors.repeated_scc import confirm_repeated_components
from repro.core.refine import RefinementResult
from repro.engine.kernels import (
    CachingDetectionContext,
    refine_token_states,
    refine_tokens_kernel,
)
from repro.engine.refine import STAGE_NAMES, StageAccumulator
from repro.engine.store import ColumnarTransferStore, TokenColumns


class AccountSetPredicate:
    """A picklable account predicate: membership in a frozen address set.

    Stands in for live callables (``world.is_contract`` and friends) when
    shard tasks cross a process boundary.
    """

    def __init__(self, members: Iterable[str]) -> None:
        self.members = frozenset(members)

    def __call__(self, address: str) -> bool:
        return address in self.members


class TransactionView:
    """The minimal dataset surface detectors touch: ``transactions_of``."""

    def __init__(self, account_transactions: Dict[str, list]) -> None:
        self.account_transactions = account_transactions

    def transactions_of(self, account: str) -> list:
        """All standard transactions collected for an account."""
        return self.account_transactions.get(account, [])


@dataclass
class SharedPayload:
    """Read-only state shared by every shard worker.

    ``contract_addresses`` deliberately covers only interned accounts
    (transfer endpoints): it backs the worker-side ``is_contract`` of
    the :class:`DetectionContext`, which no current detector consults.
    A future detector needing bytecode checks on arbitrary counterparty
    addresses must widen this set rather than rely on it.
    """

    accounts: List[str]
    service_ids: FrozenSet[int]
    contract_ids: FrozenSet[int]
    contract_addresses: FrozenSet[str]
    labels: object
    config: DetectionConfig
    enabled_methods: FrozenSet[DetectionMethod]
    account_transactions: Dict[str, list]
    skip_service_removal: bool = False
    skip_contract_removal: bool = False
    skip_zero_volume_removal: bool = False

    def mask_options(self) -> Dict[str, object]:
        """The exclusion-mask keyword arguments of the refine kernels."""
        return dict(
            service_ids=self.service_ids,
            contract_ids=self.contract_ids,
            skip_service_removal=self.skip_service_removal,
            skip_contract_removal=self.skip_contract_removal,
            skip_zero_volume_removal=self.skip_zero_volume_removal,
        )

    def detection_context(self) -> CachingDetectionContext:
        """A fresh memoised detector context over the shipped state."""
        return CachingDetectionContext(
            DetectionContext(
                dataset=TransactionView(self.account_transactions),
                labels=self.labels,
                is_contract=AccountSetPredicate(self.contract_addresses),
                config=self.config,
            )
        )


@dataclass
class ShardResult:
    """Everything one shard produces, mergeable in shard order."""

    candidates: List[CandidateComponent]
    activities: List[WashTradingActivity]
    unconfirmed: List[CandidateComponent]
    stages: List[StageAccumulator]


def partition_tokens(nfts: Sequence[NFTKey], shard_count: int) -> List[List[NFTKey]]:
    """Split token keys into at most ``shard_count`` contiguous chunks.

    Contiguity in store order is what makes the merged results identical
    to a serial run: concatenating the shards restores the original
    token order.
    """
    if not nfts:
        return []
    shard_count = max(1, min(shard_count, len(nfts)))
    base, extra = divmod(len(nfts), shard_count)
    shards: List[List[NFTKey]] = []
    start = 0
    for position in range(shard_count):
        size = base + (1 if position < extra else 0)
        shards.append(list(nfts[start : start + size]))
        start += size
    return shards


def _run_shard(tokens: Sequence[TokenColumns], payload: SharedPayload) -> ShardResult:
    """Refine one shard's tokens and run the per-component detectors."""
    refinement = refine_tokens_kernel(payload.accounts, tokens, **payload.mask_options())
    activities, unconfirmed = confirm_candidates(
        refinement.candidates,
        build_detectors(payload.enabled_methods),
        payload.detection_context(),
    )
    return ShardResult(
        candidates=refinement.candidates,
        activities=activities,
        unconfirmed=unconfirmed,
        stages=refinement.stages,
    )


def run_token_state_shard(
    tokens: Sequence[TokenColumns], payload: SharedPayload
) -> List[Tuple[List[StageAccumulator], List[CandidateComponent], List[List[DetectionEvidence]]]]:
    """One *scheduler* shard: per-token refinement plus detector evidence.

    Unlike :func:`_run_shard` (which merges a whole shard into one
    result), the streaming scheduler keeps per-token state, so element
    ``i`` is ``tokens[i]``'s ``(stages, candidates, evidence)`` triple --
    exactly what ``DirtyTokenScheduler._detect_state`` computes serially
    for that token.  Batching is output-invariant, so concatenating
    shard results in shard order is positionally identical to a serial
    pass over the same tokens.
    """
    refinements = refine_token_states(
        payload.accounts, list(tokens), **payload.mask_options()
    )
    detectors = build_detectors(payload.enabled_methods)
    context = payload.detection_context()
    return [
        (
            refinement.stages,
            refinement.candidates,
            [
                collect_evidence(component, detectors, context)
                for component in refinement.candidates
            ],
        )
        for refinement in refinements
    ]


def _run_token_states_in_worker(
    task: Tuple[Sequence[TokenColumns], SharedPayload]
):
    tokens, payload = task
    return run_token_state_shard(tokens, payload)


class SchedulerPool:
    """A persistent process pool for per-tick scheduler fan-out.

    The batch executor builds a fresh pool per run because a run happens
    once; the streaming scheduler ticks thousands of times, so workers
    are forked lazily on first use and reused for the monitor's
    lifetime.  The account table and transaction index grow between
    ticks, so every tick ships its own :class:`SharedPayload` with each
    shard task instead of relying on initializer-time state.

    A pool that fails once (pickling, broken worker, interpreter
    without working multiprocessing) is closed and marked ``failed``;
    every later tick then takes the deterministic serial path without
    re-warning.
    """

    def __init__(self, workers: int) -> None:
        self.workers = max(2, int(workers))
        self.failed = False
        self._pool: Optional[ProcessPoolExecutor] = None

    def map_shards(self, shard_tokens, payload: SharedPayload):
        """Per-shard token-state rows, or ``None`` to request serial."""
        if self.failed:
            return None
        try:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            return list(
                self._pool.map(
                    _run_token_states_in_worker,
                    [(tokens, payload) for tokens in shard_tokens],
                )
            )
        except Exception as error:  # pool or pickling failure -> serial
            warnings.warn(
                f"scheduler process pool failed ({error!r}); "
                "falling back to serial tick execution",
                RuntimeWarning,
                stacklevel=2,
            )
            self.failed = True
            self.close()
            return None

    def close(self) -> None:
        """Shut the workers down; the next tick runs serially."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


#: Worker-process state, populated once by the pool initializer.
_WORKER_PAYLOAD: List[SharedPayload] = []


def _init_worker(payload: SharedPayload) -> None:
    _WORKER_PAYLOAD.clear()
    _WORKER_PAYLOAD.append(payload)


def _run_shard_in_worker(tokens: Sequence[TokenColumns]) -> ShardResult:
    return _run_shard(tokens, _WORKER_PAYLOAD[0])


def run_columnar_pipeline(
    dataset,
    labels,
    is_contract: Callable[[str], bool],
    config: Optional[DetectionConfig] = None,
    enabled_methods: Optional[Iterable[DetectionMethod]] = None,
    workers: int = 0,
    shards: Optional[int] = None,
    skip_service_removal: bool = False,
    skip_contract_removal: bool = False,
    skip_zero_volume_removal: bool = False,
    store: Optional[ColumnarTransferStore] = None,
) -> Tuple[RefinementResult, List[WashTradingActivity], List[CandidateComponent]]:
    """Run the full engine pipeline and return the merged pieces.

    Returns ``(refinement, activities, unconfirmed)``; the caller (the
    ``WashTradingPipeline`` engine branch) wraps them into the regular
    :class:`PipelineResult`.  ``workers <= 1`` runs the deterministic
    serial path; larger values fan shards out to a process pool and fall
    back to serial execution if the pool cannot be used (e.g. payload
    pickling fails on an exotic dataset).
    """
    if store is None:
        store = dataset.columnar_store()
    methods = (
        frozenset(enabled_methods)
        if enabled_methods is not None
        else frozenset(DetectionMethod.paper_methods())
    )
    # Skipped stages never pay the per-account predicate cost (a bytecode
    # or label check per interned account on real deployments).
    service_ids = (
        frozenset()
        if skip_service_removal
        else store.ids_matching(labels.is_graph_excluded_service)
    )
    contract_ids = (
        frozenset() if skip_contract_removal else store.ids_matching(is_contract)
    )
    payload = SharedPayload(
        accounts=store.accounts,
        service_ids=service_ids,
        contract_ids=contract_ids,
        contract_addresses=store.addresses_of(contract_ids),
        labels=labels,
        config=config or DetectionConfig(),
        enabled_methods=methods,
        account_transactions=dataset.account_transactions,
        skip_service_removal=skip_service_removal,
        skip_contract_removal=skip_contract_removal,
        skip_zero_volume_removal=skip_zero_volume_removal,
    )

    shard_count = shards if shards is not None else (workers * 4 if workers > 1 else 1)
    shard_keys = partition_tokens(store.nfts(), shard_count)
    shard_tokens = [
        [store.tokens[nft] for nft in keys] for keys in shard_keys
    ]

    results: Optional[List[ShardResult]] = None
    if workers > 1 and len(shard_tokens) > 1:
        try:
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_init_worker, initargs=(payload,)
            ) as pool:
                results = list(pool.map(_run_shard_in_worker, shard_tokens))
        except Exception as error:  # pool or pickling failure -> serial fallback
            warnings.warn(
                f"columnar engine process pool failed ({error!r}); "
                "falling back to serial shard execution",
                RuntimeWarning,
                stacklevel=2,
            )
            results = None
    if results is None:
        results = [_run_shard(tokens, payload) for tokens in shard_tokens]

    merged_stages = [StageAccumulator(name=name) for name in STAGE_NAMES]
    candidates: List[CandidateComponent] = []
    activities: List[WashTradingActivity] = []
    unconfirmed: List[CandidateComponent] = []
    for result in results:
        for merged, stage in zip(merged_stages, result.stages):
            merged.merge(stage)
        candidates.extend(result.candidates)
        activities.extend(result.activities)
        unconfirmed.extend(result.unconfirmed)

    if DetectionMethod.REPEATED_SCC in methods:
        repeated, unconfirmed = confirm_repeated_components(unconfirmed, activities)
        activities.extend(repeated)

    refinement = RefinementResult(
        candidates=candidates,
        stages=[accumulator.to_stage() for accumulator in merged_stages],
    )
    return refinement, activities, unconfirmed
