"""Single-process execution of the columnar detection engine.

One batched CSR refinement of :mod:`repro.engine.kernels` runs over
every token of the store in store order, the per-component confirmation
techniques run over a memoised :class:`CachingDetectionContext` built
from the caller's own dataset, labels and ``is_contract``, and the
repeated-SCC rule -- which needs the global pool of confirmed account
sets -- runs last, exactly where the legacy pipeline applies it.

There is no process pool.  Both passes finish in well under a second
even on a 4x world, so a pool has nothing to amortise its fork and
pickling cost against: measured on a 2-vCPU Xeon, a 2-worker pool made
batch detection 6-10x slower than serial (see ``docs/architecture.md``,
section Layers).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.activity import (
    CandidateComponent,
    DetectionMethod,
    WashTradingActivity,
)
from repro.core.detectors.base import DetectionConfig, DetectionContext
from repro.core.detectors.pipeline import build_detectors, confirm_candidates
from repro.core.detectors.repeated_scc import confirm_repeated_components
from repro.core.refine import RefinementResult
from repro.engine.kernels import CachingDetectionContext, refine_tokens_kernel
from repro.engine.store import ColumnarTransferStore


class TransactionView:
    """The minimal dataset surface detectors touch: ``transactions_of``."""

    def __init__(self, account_transactions: Dict[str, list]) -> None:
        self.account_transactions = account_transactions

    def transactions_of(self, account: str) -> list:
        """All standard transactions collected for an account."""
        return self.account_transactions.get(account, [])


def run_columnar_pipeline(
    dataset,
    labels,
    is_contract: Callable[[str], bool],
    config: Optional[DetectionConfig] = None,
    enabled_methods: Optional[Iterable[DetectionMethod]] = None,
    skip_service_removal: bool = False,
    skip_contract_removal: bool = False,
    skip_zero_volume_removal: bool = False,
    store: Optional[ColumnarTransferStore] = None,
) -> Tuple[RefinementResult, List[WashTradingActivity], List[CandidateComponent]]:
    """Run the full engine pipeline and return its pieces.

    Returns ``(refinement, activities, unconfirmed)``; the caller (the
    ``WashTradingPipeline`` engine branch) wraps them into the regular
    :class:`PipelineResult`.
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
    refinement = refine_tokens_kernel(
        store.accounts,
        store.tokens.values(),
        service_ids=service_ids,
        contract_ids=contract_ids,
        skip_service_removal=skip_service_removal,
        skip_contract_removal=skip_contract_removal,
        skip_zero_volume_removal=skip_zero_volume_removal,
    )
    context = CachingDetectionContext(
        DetectionContext(
            dataset=dataset,
            labels=labels,
            is_contract=is_contract,
            config=config,
        )
    )
    activities, unconfirmed = confirm_candidates(
        refinement.candidates, build_detectors(methods), context
    )
    if DetectionMethod.REPEATED_SCC in methods:
        repeated, unconfirmed = confirm_repeated_components(unconfirmed, activities)
        activities.extend(repeated)
    return (
        RefinementResult(
            candidates=refinement.candidates,
            stages=[stage.to_stage() for stage in refinement.stages],
        ),
        activities,
        unconfirmed,
    )
