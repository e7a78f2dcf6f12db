"""Dirty-token re-detection over a growing columnar store.

The batch engine refines and confirms every token on every run.  The
scheduler instead keeps one :class:`TokenState` per token (its funnel
stage statistics, refined candidates and per-candidate detector
evidence) and recomputes only what a tick can have moved.  Each tick
splits into two dirty classes:

* **refine-dirty** tokens -- new or rolled-back transfers -- are
  re-refined and re-detected.  Refinement reads only the token's own
  columns and the service/contract masks, and an account's mask bit is
  fixed when the account is interned, so no other token's refinement
  can move.
* **detect-only** tokens keep their cached stages and candidates and
  only re-run the detectors: tokens holding a candidate with a member
  account whose collected transaction list changed this tick.  The
  detectors read nothing but candidate members' transaction lists, so
  a token with no touched candidate member keeps its verdicts.  An
  inverted index from account to the tokens holding a candidate with
  that account, maintained as states are installed and retired, finds
  them.

The global repeated-SCC rule (Sec. IV-C v) is maintained incrementally:
a multiset of base-confirmed account sets is updated as dirty tokens are
reprocessed, and an inverted index from account set to the tokens
holding an unconfirmed candidate with that set pinpoints exactly which
other tokens flip when a set enters or leaves the confirmed pool.

:meth:`DirtyTokenScheduler.result` assembles a
:class:`~repro.core.detectors.pipeline.PipelineResult` that is
*identical* -- same candidate order, same activities, same funnel
statistics -- to a batch ``WashTradingPipeline(engine="columnar")`` run
over the same data (pinned by ``tests/stream``).

Ticks run in the calling process.  A tick refines a handful of dirty
tokens in milliseconds, so shipping them to worker processes -- with the
account table and transaction index pickled along every tick -- only
ever made the monitor slower (35-42x on the default world, 2-vCPU Xeon).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.chain.types import NFTKey
from repro.core.activity import (
    CandidateComponent,
    DetectionEvidence,
    DetectionMethod,
    WashTradingActivity,
)
from repro.core.detectors.base import DetectionConfig, DetectionContext
from repro.core.detectors.pipeline import (
    PipelineResult,
    build_detectors,
    collect_evidence,
)
from repro.core.refine import RefinementResult
from repro.engine.kernels import CachingDetectionContext, refine_token_states
from repro.engine.refine import STAGE_NAMES, StageAccumulator
from repro.engine.store import ColumnarTransferStore
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry

#: Key identifying one confirmed activity across recomputations.
ActivityKey = Tuple[Tuple[str, ...], Tuple[str, ...]]


@dataclass
class TokenState:
    """Everything the scheduler remembers about one token."""

    #: Per-token funnel statistics (mergeable stage accumulators).
    stages: List[StageAccumulator]
    #: Refined candidates, in engine order.
    candidates: List[CandidateComponent]
    #: Per-candidate detector evidence; an empty list = base-unconfirmed.
    evidence: List[List[DetectionEvidence]]


@dataclass
class TickReport:
    """Detection-state changes caused by one scheduler pass."""

    #: Tokens actually reprocessed: refine-dirty, detect-only, vanished
    #: and repeated-SCC flips.  A token an account touched only outside
    #: its candidates is not reprocessed, so it is not counted.
    dirty_token_count: int = 0
    #: The same tokens by key, in deterministic (first-seen) order --
    #: the precise invalidation set for downstream result caches.
    dirty_nfts: Tuple[NFTKey, ...] = ()
    #: Live tokens re-refined (new or rolled-back transfers), in the
    #: order the caller named them.
    refined_nfts: Tuple[NFTKey, ...] = ()
    #: Tokens re-detected on their cached candidates (a candidate member
    #: account's transactions changed), in first-seen order.
    redetected_nfts: Tuple[NFTKey, ...] = ()
    #: Activities confirmed this tick, in deterministic token order.
    newly_confirmed: List[WashTradingActivity] = field(default_factory=list)
    #: NFTs that gained their first confirmed activity this tick.
    newly_flagged: List[NFTKey] = field(default_factory=list)
    #: Previously confirmed activities that no longer hold, in the same
    #: deterministic token order.  An activity lands here when its
    #: component dissolved (account lists changed, repeated-SCC pool
    #: flipped off) or when a chain reorg rolled its transfers back.
    retracted: List[WashTradingActivity] = field(default_factory=list)

    @property
    def retracted_count(self) -> int:
        """Number of confirmed activities withdrawn this tick."""
        return len(self.retracted)


def _repeated_evidence(component: CandidateComponent) -> DetectionEvidence:
    """The evidence record ``confirm_repeated_components`` would attach."""
    return DetectionEvidence(
        method=DetectionMethod.REPEATED_SCC,
        details={"matched_accounts": sorted(component.accounts)},
    )


def _activity_key(component: CandidateComponent) -> ActivityKey:
    return (
        tuple(sorted(component.accounts)),
        tuple(sorted(transfer.tx_hash for transfer in component.transfers)),
    )


class DirtyTokenScheduler:
    """Incrementally maintained detection state over a live store."""

    def __init__(
        self,
        store: ColumnarTransferStore,
        labels,
        is_contract: Callable[[str], bool],
        config: Optional[DetectionConfig] = None,
        enabled_methods: Optional[Iterable[DetectionMethod]] = None,
        skip_service_removal: bool = False,
        skip_contract_removal: bool = False,
        skip_zero_volume_removal: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.store = store
        self.labels = labels
        self.is_contract = is_contract
        self.config = config or DetectionConfig()
        self.methods = (
            frozenset(enabled_methods)
            if enabled_methods is not None
            else frozenset(DetectionMethod.paper_methods())
        )
        self.detectors = build_detectors(self.methods)
        self.skip_service_removal = skip_service_removal
        self.skip_contract_removal = skip_contract_removal
        self.skip_zero_volume_removal = skip_zero_volume_removal
        self._repeat_enabled = DetectionMethod.REPEATED_SCC in self.methods

        #: Exclusion masks, grown as new accounts are interned.
        self._service_ids: Set[int] = set()
        self._contract_ids: Set[int] = set()
        self._classified_accounts = 0
        self._service_mask: FrozenSet[int] = frozenset()
        self._contract_mask: FrozenSet[int] = frozenset()

        self.states: Dict[NFTKey, TokenState] = {}
        #: First-seen position of each token; mirrors store order.  A
        #: monotone serial (never reused) so positions stay unique even
        #: after reorg-vanished tokens are forgotten.
        self._token_order: Dict[NFTKey, int] = {}
        self._order_serial = 0
        #: Multiset of account sets of base-confirmed activities.
        self._confirmed_pool: Counter = Counter()
        #: Account set -> tokens holding a base-unconfirmed candidate
        #: with exactly that set (repeated-SCC flip propagation).
        self._unconfirmed_index: Dict[FrozenSet[str], Set[NFTKey]] = {}
        #: Account -> tokens holding a candidate with that account among
        #: its members (detect-only propagation).
        self._candidate_tokens: Dict[str, Set[NFTKey]] = {}
        #: Currently confirmed activities per token, keyed for diffing.
        self._confirmed: Dict[NFTKey, Dict[ActivityKey, WashTradingActivity]] = {}
        self.confirmed_activity_count = 0

        self._metric_dirty = self.registry.counter(
            "scheduler_dirty_tokens_total",
            "Tokens reprocessed across all ticks (dirty + repeated-SCC flips).",
        )
        self._metric_refined = self.registry.counter(
            "scheduler_refined_tokens_total",
            "Tokens re-refined across all ticks (new or rolled-back transfers).",
        )
        self._metric_redetected = self.registry.counter(
            "scheduler_redetected_tokens_total",
            "Tokens re-detected on cached candidates across all ticks.",
        )
        self._metric_confirmations = self.registry.counter(
            "scheduler_confirmations_total",
            "Activities newly confirmed across all ticks.",
        )
        self._metric_retractions = self.registry.counter(
            "scheduler_retractions_total",
            "Confirmed activities retracted across all ticks.",
        )
        self._metric_tracked = self.registry.gauge(
            "scheduler_tracked_tokens", "Tokens with detection state held."
        )
        self._metric_confirmed = self.registry.gauge(
            "scheduler_confirmed_activities",
            "Currently confirmed activities across all tokens.",
        )

    # -- queries -----------------------------------------------------------
    @property
    def flagged_nfts(self) -> Set[NFTKey]:
        """NFTs with at least one currently confirmed activity."""
        return {nft for nft, entries in self._confirmed.items() if entries}

    @property
    def flagged_nft_count(self) -> int:
        return sum(1 for entries in self._confirmed.values() if entries)

    def order_of(self, nft: NFTKey) -> int:
        """First-seen position of a known token (mirrors store order)."""
        return self._token_order[nft]

    def confirmed_activities(
        self, nft: NFTKey
    ) -> Dict[ActivityKey, WashTradingActivity]:
        """The token's currently confirmed activities, keyed by identity.

        The read-model hook of the serving layer: after a tick, the
        entries of every dirty token are exactly current -- including
        activities whose *evidence* evolved without the identity
        changing, which the alert stream deliberately does not
        re-announce.  Returns a copy; mutating it never touches
        scheduler state.
        """
        return dict(self._confirmed.get(nft, ()))

    # -- tick processing ---------------------------------------------------
    def process(
        self,
        dirty_tokens: Iterable[NFTKey],
        context: DetectionContext,
        touched_accounts: Iterable[str] = (),
    ) -> TickReport:
        """Re-refine the dirty tokens, re-detect touched candidates; diff.

        ``dirty_tokens`` are the refine-dirty tokens: new or rolled-back
        transfers.  ``touched_accounts`` are the accounts whose collected
        transaction lists changed; every other known token holding a
        candidate with one of them among its members is re-detected on
        its cached candidates (detect-only).  Both classes go through
        the same retire/install step, so the repeated-SCC pool and flip
        propagation stay exact.

        Dirty tokens no longer present in the store -- every one of
        their transfers was rolled back by a chain reorg -- are *fully
        retired*: their contribution to the repeated-SCC pool is undone,
        their confirmed activities are retracted, and the scheduler
        forgets them entirely, so a later canonical re-appearance is
        processed like a brand-new token.
        """
        live: List[NFTKey] = []
        vanished: List[NFTKey] = []
        seen: Set[NFTKey] = set()
        for nft in dirty_tokens:
            if nft in seen:
                continue
            seen.add(nft)
            if nft in self.store.tokens:
                live.append(nft)
            elif nft in self.states:
                vanished.append(nft)
        holders: Set[NFTKey] = set()
        for account in touched_accounts:
            holders.update(self._candidate_tokens.get(account, ()))
        redetect = sorted(holders - seen, key=self._token_order.__getitem__)
        report = TickReport(
            refined_nfts=tuple(live), redetected_nfts=tuple(redetect)
        )
        if not live and not vanished and not redetect:
            return report
        self._refresh_masks()

        with self.registry.span("refine", tokens=len(live)):
            refinements = self._refine_live(live) if live else []
        # Fresh per-tick wrap: account transaction lists grow between
        # ticks, so the cache must never outlive the tick.
        context = CachingDetectionContext(context)

        flipped_sets: Set[FrozenSet[str]] = set()
        with self.registry.span("detect", tokens=len(live) + len(redetect)):
            for nft in vanished:
                self._retire_state(nft, self.states.pop(nft), flipped_sets)
            for index, nft in enumerate(live):
                if nft not in self._token_order:
                    self._token_order[nft] = self._order_serial
                    self._order_serial += 1
                old = self.states.get(nft)
                if old is not None:
                    self._retire_state(nft, old, flipped_sets)
                state = self._detect_state(refinements[index], context)
                self._install_state(nft, state, flipped_sets)
            # Detect-only tokens keep their cached candidates: only the
            # detectors' reads can have moved.
            for nft in redetect:
                old = self.states[nft]
                self._retire_state(nft, old, flipped_sets)
                self._install_state(
                    nft, self._detect_state(old, context), flipped_sets
                )

        with self.registry.span("diff"):
            affected = set(live) | set(vanished) | set(redetect)
            if self._repeat_enabled:
                for account_set in flipped_sets:
                    affected |= self._unconfirmed_index.get(account_set, set())
            ordered_affected = sorted(affected, key=self._token_order.__getitem__)
            report.dirty_token_count = len(ordered_affected)
            report.dirty_nfts = tuple(ordered_affected)

            for nft in ordered_affected:
                entries = self._confirmed_entries(nft)
                previous = self._confirmed.get(nft, {})
                for key, activity in entries.items():
                    if key not in previous:
                        report.newly_confirmed.append(activity)
                for key, activity in previous.items():
                    if key not in entries:
                        report.retracted.append(activity)
                if entries and not previous:
                    report.newly_flagged.append(nft)
                self.confirmed_activity_count += len(entries) - len(previous)
                if entries:
                    self._confirmed[nft] = entries
                else:
                    self._confirmed.pop(nft, None)
            for nft in vanished:
                self._token_order.pop(nft, None)

        self._metric_dirty.inc(report.dirty_token_count)
        self._metric_refined.inc(len(live))
        self._metric_redetected.inc(len(redetect))
        self._metric_confirmations.inc(len(report.newly_confirmed))
        self._metric_retractions.inc(len(report.retracted))
        self._metric_tracked.set(len(self.states))
        self._metric_confirmed.set(self.confirmed_activity_count)
        return report

    # -- final assembly ----------------------------------------------------
    def result(self) -> PipelineResult:
        """The batch-identical pipeline result of the current state.

        Candidates come out in store (first-seen) order; activities list
        the base-confirmed components first and the repeated-SCC
        confirmations after them, each group in candidate order --
        exactly how the columnar executor confirms its candidates and then
        applies ``confirm_repeated_components``.
        """
        merged = [StageAccumulator(name=name) for name in STAGE_NAMES]
        candidates: List[CandidateComponent] = []
        base_confirmed: List[WashTradingActivity] = []
        repeated: List[WashTradingActivity] = []
        unconfirmed: List[CandidateComponent] = []
        for nft in self.store.tokens:
            state = self.states.get(nft)
            if state is None:
                continue
            for accumulator, stage in zip(merged, state.stages):
                accumulator.merge(stage)
            for component, evidence in zip(state.candidates, state.evidence):
                candidates.append(component)
                if evidence:
                    base_confirmed.append(
                        WashTradingActivity(
                            component=component, evidence=list(evidence)
                        )
                    )
                elif (
                    self._repeat_enabled
                    and self._confirmed_pool[component.accounts] > 0
                ):
                    repeated.append(
                        WashTradingActivity(
                            component=component,
                            evidence=[_repeated_evidence(component)],
                        )
                    )
                else:
                    unconfirmed.append(component)
        refinement = RefinementResult(
            candidates=candidates,
            stages=[accumulator.to_stage() for accumulator in merged],
        )
        return PipelineResult(
            refinement=refinement,
            activities=base_confirmed + repeated,
            unconfirmed=unconfirmed,
        )

    # -- internals ---------------------------------------------------------
    def _refresh_masks(self) -> None:
        """Classify accounts interned since the last tick into the masks."""
        accounts = self.store.accounts
        if self._classified_accounts == len(accounts):
            return
        for account_id in range(self._classified_accounts, len(accounts)):
            address = accounts[account_id]
            if not self.skip_service_removal and self.labels.is_graph_excluded_service(
                address
            ):
                self._service_ids.add(account_id)
            if not self.skip_contract_removal and self.is_contract(address):
                self._contract_ids.add(account_id)
        self._classified_accounts = len(accounts)
        self._service_mask = frozenset(self._service_ids)
        self._contract_mask = frozenset(self._contract_ids)

    def _refine_live(self, live: List[NFTKey]):
        """Refine the tick's live dirty tokens in one batched CSR pass;
        one result per token, in ``live`` order."""
        return refine_token_states(
            self.store.accounts,
            [self.store.tokens[nft] for nft in live],
            service_ids=self._service_mask,
            contract_ids=self._contract_mask,
            skip_service_removal=self.skip_service_removal,
            skip_contract_removal=self.skip_contract_removal,
            skip_zero_volume_removal=self.skip_zero_volume_removal,
        )

    def _detect_state(self, refinement, context: DetectionContext) -> TokenState:
        """Run the per-component detectors over one token's refinement
        (a fresh one, or a cached :class:`TokenState` being re-detected)."""
        return TokenState(
            stages=refinement.stages,
            candidates=refinement.candidates,
            evidence=[
                collect_evidence(component, self.detectors, context)
                for component in refinement.candidates
            ],
        )

    def _retire_state(
        self, nft: NFTKey, state: TokenState, flipped_sets: Set[FrozenSet[str]]
    ) -> None:
        """Undo a token's contribution to the cross-token repeated state
        and to the candidate-account index."""
        for component, evidence in zip(state.candidates, state.evidence):
            accounts = component.accounts
            for account in accounts:
                tokens = self._candidate_tokens.get(account)
                if tokens is not None:
                    tokens.discard(nft)
                    if not tokens:
                        del self._candidate_tokens[account]
            if evidence:
                self._confirmed_pool[accounts] -= 1
                if self._confirmed_pool[accounts] <= 0:
                    del self._confirmed_pool[accounts]
                    flipped_sets.add(accounts)
            else:
                holders = self._unconfirmed_index.get(accounts)
                if holders is not None:
                    holders.discard(nft)
                    if not holders:
                        del self._unconfirmed_index[accounts]

    def _install_state(
        self, nft: NFTKey, state: TokenState, flipped_sets: Set[FrozenSet[str]]
    ) -> None:
        """Record a token's fresh contribution to the repeated state and
        to the candidate-account index."""
        self.states[nft] = state
        for component, evidence in zip(state.candidates, state.evidence):
            accounts = component.accounts
            for account in accounts:
                self._candidate_tokens.setdefault(account, set()).add(nft)
            if evidence:
                if self._confirmed_pool[accounts] == 0:
                    flipped_sets.add(accounts)
                self._confirmed_pool[accounts] += 1
            else:
                self._unconfirmed_index.setdefault(accounts, set()).add(nft)

    def _confirmed_entries(
        self, nft: NFTKey
    ) -> Dict[ActivityKey, WashTradingActivity]:
        """The token's currently confirmed activities, keyed for diffing."""
        state = self.states.get(nft)
        entries: Dict[ActivityKey, WashTradingActivity] = {}
        if state is None:
            return entries
        for component, evidence in zip(state.candidates, state.evidence):
            if evidence:
                entries[_activity_key(component)] = WashTradingActivity(
                    component=component, evidence=list(evidence)
                )
            elif (
                self._repeat_enabled
                and self._confirmed_pool[component.accounts] > 0
            ):
                entries[_activity_key(component)] = WashTradingActivity(
                    component=component,
                    evidence=[_repeated_evidence(component)],
                )
        return entries
