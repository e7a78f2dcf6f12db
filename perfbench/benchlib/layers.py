"""Which public calls each layer's spans wrap, and the per-layer metrics.

:func:`install` wraps the program's layer boundaries in a
:class:`~benchlib.tracer.Tracer`; it must run before the services of a
traced cycle are constructed, because ``ServeIndex`` and the wire
server subscribe bound methods when they are built.
:func:`layer_metrics` turns one traced cycle's spans, counts and the
workload's own observations into the ``per_layer`` metrics listed in
``BENCHMARK.json``.  A layer a workload does not run reports 0.
"""

from __future__ import annotations

import importlib
import pkgutil
from typing import Dict, List, Tuple

from benchlib.tracer import Tracer, public_functions

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str, str]] = [
    ("simulation.build_world_s", "s", "lower"),
    ("ingest.scan_s", "s", "lower"),
    ("ingest.compliance_s", "s", "lower"),
    ("ingest.account_tx_s", "s", "lower"),
    ("ingest.transfers", "count", "higher"),
    ("ingest.accounts", "count", "higher"),
    ("engine.store_build_s", "s", "lower"),
    ("core.refine_s", "s", "lower"),
    ("core.detect_s", "s", "lower"),
    ("core.detectors.flow_calls", "count", "lower"),
    ("core.candidates", "count", "higher"),
    ("core.activities", "count", "higher"),
    ("core.characterization_s", "s", "lower"),
    ("core.profitability_s", "s", "lower"),
    ("analysis.report_s", "s", "lower"),
    ("stream.cursor.advance_s", "s", "lower"),
    ("stream.scheduler.process_s", "s", "lower"),
    ("stream.refine_s", "s", "lower"),
    ("stream.detect_s", "s", "lower"),
    ("stream.new_transfers", "count", "higher"),
    ("stream.touched_tokens", "count", "higher"),
    ("stream.dirty_tokens", "count", "lower"),
    ("stream.dirty_amplification", "ratio", "lower"),
    ("stream.tick_growth", "ratio", "lower"),
    ("serve.index.stage_s", "s", "lower"),
    ("serve.index.commit_s", "s", "lower"),
    ("serve.cache.hit_ratio", "ratio", "higher"),
    ("serve.cache.invalidated", "count", "lower"),
    ("serve.query_s", "s", "lower"),
    ("serve.query.calls", "count", "higher"),
    ("serve.wire.push_lag_ms", "ms", "lower"),
    ("serve.wire.client.version_fetch_s", "s", "lower"),
    ("serve.wire.encode_s", "s", "lower"),
    ("serve.wire.overhead_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
]

#: QueryService endpoints (server side) and their RemoteQueryService
#: counterparts (client side).
QUERY_ENDPOINTS = (
    "version", "token_status", "account_profile", "list_confirmed",
    "funnel_stats", "collection_rollup", "marketplace_rollup",
    "collections", "venues",
)


def _import_everything() -> None:
    """Load every ``repro`` module so each name binding can be patched."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name != "repro.__main__":
            importlib.import_module(info.name)


def _count_scan(tracer: Tracer, result) -> None:
    tracer.add_value("ingest.transfers", result.event_count)


def _count_accounts(tracer: Tracer, result) -> None:
    tracer.add_value("ingest.accounts", len(result))


def _count_pipeline(tracer: Tracer, result) -> None:
    tracer.add_value("core.candidates", result.candidate_count)
    tracer.add_value("core.activities", result.activity_count)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    _import_everything()
    from repro.analysis.report import PaperReport
    from repro.core import characterization
    from repro.core.detectors import pipeline as detectors_pipeline
    from repro.core.detectors.base import DetectionContext
    from repro.core.detectors.repeated_scc import confirm_repeated_components
    from repro.core.profitability.resale import analyze_resale_profitability
    from repro.core.profitability.rewards import analyze_reward_profitability
    from repro.core.refine import RefinementFunnel
    from repro.engine.kernels.context import CachingDetectionContext
    from repro.engine.kernels.refine import refine_token_states, refine_tokens_kernel
    from repro.engine.refine import refine_tokens
    from repro.engine.store import ColumnarTransferStore
    from repro.ingest.account_tx import collect_account_transactions
    from repro.ingest.compliance import check_erc721_compliance
    from repro.ingest.transfer_scan import scan_erc721_transfer_logs
    from repro.serve import service
    from repro.serve.index import ServeIndex
    from repro.serve.query import QueryService
    from repro.serve.wire import codec
    from repro.serve.wire.client import RemoteQueryService, WireClient
    from repro.simulation.builder import build_default_world
    from repro.stream.cursor import DatasetCursor
    from repro.stream.scheduler import DirtyTokenScheduler

    def function(name, fn, on_result=None):
        tracer.wrap_function(fn, tracer.timed(name, fn, on_result))

    def method(name, cls, attr, on_result=None):
        tracer.wrap_method(cls, attr, lambda fn: tracer.timed(name, fn, on_result))

    function("simulation.build_world", build_default_world)
    function("ingest.scan", scan_erc721_transfer_logs, _count_scan)
    function("ingest.compliance", check_erc721_compliance)
    function("ingest.account_tx", collect_account_transactions, _count_accounts)
    method("engine.store_build", ColumnarTransferStore, "from_dataset")

    method("core.refine", RefinementFunnel, "run")
    function("core.refine", refine_tokens)
    function("core.refine", refine_tokens_kernel)
    detector_classes = {
        type(detector)
        for detector in detectors_pipeline.build_detectors(
            detectors_pipeline.DetectionMethod
        )
    }
    for cls in sorted(detector_classes, key=lambda c: c.__name__):
        method("core.detect", cls, "detect")
    function("core.detect", confirm_repeated_components)
    for cls in (DetectionContext, CachingDetectionContext):
        for attr in ("incoming_flows", "outgoing_flows"):
            tracer.wrap_method(
                cls, attr,
                lambda fn: tracer.counted("core.detectors.flow_calls", fn),
            )
    tracer.wrap_method(
        detectors_pipeline.WashTradingPipeline, "run",
        lambda fn: tracer.observed(fn, _count_pipeline),
    )
    for module_name in ("patterns", "serial", "temporal", "volume"):
        module = importlib.import_module(f"{characterization.__name__}.{module_name}")
        for fn in public_functions(module):
            function("core.characterization", fn)
    function("core.profitability", analyze_reward_profitability)
    function("core.profitability", analyze_resale_profitability)
    method("analysis.report", PaperReport, "render_text")

    method("stream.tick", service.ServeService, "advance")
    method("stream.cursor.advance", DatasetCursor, "advance")
    method("stream.scheduler.process", DirtyTokenScheduler, "process")
    function("stream.refine", refine_token_states)

    method("serve.index.stage", ServeIndex, "stage_snapshot")
    method("serve.index.commit", ServeIndex, "commit_staged")
    for attr in QUERY_ENDPOINTS:
        method("serve.query", QueryService, attr)
        method("client.call", RemoteQueryService, attr)
    for fn in public_functions(codec):
        if fn.__name__.startswith("encode_"):
            function("serve.wire.encode", fn)
    method("client.version_fetch", WireClient, "token_order")
    method("client.version_fetch", WireClient, "accounts")


def layer_metrics(tracer: Tracer, observed: Dict[str, float]) -> Dict[str, float]:
    """One traced cycle's per-layer metrics.

    ``observed`` carries what the workload measured itself: snapshot
    sums (``stream.*`` counts), tick growth, cache-counter deltas and
    the push lag.  Spans tagged "setup" feed only the simulation layer;
    every other layer reads the measured phase.
    """
    busy = tracer.busy
    client_s = busy("client.call")
    query_s = busy("serve.query")
    touched = observed.get("stream.touched_tokens", 0)
    metrics = {
        "simulation.build_world_s": busy("simulation.build_world", phase="setup"),
        "ingest.scan_s": busy("ingest.scan"),
        "ingest.compliance_s": busy("ingest.compliance"),
        "ingest.account_tx_s": busy("ingest.account_tx"),
        "ingest.transfers": tracer.values["ingest.transfers"],
        "ingest.accounts": tracer.values["ingest.accounts"],
        "engine.store_build_s": busy("engine.store_build"),
        "core.refine_s": busy("core.refine"),
        "core.detect_s": busy("core.detect"),
        "core.detectors.flow_calls": tracer.counts["core.detectors.flow_calls"],
        "core.candidates": tracer.values["core.candidates"],
        "core.activities": tracer.values["core.activities"],
        "core.characterization_s": busy("core.characterization"),
        "core.profitability_s": busy("core.profitability"),
        "analysis.report_s": tracer.self_time("analysis.report"),
        "stream.cursor.advance_s": busy("stream.cursor.advance"),
        "stream.scheduler.process_s": busy("stream.scheduler.process"),
        "stream.refine_s": busy("stream.refine"),
        "stream.detect_s": busy("core.detect", within="stream.tick"),
        "stream.new_transfers": observed.get("stream.new_transfers", 0),
        "stream.touched_tokens": touched,
        "stream.dirty_tokens": observed.get("stream.dirty_tokens", 0),
        "stream.dirty_amplification": (
            observed.get("stream.dirty_tokens", 0) / touched if touched else 0.0
        ),
        "stream.tick_growth": observed.get("stream.tick_growth", 0.0),
        "serve.index.stage_s": busy("serve.index.stage"),
        "serve.index.commit_s": busy("serve.index.commit"),
        "serve.cache.hit_ratio": observed.get("serve.cache.hit_ratio", 0.0),
        "serve.cache.invalidated": observed.get("serve.cache.invalidated", 0),
        "serve.query_s": query_s,
        "serve.query.calls": len(
            [s for s in tracer.named("serve.query") if not s.has_ancestor("serve.query")]
        ),
        "serve.wire.push_lag_ms": observed.get("serve.wire.push_lag_ms", 0.0),
        "serve.wire.client.version_fetch_s": busy("client.version_fetch", within="client.call"),
        "serve.wire.encode_s": busy("serve.wire.encode"),
        "serve.wire.overhead_s": max(client_s - query_s, 0.0) if client_s else 0.0,
    }
    return metrics
