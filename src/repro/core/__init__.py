"""The paper's contribution: wash trading detection and characterization.

Sub-packages follow the paper's structure:

* :mod:`repro.core.graph` / :mod:`repro.core.scc` -- per-NFT transaction
  graphs and strongly connected component candidate search (Sec. IV-A).
* :mod:`repro.core.refine` -- the three refinement steps (Sec. IV-B).
* :mod:`repro.core.detectors` -- the five confirmation techniques and
  the combined pipeline (Sec. IV-C/D).
* :mod:`repro.core.characterization` -- volume, temporal, pattern and
  serial-trader analysis (Sec. V).
* :mod:`repro.core.profitability` -- reward-system and resale
  profitability (Sec. VI) and case studies (Sec. VII).
"""

from repro.core.activity import CandidateComponent, WashTradingActivity, DetectionMethod
from repro.core.graph import NFTTransactionGraph, build_transaction_graph
from repro.core.scc import strongly_connected_components
from repro.core.refine import RefinementFunnel, FunnelStage
from repro.core.detectors import (
    DetectionConfig,
    DetectionContext,
    WashTradingPipeline,
    PipelineResult,
)

__all__ = [
    "CandidateComponent",
    "WashTradingActivity",
    "DetectionMethod",
    "NFTTransactionGraph",
    "build_transaction_graph",
    "strongly_connected_components",
    "RefinementFunnel",
    "FunnelStage",
    "DetectionConfig",
    "DetectionContext",
    "WashTradingPipeline",
    "PipelineResult",
]
