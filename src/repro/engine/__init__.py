"""The columnar detection engine.

The production execution path for the Sec. IV detection stack and the
default of ``WashTradingPipeline``, layered as:

* :mod:`repro.engine.store` -- :class:`ColumnarTransferStore`, interned
  accounts and flat per-NFT transfer columns built once per dataset.
* :mod:`repro.engine.kernels` -- the funnel stages over batched CSR
  arrays with a compiled Tarjan (pure-Python fallback without a C
  compiler or under ``REPRO_NO_CKERNEL=1``), and the memoised
  :class:`~repro.engine.kernels.CachingDetectionContext` the detectors
  read.
* :mod:`repro.engine.executor` -- one single-process pass: refine every
  token, confirm the candidates, then apply the repeated-SCC rule.

:mod:`repro.engine.refine` keeps the per-token mask refinement
(:func:`refine_tokens`) as the reference the kernel tests compare the
CSR path against.  The networkx implementation in :mod:`repro.core`
(``WashTradingPipeline(engine="legacy")``) remains the paper-faithful
reference; the parity tests in ``tests/engine`` pin the two to
identical output.
"""

from repro.engine.executor import run_columnar_pipeline
from repro.engine.refine import (
    STAGE_NAMES,
    ShardRefinement,
    StageAccumulator,
    TokenComponent,
    refine_tokens,
    token_components,
)
from repro.engine.store import ColumnarTransferStore, TokenColumns

__all__ = [
    "ColumnarTransferStore",
    "STAGE_NAMES",
    "ShardRefinement",
    "StageAccumulator",
    "TokenColumns",
    "TokenComponent",
    "refine_tokens",
    "run_columnar_pipeline",
    "token_components",
]
