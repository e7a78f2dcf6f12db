"""Detection kernels: numpy/CSR refinement and the CSR Tarjan SCC.

The hot loops of the detection path -- per-token SCC extraction and
mask refinement -- batched over flat CSR arrays, with one iterative
pure-Python Tarjan walk (see ``docs/architecture.md`` § Detection
kernels).
"""

from repro.engine.kernels.context import CachingDetectionContext
from repro.engine.kernels.csr import batch_token_components
from repro.engine.kernels.refine import refine_token_states, refine_tokens_kernel
from repro.engine.kernels.tarjan import active_backend, tarjan_csr

__all__ = [
    "CachingDetectionContext",
    "active_backend",
    "batch_token_components",
    "refine_token_states",
    "refine_tokens_kernel",
    "tarjan_csr",
]
