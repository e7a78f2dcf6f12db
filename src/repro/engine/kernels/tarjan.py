"""Tarjan SCC over flat CSR arrays.

:func:`tarjan_csr` labels every node of a CSR graph with its component
id, numbered in the classic Tarjan emission order (reverse topological
order of the condensation) -- exactly the component order
:func:`repro.core.scc.tarjan_scc_adjacency` produces, which is what the
parity proofs in ``tests/engine/test_kernels.py`` pin.  It is an
iterative pure-Python walk over the CSR arrays; on the benchmark
workloads it runs within noise of the compiled kernel it replaced
(``docs/architecture.md`` § Detection kernels).
"""

from __future__ import annotations

from typing import Tuple

import numpy


def active_backend() -> str:
    """Always ``"fallback"``: the one Tarjan is the pure-Python walk.

    ``perfbench/run.py`` maps this name to the ``backend`` label of its
    results; nothing under ``src/`` calls it.
    """
    return "fallback"


def tarjan_csr(
    indptr: numpy.ndarray, indices: numpy.ndarray
) -> Tuple[numpy.ndarray, int]:
    """Label the nodes of a CSR graph with Tarjan component ids.

    ``indptr`` has ``node_count + 1`` entries; ``indices[indptr[u] :
    indptr[u + 1]]`` are the successors of ``u``.  Returns
    ``(comp_of, component_count)`` where ``comp_of[v]`` is the id of
    ``v``'s component and ids follow emission order.
    """
    node_count = len(indptr) - 1
    comp_of = numpy.empty(node_count, dtype=numpy.int64)
    if node_count == 0:
        return comp_of, 0
    indptr_list = indptr.tolist()
    indices_list = indices.tolist()
    num = [-1] * node_count
    low = [0] * node_count
    pos = [0] * node_count
    on_stack = [False] * node_count
    stack = []
    call = []
    counter = 0
    comp_count = 0
    for root in range(node_count):
        if num[root] != -1:
            continue
        call.append(root)
        num[root] = low[root] = counter
        counter += 1
        pos[root] = indptr_list[root]
        stack.append(root)
        on_stack[root] = True
        while call:
            node = call[-1]
            cursor = pos[node]
            if cursor < indptr_list[node + 1]:
                pos[node] = cursor + 1
                successor = indices_list[cursor]
                if num[successor] == -1:
                    num[successor] = low[successor] = counter
                    counter += 1
                    pos[successor] = indptr_list[successor]
                    stack.append(successor)
                    on_stack[successor] = True
                    call.append(successor)
                elif on_stack[successor] and num[successor] < low[node]:
                    low[node] = num[successor]
            else:
                call.pop()
                if call and low[node] < low[call[-1]]:
                    low[call[-1]] = low[node]
                if low[node] == num[node]:
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        comp_of[member] = comp_count
                        if member == node:
                            break
                    comp_count += 1
    return comp_of, comp_count
