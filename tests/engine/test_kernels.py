"""Unit and property proofs for the detection kernels.

Three layers, bottom up:

* the CSR Tarjan (:func:`tarjan_csr`) against the repo's iterative
  reference (:func:`tarjan_scc_adjacency`) and against networkx, on
  random graphs with self-loops, parallel edges and singletons, and
  on one 50k-node graph -- component *ids* must follow the
  reference's emission order exactly;
* the zero-copy ``TokenColumns.as_arrays`` views (values, buffer
  pinning, release);
* the batched CSR component extraction
  (:func:`batch_token_components`) against the per-token interpreted
  walk (:func:`token_components`) under random exclusion masks.
"""

from __future__ import annotations

import networkx as nx
import numpy
import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.types import NFTKey, NULL_ADDRESS
from repro.core.scc import tarjan_scc_adjacency
from repro.engine.kernels import batch_token_components, tarjan_csr
from repro.engine.refine import token_components
from repro.engine.store import ColumnarTransferStore
from repro.ingest.records import NFTTransfer

REGULARS = [f"0xa{index}" for index in range(8)]
SERVICES = ["0xsvc0", "0xsvc1"]
CONTRACTS = ["0xct0", "0xct1"]
POOL = REGULARS + SERVICES + CONTRACTS + [NULL_ADDRESS]


# -- random graphs -------------------------------------------------------------


@st.composite
def random_graphs(draw):
    """A small digraph as (node_count, edge list); duplicates allowed."""
    node_count = draw(st.integers(min_value=0, max_value=12))
    if node_count == 0:
        return 0, []
    node = st.integers(min_value=0, max_value=node_count - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=40))
    return node_count, edges


def to_csr(node_count, edges):
    """The edge list as (adjacency, indptr, indices), edge order kept."""
    adjacency = [[] for _ in range(node_count)]
    for source, target in edges:
        adjacency[source].append(target)
    indptr = numpy.zeros(node_count + 1, dtype=numpy.int64)
    for node, successors in enumerate(adjacency):
        indptr[node + 1] = indptr[node] + len(successors)
    flat = [target for successors in adjacency for target in successors]
    indices = numpy.array(flat, dtype=numpy.int64)
    return adjacency, indptr, indices


@settings(max_examples=150, deadline=None)
@given(random_graphs())
def test_tarjan_csr_matches_reference_emission_order(graph):
    """comp_of[v] is v's component's index in the reference emission."""
    node_count, edges = graph
    adjacency, indptr, indices = to_csr(node_count, edges)
    comp_of, count = tarjan_csr(indptr, indices)
    reference = tarjan_scc_adjacency(node_count, adjacency)
    assert count == len(reference)
    for position, members in enumerate(reference):
        for member in members:
            assert comp_of[member] == position


@settings(max_examples=100, deadline=None)
@given(random_graphs())
def test_tarjan_csr_matches_networkx(graph):
    """The component partition agrees with the independent networkx SCC."""
    node_count, edges = graph
    _, indptr, indices = to_csr(node_count, edges)
    comp_of, count = tarjan_csr(indptr, indices)
    digraph = nx.DiGraph()
    digraph.add_nodes_from(range(node_count))
    digraph.add_edges_from(edges)
    expected = {
        frozenset(component)
        for component in nx.strongly_connected_components(digraph)
    }
    grouped = {}
    for node in range(node_count):
        grouped.setdefault(int(comp_of[node]), set()).add(node)
    assert {frozenset(members) for members in grouped.values()} == expected
    assert count == len(expected)


def test_tarjan_csr_matches_reference_at_size():
    """A 50k-node path whose one back edge closes a 25k-node cycle,
    with a self-loop on every 1000th node: the walk stays iterative and
    keeps the reference's component count and emission order."""
    node_count = 50_000
    edges = [(node, node + 1) for node in range(node_count - 1)]
    edges.append((37_499, 12_500))
    edges.extend((node, node) for node in range(0, node_count, 1000))
    adjacency, indptr, indices = to_csr(node_count, edges)
    comp_of, count = tarjan_csr(indptr, indices)
    reference = tarjan_scc_adjacency(node_count, adjacency)
    assert count == len(reference) == node_count - 25_000 + 1
    expected = numpy.empty(node_count, dtype=numpy.int64)
    for position, members in enumerate(reference):
        expected[members] = position
    assert numpy.array_equal(comp_of, expected)


# -- zero-copy column views ----------------------------------------------------


def make_transfer(nft, sender, recipient, ts, price, tag):
    return NFTTransfer(
        nft=nft,
        sender=sender,
        recipient=recipient,
        tx_hash=f"0xhash{tag}",
        block_number=ts,
        timestamp=ts,
        price_wei=price,
        gas_fee_wei=10,
        tx_sender=sender,
    )


def test_as_arrays_views_share_the_column_buffers():
    nft = NFTKey(contract="0x" + "c" * 40, token_id=1)
    store = ColumnarTransferStore()
    columns = store.add_token(
        nft,
        [
            make_transfer(nft, "0xa0", "0xa1", 1, 10**18, 0),
            make_transfer(nft, "0xa1", "0xa0", 2, 0, 1),
        ],
    )
    timestamps, senders, recipients, flags = columns.as_arrays()
    assert timestamps.dtype == numpy.int64
    assert flags.dtype == numpy.uint8
    assert timestamps.tolist() == list(columns.timestamps)
    assert senders.tolist() == list(columns.senders)
    assert recipients.tolist() == list(columns.recipients)
    assert flags.tolist() == list(columns.payment_flags)
    # The views pin the exporting array buffers: the column cannot grow
    # while one is alive, and can again once every view is dropped.
    with pytest.raises(BufferError):
        columns.timestamps.append(3)
    del timestamps, senders, recipients, flags
    columns.timestamps.append(3)
    del columns.timestamps[-1]


# -- batched CSR extraction vs the interpreted walk ----------------------------


@st.composite
def random_histories(draw):
    """A few NFTs with random transfers over the mixed account pool."""
    token_count = draw(st.integers(min_value=1, max_value=4))
    histories = {}
    tag = 0
    for token_id in range(token_count):
        nft = NFTKey(contract="0x" + "c" * 40, token_id=token_id)
        edge_count = draw(st.integers(min_value=0, max_value=14))
        transfers = []
        for _ in range(edge_count):
            sender = draw(st.sampled_from(POOL))
            recipient = draw(st.sampled_from(POOL))
            ts = draw(st.integers(min_value=0, max_value=30))
            price = draw(st.sampled_from([0, 0, 10**18]))
            transfers.append(make_transfer(nft, sender, recipient, ts, price, tag))
            tag += 1
        histories[nft] = transfers
    return histories


@settings(max_examples=60, deadline=None)
@given(random_histories(), st.sets(st.sampled_from(POOL), max_size=6))
def test_batched_csr_matches_per_token_walk(histories, excluded_addresses):
    """Identical components, member ids, row tuples and ordering."""
    store = ColumnarTransferStore.from_transfers(histories)
    excluded = store.ids_matching(excluded_addresses.__contains__)
    tokens = list(store)
    reference = [token_components(columns, excluded) for columns in tokens]
    batched = batch_token_components(tokens, excluded, store.account_count)
    assert batched == reference
