"""Unit and property tests for transaction graphs and SCC search."""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.types import NFTKey
from repro.core.graph import build_transaction_graph
from repro.core.scc import (
    kept_components_adjacency,
    strongly_connected_components,
    tarjan_scc_adjacency,
)
from repro.ingest.records import NFTTransfer

NFT = NFTKey(contract="0x" + "c" * 40, token_id=1)


def make_transfer(sender, recipient, ts=0, price=0, tx_hash=None, marketplace=None):
    return NFTTransfer(
        nft=NFT,
        sender=sender,
        recipient=recipient,
        tx_hash=tx_hash or f"0x{sender}{recipient}{ts}",
        block_number=ts,
        timestamp=ts,
        price_wei=price,
        gas_fee_wei=10,
        marketplace=marketplace,
        tx_sender=recipient,
    )


class TestTransactionGraph:
    def test_nodes_and_edges(self):
        transfers = [make_transfer("A", "B", 1, 10), make_transfer("B", "A", 2, 10)]
        graph = build_transaction_graph(NFT, transfers)
        assert graph.nodes == {"A", "B"}
        assert graph.edge_count == 2
        assert graph.total_volume_wei == 20

    def test_edges_carry_paper_annotation(self):
        transfers = [make_transfer("A", "B", 5, 42, marketplace="OpenSea")]
        graph = build_transaction_graph(NFT, transfers)
        _, _, data = next(iter(graph.graph.edges(data=True)))
        assert data["t"] == 5
        assert data["p"] == 42
        assert data["h"].startswith("0x")

    def test_transfers_sorted_chronologically(self):
        transfers = [make_transfer("B", "C", 9), make_transfer("A", "B", 1)]
        graph = build_transaction_graph(NFT, transfers)
        assert graph.first_transfer().timestamp == 1
        assert graph.last_transfer().timestamp == 9

    def test_without_nodes_removes_edges(self):
        transfers = [
            make_transfer("A", "B", 1, 10),
            make_transfer("B", "EXCHANGE", 2, 10),
            make_transfer("EXCHANGE", "C", 3, 10),
        ]
        graph = build_transaction_graph(NFT, transfers)
        pruned = graph.without_nodes(["EXCHANGE"])
        assert "EXCHANGE" not in pruned.nodes
        assert pruned.edge_count == 1

    def test_edges_between_subset(self):
        transfers = [make_transfer("A", "B", 1, 10), make_transfer("B", "C", 2, 10)]
        graph = build_transaction_graph(NFT, transfers)
        assert len(graph.edges_between({"A", "B"})) == 1

    def test_self_loop_detected(self):
        graph = build_transaction_graph(NFT, [make_transfer("A", "A", 1, 10)])
        assert graph.has_self_loop("A")

    def test_before_and_after_queries(self):
        transfers = [make_transfer("A", "B", 1), make_transfer("B", "C", 5)]
        graph = build_transaction_graph(NFT, transfers)
        assert len(graph.transfers_before(5)) == 1
        assert len(graph.transfers_after(1)) == 1

    def test_before_and_after_are_strict_on_equal_timestamps(self):
        transfers = [
            make_transfer("A", "B", 3),
            make_transfer("B", "C", 5, tx_hash="0x01"),
            make_transfer("C", "D", 5, tx_hash="0x02"),
            make_transfer("D", "E", 9),
        ]
        graph = build_transaction_graph(NFT, transfers)
        assert [t.timestamp for t in graph.transfers_before(5)] == [3]
        assert [t.timestamp for t in graph.transfers_after(5)] == [9]
        assert graph.transfers_before(0) == []
        assert graph.transfers_after(9) == []
        assert len(graph.transfers_before(100)) == 4
        assert len(graph.transfers_after(0)) == 4

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=20), max_size=15),
        st.integers(min_value=-1, max_value=21),
    )
    def test_bisect_queries_match_linear_scan(self, timestamps, pivot):
        transfers = [
            make_transfer("A", "B", ts, tx_hash=f"0x{position}")
            for position, ts in enumerate(timestamps)
        ]
        graph = build_transaction_graph(NFT, transfers)
        assert graph.transfers_before(pivot) == [
            t for t in graph.transfers if t.timestamp < pivot
        ]
        assert graph.transfers_after(pivot) == [
            t for t in graph.transfers if t.timestamp > pivot
        ]


class TestSCCDefinition:
    def test_round_trip_is_a_component(self):
        graph = nx.MultiDiGraph()
        graph.add_edges_from([("A", "B"), ("B", "A")])
        components = strongly_connected_components(graph)
        assert components == [{"A", "B"}]

    def test_chain_is_not_a_component(self):
        graph = nx.MultiDiGraph()
        graph.add_edges_from([("A", "B"), ("B", "C")])
        assert strongly_connected_components(graph) == []

    def test_self_loop_singleton_is_kept(self):
        graph = nx.MultiDiGraph()
        graph.add_edge("A", "A")
        assert strongly_connected_components(graph) == [{"A"}]

    def test_plain_singleton_is_dropped(self):
        graph = nx.MultiDiGraph()
        graph.add_node("A")
        graph.add_edge("A", "B")
        assert strongly_connected_components(graph) == []

    def test_cycle_of_three(self):
        graph = nx.MultiDiGraph()
        graph.add_edges_from([("A", "B"), ("B", "C"), ("C", "A")])
        assert strongly_connected_components(graph) == [{"A", "B", "C"}]

    def test_two_disjoint_components(self):
        graph = nx.MultiDiGraph()
        graph.add_edges_from([("A", "B"), ("B", "A"), ("X", "Y"), ("Y", "X"), ("B", "X")])
        components = strongly_connected_components(graph)
        assert {frozenset(c) for c in components} == {frozenset({"A", "B"}), frozenset({"X", "Y"})}


@st.composite
def random_digraphs(draw):
    node_count = draw(st.integers(min_value=1, max_value=12))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=node_count - 1),
                st.integers(min_value=0, max_value=node_count - 1),
            ),
            max_size=40,
        )
    )
    graph = nx.MultiDiGraph()
    graph.add_nodes_from(range(node_count))
    graph.add_edges_from(edges)
    return graph


@settings(max_examples=60, deadline=None)
@given(random_digraphs())
def test_adjacency_tarjan_agrees_with_networkx_on_random_graphs(graph):
    """The flat adjacency-list Tarjan core partitions exactly like NetworkX."""
    nodes = list(graph.nodes)
    ids = {node: position for position, node in enumerate(nodes)}
    adjacency = [[ids[succ] for succ in graph.successors(node)] for node in nodes]
    ours = {
        frozenset(nodes[member] for member in component)
        for component in tarjan_scc_adjacency(len(nodes), adjacency)
    }
    reference = {
        frozenset(component) for component in nx.strongly_connected_components(graph)
    }
    assert ours == reference


@settings(max_examples=60, deadline=None)
@given(random_digraphs())
def test_kept_adjacency_components_match_paper_rule(graph):
    """kept_components_adjacency applies the same keep rule as the nx path."""
    nodes = list(graph.nodes)
    ids = {node: position for position, node in enumerate(nodes)}
    adjacency = [[ids[succ] for succ in graph.successors(node)] for node in nodes]
    self_loop = [graph.has_edge(node, node) for node in nodes]
    kept = {
        frozenset(nodes[member] for member in component)
        for component in kept_components_adjacency(len(nodes), adjacency, self_loop)
    }
    reference = {
        frozenset(component) for component in strongly_connected_components(graph)
    }
    assert kept == reference


@settings(max_examples=60, deadline=None)
@given(random_digraphs())
def test_scc_filter_keeps_only_cyclic_structures(graph):
    """Every kept component has >= 2 nodes or a self-loop (the paper's rule)."""
    for component in strongly_connected_components(graph):
        if len(component) == 1:
            (node,) = component
            assert graph.has_edge(node, node)
        else:
            assert len(component) >= 2
