"""Tests for bandwidth accounting and crash-fault injection."""

import networkx as nx
import pytest

from repro.errors import SimulationError
from repro.local import (
    Network,
    NodeAlgorithm,
    estimate_payload_bits,
    is_congest_width,
)
from repro.local.network import run_on_graph


class TestPayloadEstimates:
    def test_integers_cost_bit_length(self):
        assert estimate_payload_bits(0) == 1
        assert estimate_payload_bits(255) == 9
        assert estimate_payload_bits(2**40) == 42

    def test_containers_sum(self):
        single = estimate_payload_bits(100)
        triple = estimate_payload_bits((100, 100, 100))
        assert triple >= 3 * single

    def test_none_and_bool_tiny(self):
        assert estimate_payload_bits(None) == 1
        assert estimate_payload_bits(True) == 1

    def test_strings(self):
        assert estimate_payload_bits("abc") == 24

    def test_congest_width_check(self):
        assert is_congest_width(10, n=1024)
        assert not is_congest_width(10_000, n=1024)


class Broadcast(NodeAlgorithm):
    def initialize(self, node, ctx):
        node.broadcast(node.id)

    def step(self, node, inbox, round_no, ctx):
        node.state["output"] = sorted(m.payload for m in inbox)
        node.halt()


class TestBandwidthTracking:
    @pytest.mark.parametrize("engine", ["reference", "vector"])
    def test_linial_is_congest_compatible(self, engine):
        from repro.engine import get_engine
        from repro.graphs import random_regular
        from repro.substrates.linial import LinialAlgorithm

        g = random_regular(40, 4, seed=1)
        initial = {v: i * 100 for i, v in enumerate(sorted(g.nodes()))}
        extras = {"initial_coloring": initial, "m0": max(initial.values()) + 1}
        result = get_engine(engine).run(
            g, LinialAlgorithm(), extras=extras, track_bandwidth=True
        )
        assert result.max_message_bits > 0
        assert is_congest_width(result.max_message_bits, n=40)

    def test_merge_is_local_only(self):
        # the Lemma 5.1 merge ships used-color sets: width grows with degree
        from repro.core import merge_cross_edges
        from repro.core.arboricity import CrossMergeAlgorithm

        g = nx.star_graph(8)
        side = {0: "A", **{i: "B" for i in range(1, 9)}}
        net = Network(g)
        labels = {0: {i: i for i in range(1, 9)}}
        ctx = net.make_context(
            side=side, labels=labels, used={}, palette=16, d=8
        )
        result = net.run(CrossMergeAlgorithm(), ctx, track_bandwidth=True)
        assert result.max_message_bits > estimate_payload_bits(("req", 1, ()))

    def test_tracking_off_by_default(self):
        result = run_on_graph(nx.path_graph(3), Broadcast())
        assert result.max_message_bits == 0


class CrashWitness(NodeAlgorithm):
    """Counts rounds; lets us observe who stopped stepping."""

    def initialize(self, node, ctx):
        node.state["output"] = 0

    def step(self, node, inbox, round_no, ctx):
        node.state["output"] = round_no
        if round_no >= 5:
            node.halt()


class TestCrashInjection:
    def test_crashed_nodes_stop_stepping(self):
        net = Network(nx.cycle_graph(4))
        result = net.run(CrashWitness(), crashes={0: 3})
        assert result.crashed == frozenset({0})
        assert result.output_of(0) == 2  # last completed round
        assert result.output_of(1) == 5

    def test_unknown_crash_target_rejected(self):
        net = Network(nx.path_graph(2))
        with pytest.raises(SimulationError):
            net.run(CrashWitness(), crashes={"ghost": 1})

    def test_linial_survivors_stay_proper(self):
        """Crashing nodes mid-run must not corrupt properness among
        survivors: alive neighbors keep exchanging colors, so the cover-free
        refinement still separates them (self-stabilization flavor)."""
        from repro.graphs import erdos_renyi
        from repro.substrates.linial import LinialAlgorithm, linial_schedule

        g = erdos_renyi(40, 0.25, seed=2)
        net = Network(g)
        initial = {v: i * 300 for i, v in enumerate(sorted(g.nodes()))}
        m0 = max(initial.values()) + 1
        schedule, _ = linial_schedule(m0, net.max_degree)
        if not schedule:
            pytest.skip("graph too small for a multi-round schedule")
        ctx = net.make_context(initial_coloring=initial, m0=m0)
        result = net.run(LinialAlgorithm(), ctx, crashes={0: 1, 7: 1})
        alive = set(g.nodes()) - set(result.crashed)
        for u, v in g.edges():
            if u in alive and v in alive:
                assert result.output_of(u) != result.output_of(v)

    def test_basic_reduction_survivors_stay_proper(self):
        from repro.graphs import random_regular
        from repro.substrates.reduction import BasicReductionAlgorithm

        g = random_regular(20, 4, seed=3)
        coloring = {v: 2 * i for i, v in enumerate(sorted(g.nodes()))}
        m = max(coloring.values()) + 1
        net = Network(g)
        ctx = net.make_context(coloring=coloring, m=m, target=5)
        result = net.run(BasicReductionAlgorithm(), ctx, crashes={3: 2})
        alive = set(g.nodes()) - set(result.crashed)
        for u, v in g.edges():
            if u in alive and v in alive:
                assert result.output_of(u) != result.output_of(v)
