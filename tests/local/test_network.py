"""Tests for the synchronous LOCAL simulator."""

import networkx as nx
import pytest

from repro.errors import RoundLimitExceeded, SimulationError
from repro.local import Context, Network, NodeAlgorithm, run_on_graph


class Collect(NodeAlgorithm):
    """Each node gathers neighbor ids via one broadcast round."""

    def initialize(self, node, ctx):
        node.broadcast(node.id)

    def step(self, node, inbox, round_no, ctx):
        node.state["output"] = sorted(msg.payload for msg in inbox)
        node.halt()


class CountDown(NodeAlgorithm):
    """Every node runs for exactly ctx.extras['rounds'] rounds."""

    def initialize(self, node, ctx):
        node.state["output"] = 0

    def step(self, node, inbox, round_no, ctx):
        node.state["output"] = round_no
        if round_no >= ctx.extras["rounds"]:
            node.halt()


class Forever(NodeAlgorithm):
    def step(self, node, inbox, round_no, ctx):
        pass


class PingChain(NodeAlgorithm):
    """A token travels along a path; node i halts when it sees the token.
    Verifies one-round-per-edge message latency."""

    def initialize(self, node, ctx):
        node.state["output"] = None
        if node.id == 0:
            node.state["output"] = 0
            if 1 in node.neighbors:
                node.send(1, "token")
            node.halt()

    def step(self, node, inbox, round_no, ctx):
        for msg in inbox:
            if msg.payload == "token":
                node.state["output"] = round_no
                nxt = node.id + 1
                if nxt in node.neighbors:
                    node.send(nxt, "token")
                node.halt()


class TestNetworkBasics:
    def test_nodes_and_degrees(self):
        net = Network(nx.star_graph(4))
        assert net.n == 5
        assert net.max_degree == 4
        assert net.nodes[0].degree == 4
        assert net.nodes[1].degree == 1

    def test_self_loops_rejected(self):
        graph = nx.Graph()
        graph.add_edge(1, 1)
        with pytest.raises(SimulationError):
            Network(graph)

    def test_empty_graph_runs_zero_rounds(self):
        result = run_on_graph(nx.Graph(), Collect())
        assert result.rounds == 0
        assert result.outputs == {}

    def test_collect_neighbors(self):
        graph = nx.cycle_graph(5)
        result = run_on_graph(graph, Collect())
        assert result.rounds == 1
        for v in graph.nodes():
            assert result.output_of(v) == sorted(graph.neighbors(v))

    def test_message_count(self):
        graph = nx.path_graph(4)  # degrees 1,2,2,1 -> 6 directed messages
        result = run_on_graph(graph, Collect())
        assert result.messages == 6

    def test_isolated_nodes_get_empty_inbox(self):
        graph = nx.Graph()
        graph.add_nodes_from([1, 2])
        result = run_on_graph(graph, Collect())
        assert result.output_of(1) == []


class TestRoundSemantics:
    def test_round_count_matches_schedule(self):
        graph = nx.cycle_graph(6)
        result = run_on_graph(graph, CountDown(), extras={"rounds": 7})
        assert result.rounds == 7

    def test_round_limit_enforced(self):
        with pytest.raises(RoundLimitExceeded) as err:
            run_on_graph(nx.path_graph(3), Forever(), max_rounds=10)
        assert err.value.limit == 10
        assert err.value.still_running == 3

    def test_one_round_per_hop(self):
        n = 6
        result = run_on_graph(nx.path_graph(n), PingChain())
        for v in range(1, n):
            assert result.output_of(v) == v  # token reaches node v at round v
        assert result.rounds == n - 1

    def test_rerun_resets_state(self):
        net = Network(nx.cycle_graph(4))
        first = net.run(CountDown(), net.make_context(rounds=3))
        second = net.run(CountDown(), net.make_context(rounds=5))
        assert first.rounds == 3
        assert second.rounds == 5


class TestNodeApi:
    def test_send_to_non_neighbor_rejected(self):
        class BadSend(NodeAlgorithm):
            def initialize(self, node, ctx):
                node.send("nope", 1)

        with pytest.raises(ValueError):
            run_on_graph(nx.path_graph(2), BadSend())

    def test_sends_leave_the_algorithm_state_alone(self):
        class SendEach(NodeAlgorithm):
            def initialize(self, node, ctx):
                for nbr in node.neighbors:
                    node.send(nbr, node.id)

            def step(self, node, inbox, round_no, ctx):
                node.state["output"] = sorted(msg.payload for msg in inbox)
                node.halt()

        net = Network(nx.star_graph(4))
        result = net.run(SendEach())
        assert result.output_of(0) == [1, 2, 3, 4]
        assert all(sorted(node.state) == ["output"] for node in net.nodes.values())

    def test_send_to_non_neighbor_rejected_after_a_send(self):
        class SendThenStray(NodeAlgorithm):
            def initialize(self, node, ctx):
                node.send(node.neighbors[0], 1)
                node.send("nope", 1)

        with pytest.raises(ValueError, match="^node 0 has no neighbor 'nope'$"):
            run_on_graph(nx.path_graph(2), SendThenStray())

    def test_send_to_self_rejected(self):
        class SendHome(NodeAlgorithm):
            def initialize(self, node, ctx):
                node.send(node.id, 1)

        with pytest.raises(ValueError, match="^node 0 has no neighbor 0$"):
            run_on_graph(nx.path_graph(2), SendHome())

    def test_neighbor_set_is_built_once(self):
        seen = []

        class SendTwice(NodeAlgorithm):
            def initialize(self, node, ctx):
                for nbr in node.neighbors:
                    node.send(nbr, 1)
                seen.append(node._nbrset)
                for nbr in node.neighbors:
                    node.send(nbr, 2)
                assert node._nbrset is seen[-1]

            def step(self, node, inbox, round_no, ctx):
                node.halt()

        net = Network(nx.star_graph(5))
        net.run(SendTwice())
        assert seen[0] == frozenset(range(1, 6))
        # a rerun keeps the set: a node's neighbors never change
        net.run(SendTwice())
        assert seen[len(net.nodes)] is seen[0]

    @pytest.mark.parametrize("name", ["linial", "basic-reduction", "blocked-reduction"])
    def test_library_runs_leave_no_neighbor_set_in_state(self, name):
        from repro.substrates.linial import LinialAlgorithm
        from repro.substrates.reduction import (
            BasicReductionAlgorithm,
            BlockedReductionAlgorithm,
        )

        graph = nx.petersen_graph()
        ids = {v: v for v in graph}
        algorithm, extras = {
            # ids from a 10^2 space: Linial has rounds to do
            "linial": (
                LinialAlgorithm(), {"initial_coloring": {v: 10 * v for v in graph}, "m0": 100}
            ),
            "basic-reduction": (
                BasicReductionAlgorithm(), {"coloring": ids, "m": 10, "target": 4}
            ),
            "blocked-reduction": (
                BlockedReductionAlgorithm(), {"coloring": ids, "block": 8, "palette": 4}
            ),
        }[name]
        net = Network(graph)
        result = net.run(algorithm, net.make_context(**extras))
        assert result.messages > 0
        for node in net.nodes.values():
            assert "_nbrset" not in node.state

    def test_context_node_input(self):
        ctx = Context(n=3, max_degree=1, extras={"color": {1: 9}})
        assert ctx.node_input(1, "color") == 9
        assert ctx.node_input(2, "color") is None
        assert ctx.node_input(2, "missing", default=-1) == -1

    def test_halted_nodes_final_messages_delivered(self):
        class AnnounceAndDie(NodeAlgorithm):
            def initialize(self, node, ctx):
                node.broadcast(node.id)
                node.halt()

        # Nodes halt during initialize, yet broadcasts must still arrive —
        # verified by the fact that the run ends with zero rounds but
        # messages counted.
        result = run_on_graph(nx.path_graph(3), AnnounceAndDie())
        assert result.rounds == 0
        assert result.messages == 4
