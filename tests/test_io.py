"""Tests for the graphviz DOT writer."""


class TestColoredDot:
    def test_edge_colored_dot(self, tmp_path):
        import networkx as nx

        from repro.io import write_colored_dot

        g = nx.cycle_graph(4)
        coloring = {(0, 1): 0, (1, 2): 1, (2, 3): 0, (0, 3): 1}
        path = tmp_path / "g.dot"
        write_colored_dot(g, path, edge_coloring=coloring)
        text = path.read_text()
        assert text.startswith("graph")
        assert text.count("--") == 4
        assert "color=red" in text and "color=blue" in text

    def test_vertex_colored_dot(self, tmp_path):
        import networkx as nx

        from repro.io import write_colored_dot

        g = nx.path_graph(3)
        path = tmp_path / "g.dot"
        write_colored_dot(g, path, vertex_coloring={0: 0, 1: 1, 2: 0})
        text = path.read_text()
        assert "fillcolor=red" in text
        assert "fillcolor=blue" in text

    def test_palette_recycles_beyond_twelve(self, tmp_path):
        import networkx as nx

        from repro.io import write_colored_dot

        g = nx.star_graph(14)
        coloring = {tuple(sorted((0, i))): i - 1 for i in range(1, 15)}
        path = tmp_path / "g.dot"
        write_colored_dot(g, path, edge_coloring=coloring)
        text = path.read_text()
        assert 'label="13"' in text  # numeric labels disambiguate recycling

    def test_plain_dot_without_colorings(self, tmp_path):
        import networkx as nx

        from repro.io import write_colored_dot

        g = nx.path_graph(2)
        path = tmp_path / "g.dot"
        write_colored_dot(g, path)
        assert "[" not in path.read_text()
