"""Tests for the Section 3 / Corollary 5.5 parameter selection."""

import pytest

from repro.errors import InvalidParameterError
from repro.core import (
    cd_palette_bound,
    cd_target_colors,
    choose_section5_params,
    choose_t_clique,
    choose_t_star,
    clique_sizes_per_level,
    star_palette_bound,
    star_target_colors,
)


class TestChooseT:
    @pytest.mark.parametrize(
        "s,x,expected", [(16, 1, 4), (64, 1, 8), (64, 2, 4), (1000, 2, 10), (5, 3, 2)]
    )
    def test_clique_values(self, s, x, expected):
        assert choose_t_clique(s, x) == expected

    def test_clamped_to_two(self):
        assert choose_t_clique(2, 5) == 2
        assert choose_t_star(2, 5) == 2

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            choose_t_clique(10, 0)
        with pytest.raises(InvalidParameterError):
            choose_t_star(0, 1)


class TestLevelSizes:
    def test_shrinks_by_factor_t(self):
        sizes = clique_sizes_per_level(81, 3, 4)
        assert sizes == [81, 27, 9, 3, 1]

    def test_ceiling_behavior(self):
        sizes = clique_sizes_per_level(10, 3, 2)
        assert sizes == [10, 4, 2]

    def test_length(self):
        assert len(clique_sizes_per_level(100, 2, 5)) == 6


class TestBounds:
    def test_cd_target_matches_paper_rows(self):
        # Table 2 rows: D^2 S, D^3 S, D^4 S
        assert cd_target_colors(2, 10, 1) == 40
        assert cd_target_colors(2, 10, 2) == 80
        assert cd_target_colors(3, 7, 3) == 567

    def test_star_target_matches_paper_rows(self):
        # Table 1 rows: 4 Delta, 8 Delta, 16 Delta
        assert star_target_colors(10, 1) == 40
        assert star_target_colors(10, 2) == 80
        assert star_target_colors(10, 3) == 160

    def test_cd_palette_bound_close_to_target_for_good_t(self):
        # with t = S^(1/(x+1)), the exact product stays within the headline
        # D^(x+1) S bound up to the paper's additive slack
        for s in (16, 64, 144):
            for x in (1, 2):
                t = choose_t_clique(s, x)
                bound = cd_palette_bound(2, s, t, x)
                assert bound <= 2 * cd_target_colors(2, s, x)

    def test_star_palette_bound_close_to_target(self):
        for delta in (16, 64, 100):
            for x in (1, 2):
                assert star_palette_bound(delta, x) <= 2 * star_target_colors(delta, x)


class TestSection5Params:
    def test_returns_valid_params(self):
        for delta in (4, 16, 64, 1024):
            for a in (1, 2, 8):
                params = choose_section5_params(delta, a)
                assert params.x >= 1
                assert params.q > 2

    def test_depth_grows_with_gap(self):
        shallow = choose_section5_params(8, 4)
        deep = choose_section5_params(2**20, 4)
        assert deep.x >= shallow.x

    def test_x_clamped_for_tiny_delta(self):
        params = choose_section5_params(2, 1)
        assert params.x == 1

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            choose_section5_params(0, 1)
        with pytest.raises(InvalidParameterError):
            choose_section5_params(4, 0)

    def test_params_dataclass_validation(self):
        from repro.core import Section5Params

        with pytest.raises(InvalidParameterError):
            Section5Params(x=0, q=3.0)
        with pytest.raises(InvalidParameterError):
            Section5Params(x=1, q=2.0)
