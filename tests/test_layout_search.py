"""Automatic board design: scoring, relocation, budgeted search."""

import pytest

from lscompile import layout_search
from lscompile.board import Board, builtin_layout, format_layout
from lscompile.layout_search import (
    LayoutDesignError,
    auto_design,
    design_layout,
    layout_score,
    relocate_pass,
    standard_tile_budget,
)

import copy_flood_reference as ref


def score_example_board():
    """One patch whose Z edge (west) and X edge (south) both touch the
    working region, giving two exposed boundary edges in total."""
    b = Board(2, 3)
    b.place_ancilla((0, 0), "h")
    b.set_port((1, 2))
    b.init_patch(0, (0, 2), "h")
    return b


class TestScore:
    def test_worked_example(self):
        # one X edge + one Z edge - 0.2 * two exposed edges = 1.6
        assert layout_score(score_example_board()) == pytest.approx(1.6)

    def test_alpha_weighting(self):
        b = score_example_board()
        assert layout_score(b, alpha_e=0.0) == pytest.approx(2.0)
        assert layout_score(b, alpha_e=0.5) == pytest.approx(1.0)

    def test_ancilla_only_board_scores_zero(self):
        b = Board(2, 2)
        b.place_ancilla((0, 0), "h")
        b.set_port((1, 1))
        assert layout_score(b) == 0.0

    def test_split_routing_scores_zero(self):
        b = Board(3, 3)
        b.place_ancilla((0, 1), "h")
        b.init_patch(0, (1, 0), "h")
        b.init_patch(1, (1, 1), "h")
        b.init_patch(2, (1, 2), "h")
        b.set_port((2, 0))
        assert layout_score(b) == 0.0

    def test_builtin_standard_scores_positive(self):
        assert layout_score(builtin_layout("standard", 6)) > 0.0


class TestDesign:
    def test_design_basic_feasibility(self):
        b = design_layout(8, rows=5, cols=5)
        assert len(b.patches) == 8
        assert b.ancilla is not None and b.port is not None
        assert b.a_component() is not None
        assert (b.rows, b.cols) == (5, 5)

    def test_design_deterministic(self):
        a = design_layout(6, rows=5, cols=5)
        b = design_layout(6, rows=5, cols=5)
        assert format_layout(a) == format_layout(b)

    def test_design_rejects_impossible_budget(self):
        with pytest.raises(LayoutDesignError):
            design_layout(10, rows=2, cols=2)

    def test_relocate_never_worsens(self):
        b = design_layout(6, rows=6, cols=6)
        before = layout_score(b)
        after = layout_score(relocate_pass(b))
        assert after >= before


class TestBudget:
    def test_standard_budget_value(self):
        # standard 6-qubit board is 5x5; 85% of 25 tiles rounds down to 21
        assert builtin_layout("standard", 6).tile_count() == 25
        assert standard_tile_budget(6) == 21

    def test_auto_design_fits_budget(self):
        b = auto_design(6)
        assert b.tile_count() <= standard_tile_budget(6)
        assert b.a_component() is not None
        assert len(b.patches) == 6

    def test_auto_design_respects_explicit_cap(self):
        b6 = auto_design(4, max_tiles=18)
        assert b6.tile_count() <= 18

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_auto_design_scales(self, n):
        b = auto_design(n)
        assert len(b.patches) == n
        assert b.tile_count() <= standard_tile_budget(n)
        assert b.a_component() is not None


def _designed(design, n, rows, cols):
    """format_layout of the design, or the LayoutDesignError message."""
    try:
        return format_layout(design(n, rows, cols))
    except LayoutDesignError as e:
        return f"LayoutDesignError: {e}"


GRIDS = [(r, c) for r in range(2, 9) for c in range(r, 10)]


class TestMatchesCopyAndFlood:
    """Delta-scored layout search gives the boards, and the errors, of
    the copy-and-flood search in `copy_flood_reference`."""

    @pytest.mark.parametrize("rows,cols", GRIDS)
    def test_design_on_every_grid(self, rows, cols):
        # one patch count per grid, spread over 1-10
        n = 1 + (5 * rows + 7 * cols) % 10
        assert _designed(design_layout, n, rows, cols) == _designed(
            ref.design_layout, n, rows, cols)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_auto_design(self, n, monkeypatch):
        ours = format_layout(auto_design(n))
        monkeypatch.setattr(layout_search, "design_layout", ref.design_layout)
        assert ours == format_layout(auto_design(n))

    @pytest.mark.slow
    def test_design_full_sweep(self):
        # 840 cases, about 90 s on a 2-core VM
        for rows, cols in GRIDS:
            for n in range(1, 25):
                assert _designed(design_layout, n, rows, cols) == _designed(
                    ref.design_layout, n, rows, cols), (n, rows, cols)

    @pytest.mark.slow
    def test_auto_design_full_sweep(self, monkeypatch):
        ours = [format_layout(auto_design(n)) for n in range(1, 25)]
        monkeypatch.setattr(layout_search, "design_layout", ref.design_layout)
        assert ours == [format_layout(auto_design(n)) for n in range(1, 25)]

    def test_designs_check_their_final_score(self, monkeypatch):
        # a delta that drifted from the full score is caught, not shipped
        monkeypatch.setattr(layout_search, "_access_score",
                            lambda acc, alpha_e: acc.nx + acc.nz)
        with pytest.raises(AssertionError, match="drifted"):
            design_layout(3, 3, 3)
