"""Automatic board design: scoring, relocation, budgeted search."""

import math
import time

import numpy as np
import pytest

from lscompile import layout_search
from lscompile.board import Board, Delta, builtin_layout, format_layout
from lscompile.layout_search import (
    ALPHA_E,
    LayoutDesignError,
    _relocate,
    auto_design,
    design_layout,
    layout_score,
    standard_tile_budget,
)
from lscompile.pipeline import make_board

import copy_flood_reference as ref


def score_example_board():
    """One patch whose Z edge (west) and X edge (south) both touch the
    working region, giving two exposed boundary edges in total."""
    return Board(2, 3, ((0, 0), "h"), (1, 2), {0: ((0, 2), "h")})


class TestScore:
    def test_worked_example(self):
        # one X edge + one Z edge - 0.2 * two exposed edges = 1.6
        assert layout_score(score_example_board()) == pytest.approx(1.6)

    def test_alpha_weighting(self):
        b = score_example_board()
        assert layout_score(b, alpha_e=0.0) == pytest.approx(2.0)
        assert layout_score(b, alpha_e=0.5) == pytest.approx(1.0)

    def test_ancilla_only_board_scores_zero(self):
        b = Board(2, 2, ((0, 0), "h"), (1, 1), {})
        assert layout_score(b) == 0.0

    def test_split_routing_scores_zero(self):
        b = Board(3, 3, ((0, 1), "h"), (2, 0), {
            0: ((1, 0), "h"), 1: ((1, 1), "h"), 2: ((1, 2), "h")})
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
        _relocate(b, before, ALPHA_E)
        after = layout_score(b)
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

    @pytest.mark.parametrize("max_tiles", [0, 4])
    def test_auto_design_with_no_grid_in_budget_names_only_the_budget(
            self, max_tiles):
        with pytest.raises(LayoutDesignError) as err:
            auto_design(3, max_tiles=max_tiles)
        assert str(err.value) == \
            f"no grid within {max_tiles} tiles fits 3 patches"

    def test_auto_design_names_the_last_design_error(self):
        # 6 tiles admit only the 2x3 grid, where 3 patches do not fit
        with pytest.raises(LayoutDesignError, match=
                           "^no grid within 6 tiles fits 3 patches: .+"):
            auto_design(3, max_tiles=6)

    def test_auto_design_names_why_the_largest_grid_failed(self):
        # 9 tiles admit the 3x3, 2x4 and 2x3 grids, tried in that order
        with pytest.raises(LayoutDesignError) as largest:
            design_layout(4, 3, 3)
        with pytest.raises(LayoutDesignError) as err:
            auto_design(4, max_tiles=9)
        assert str(err.value) == \
            f"no grid within 9 tiles fits 4 patches: {largest.value}"

    @pytest.mark.parametrize("alpha_e", [1.0, 1.5])
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_auto_design_at_a_heavy_density_weight(self, n, alpha_e):
        """A placement is refused only when it disconnects the board, so
        a density weight that keeps every score at or below zero still
        designs."""
        b = make_board("auto", n, alpha_e)
        assert len(b.patches) == n
        assert b.tile_count() <= standard_tile_budget(n)
        assert b.a_component() is not None and b.port in b.a_component()

    @pytest.mark.parametrize("spec,n", [("4x4", 3), ("auto", 2),
                                        ("auto", 8)])
    def test_an_overflowing_density_weight_still_designs(self, spec, n):
        """At alpha_e = 1e308, alpha_e * density overflows and every
        placement scores -inf; a placement is still refused only when it
        disconnects the board.  At 1e307 the density term already drowns
        the access points, and the design is the same."""
        b = make_board(spec, n, 1e308)
        assert layout_score(b, 1e308) == -math.inf
        assert b.a_component() is not None and b.port in b.a_component()
        assert format_layout(b) == format_layout(make_board(spec, n, 1e307))

    def test_an_overflowing_negative_density_weight_is_refused(self):
        """At alpha_e = -1e308 every placement scores +inf, which would
        rank boards by density alone; at -1e307 the scores stay finite
        and the denser-is-better design stands."""
        with pytest.raises(ValueError, match="alpha_e"):
            make_board("4x4", 3, -1e308)
        rows = format_layout(make_board("4x4", 3, -1e307)).splitlines()
        assert rows[:3] == ["Ah . . Q2h", ". Q0h . .", ". . Q1h ."]

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

    @pytest.mark.parametrize("rows,cols", [(2, 5), (3, 4), (4, 7), (5, 5)])
    def test_design_at_a_heavy_density_weight(self, rows, cols):
        n = rows * cols // 3
        assert format_layout(design_layout(n, rows, cols, 1.5)) == \
            format_layout(ref.design_layout(n, rows, cols, 1.5))

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
        # a delta whose density drifted from the full count is caught,
        # not shipped
        real = Delta.totals

        def drifted(delta, orient):
            nx, nz, density = real(delta, orient)
            return nx, nz, density + 1

        monkeypatch.setattr(Delta, "totals", drifted)
        with pytest.raises(AssertionError, match="drifted"):
            design_layout(3, 3, 3)

    def test_a_drift_in_the_carried_access_is_caught(self, monkeypatch):
        # the carried access takes its totals from the same delta, so the
        # final score is read off a board built afresh
        real = Delta.totals

        def drifted(delta, orient):
            nx, nz, density = real(delta, orient)
            return nx + 1, nz, density

        monkeypatch.setattr(Delta, "totals", drifted)
        with pytest.raises(AssertionError, match="drifted"):
            design_layout(3, 3, 3)


class TestDesignCost:
    """Every candidate is scored and applied through one-tile deltas of
    the kept access: designing copies no board."""

    def test_designs_make_no_board_copy(self, monkeypatch):
        copies = []
        real_copy = Board.copy
        monkeypatch.setattr(Board, "copy",
                            lambda b: copies.append(b) or real_copy(b))
        for n in range(2, 12):
            auto_design(n)
        design_layout(4, 48, 48)
        assert copies == []

    # against the Board.delta calls of scoring every candidate: a delta
    # is computed only while the candidate's bound (Board.bound) can win
    @pytest.mark.parametrize("design,scored_all", [
        (lambda: [auto_design(n) for n in range(2, 12)], 2365),
        (lambda: design_layout(8, 64, 64), 32843),
    ], ids=["auto_2_11", "grid_64"])
    def test_designs_skip_deltas_that_cannot_win(self, design, scored_all,
                                                  monkeypatch):
        calls = []
        real_delta = Board.delta
        monkeypatch.setattr(Board, "delta",
                            lambda b, *a: calls.append(a) or real_delta(b, *a))
        design()
        assert 0 < len(calls) <= scored_all // 2

    @pytest.mark.slow
    def test_design_scales_near_linearly(self):
        """design_layout(4, k, k) for k = 32, 48, 64 fits a log-log slope
        of at most 1.4 in the tile count (copying the component per
        candidate gave about 2)."""
        tiles, times = [], []
        for k in (32, 48, 64):
            best = math.inf
            for _ in range(3):
                t0 = time.perf_counter()
                design_layout(4, k, k)
                best = min(best, time.perf_counter() - t0)
            tiles.append(k * k)
            times.append(best)
        slope = np.polyfit(np.log(tiles), np.log(times), 1)[0]
        assert slope <= 1.4, times
