"""Automatic patch layout design.

Greedy placement driven by a connectivity-times-access score: a board
earns a point for every patch whose X-edges touch the connected routing
component and one for every patch whose Z-edges do, minus a density
penalty per exposed boundary edge, all gated by strict connectivity.
After each placement a relocation sweep lets earlier patches take
one-step moves that strictly improve the score; patches are placed "h",
as a rotation (swapping X and Z counts) changes no score.  A candidate
is one tile away, scored from one delta of the board's kept access
(`Board.delta`) while its bound (`Board.bound`) can win, and applied
with it (`Board.place`); `layout_score` is the full reference.
"""

from __future__ import annotations

import math

from .board import Board, ORIENT_H, Patch, best_first, builtin_layout

# design time grows about linearly with the tile count: on a 2-core VM a
# 64x64 grid takes about 0.1 s for four patches and 0.2 s for eight
MAX_DESIGN_TILES = 4096

ALPHA_E = 0.2   # default weight of the density penalty in the layout score


class LayoutDesignError(RuntimeError):
    pass


def layout_score(board: Board, alpha_e: float = ALPHA_E) -> float:
    """Access score gated by connectivity; disconnected boards score 0."""
    acc = board.access()
    if acc.comp is None:
        return 0.0
    return _access_score(acc.nx, acc.nz, acc.density, alpha_e)


def _best(board: Board, qid: int, tiles, floor: float | None,
          alpha_e: float):
    """(key, tile) of the best tile for patch qid scoring above floor
    (any score if floor is None) with the port in the component, or None:
    higher scores first, then denser boards, then row-major tiles; +inf
    raises ValueError.  A bound (`best_first`) adds to nx + nz what the
    gainers (`Board.bound`) can: qid what it lacks, others 1 if lacking
    X or Z (one edge faces the freed tile)."""
    acc = board.access()
    old = acc.counts.get(qid, (0, 0))
    lift = acc.nx + acc.nz + 2 - (old[0] > 0) - (old[1] > 0)
    ranked = []
    for tile in tiles:
        bound = board.bound(qid, tile)   # None: unbounded, scored first
        score = math.inf if bound is None else _access_score(
            lift + sum(not all(acc.counts[g][:2]) for g in bound[1] - {qid}),
            0, bound[0], alpha_e)
        if floor is None or score > floor:
            ranked.append(((-score, bound[0] if bound else 0, tile), tile))

    def exact(_, tile):
        delta = board.delta(qid, tile)
        if delta is None or not delta.port:
            return None
        nx, nz, density = delta.totals(ORIENT_H)
        score = _access_score(nx, nz, density, alpha_e)
        if score == math.inf:   # only a negative weight gets here
            raise ValueError(f"alpha_e = {alpha_e} overflows the "
                             f"layout score to +inf")
        if floor is None or score > floor:
            return -score, density, tile
        return None

    return best_first(ranked, exact)


def _access_score(nx: int, nz: int, density: int, alpha_e: float) -> float:
    """layout_score of a connected board, read off its access totals."""
    return nx + nz - alpha_e * density


def _relocate(board: Board, current: float, alpha_e: float) -> float:
    """One sweep of strict-improvement one-step moves, orientation kept,
    starting from `current`, the board's score; returns the final score."""
    for qid in sorted(board.patches):
        best = _best(board, qid, board.steps(qid), current, alpha_e)
        if best is not None:
            board.place(qid, best[1], board.patches[qid].orient)
            current = -best[0][0]
    return current


def design_layout(n: int, rows: int, cols: int, alpha_e: float = ALPHA_E) -> Board:
    """Place an ancilla, a magic port, and n patches on a fresh grid.

    The ancilla anchors the top-left corner and the port the bottom-right
    tile, which must stay inside the connected routing component.  Each
    patch goes, in "h", to the in-component tile maximizing the layout
    score, ties broken toward denser boards then row-major order.  Errors
    name the grid as `--board WxH` does.
    """
    if not math.isfinite(alpha_e):
        raise ValueError(f"alpha_e must be finite, got {alpha_e}")
    if rows < 2 or cols < 2:
        raise LayoutDesignError(
            f"a {cols}x{rows} board is too small to design on")
    if rows * cols > MAX_DESIGN_TILES:
        raise LayoutDesignError(f"a {cols}x{rows} board is over the "
                                f"{MAX_DESIGN_TILES}-tile design limit")
    board = Board(rows, cols, Patch((0, 0), ORIENT_H), (rows - 1, cols - 1),
                  {})

    score = 0.0
    for qid in range(n):
        tiles = [t for t in board.a_component() if t != board.port]
        # any placement keeping the port connected will do, however low
        # its score: alpha_e >= 1 keeps every score at or below zero, and
        # alpha_e * density may overflow to a score of -inf
        best = _best(board, qid, tiles, None, alpha_e)
        if best is None:
            raise LayoutDesignError(
                f"no legal position for patch {qid} on {cols}x{rows}")
        board.place(qid, best[1], ORIENT_H)
        score = _relocate(board, -best[0][0], alpha_e)
    # scored afresh: the board's own access was carried through the deltas
    fresh = Board(rows, cols, board.ancilla, board.port, board.patches)
    if score != layout_score(fresh, alpha_e):
        raise AssertionError("delta scores drifted from the full score")
    return board


def standard_tile_budget(n: int) -> int:
    """85% of the tiles of the standard board for n qubits."""
    return int(builtin_layout("standard", n).tile_count() * 0.85)


def auto_design(n: int, max_tiles: int | None = None, alpha_e: float = ALPHA_E
                ) -> Board:
    """Design on the largest feasible grid within a tile budget, itself
    at most MAX_DESIGN_TILES.

    Candidate grids are ordered by area (largest first) and squareness;
    the first one the greedy designer can fill wins.
    """
    if max_tiles is None:
        max_tiles = standard_tile_budget(n)
    budget = min(max_tiles, MAX_DESIGN_TILES)
    dims = [(r, c) for r in range(2, budget + 1)
            for c in range(r, budget // r + 1) if r * c >= n + 2]
    dims.sort(key=lambda rc: (-(rc[0] * rc[1]), rc[1] - rc[0], rc[0]))
    reason = ""   # why the largest grid failed
    for r, c in dims:
        try:
            return design_layout(n, r, c, alpha_e)
        except LayoutDesignError as e:
            reason = reason or f": {e}"
    raise LayoutDesignError(
        f"no grid within {budget} tiles fits {n} patches{reason}")
