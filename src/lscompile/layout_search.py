"""Automatic patch layout design.

Greedy placement driven by a connectivity-times-access score: a board
earns a point for every patch whose X-edges touch the connected routing
component and one for every patch whose Z-edges do, minus a density
penalty per exposed boundary edge, all gated by strict connectivity.
After each placement a relocation sweep lets earlier patches take
one-step moves or reorientations that strictly improve the score.
"""

from __future__ import annotations

from .board import Board, ORIENT_H, ORIENT_V, builtin_layout


class LayoutDesignError(RuntimeError):
    pass


def layout_score(board: Board, alpha_e: float = 0.2) -> float:
    """Access score gated by connectivity; disconnected boards score 0."""
    if board.a_component() is None:
        return 0.0
    nx = sum(board.reaches(q, "X") for q in board.patches)
    nz = sum(board.reaches(q, "Z") for q in board.patches)
    return nx + nz - alpha_e * _density(board)


def _density(board: Board) -> int:
    """Exposed boundary edges: every patch's routing touch tiles."""
    return sum(len(board.touch_tiles(q)) for q in board.patches)


def relocate_pass(board: Board, alpha_e: float = 0.2) -> Board:
    """One sweep of strict-improvement one-step moves and reorientations."""
    current = layout_score(board, alpha_e)
    for qid in sorted(board.patches):
        patch = board.patches[qid]
        base_tile, base_orient = patch.tile, patch.orient
        options = []
        for orient in (ORIENT_H, ORIENT_V):
            if orient != base_orient:
                options.append((base_tile, orient))
        for nb in board.neighbors(base_tile):
            if board.is_routing(nb) and nb != board.port:
                for orient in (ORIENT_H, ORIENT_V):
                    options.append((nb, orient))
        best = None
        best_key = None
        for tile, orient in options:
            trial = board.copy()
            trial.remove_patch(qid)
            try:
                trial.init_patch(qid, tile, orient)
            except Exception:
                continue
            comp = trial.a_component()
            if comp is None or trial.port not in comp:
                continue
            score = layout_score(trial, alpha_e)
            if score <= current:
                continue
            key = (-score, _density(trial), tile, 0 if orient == ORIENT_H else 1)
            if best_key is None or key < best_key:
                best = (tile, orient)
                best_key = key
        if best is not None:
            board.remove_patch(qid)
            board.init_patch(qid, best[0], best[1])
            current = layout_score(board, alpha_e)
    return board


def design_layout(n: int, rows: int, cols: int, alpha_e: float = 0.2) -> Board:
    """Place an ancilla, a magic port, and n patches on a fresh grid.

    The ancilla anchors the top-left corner and the port the bottom-right
    tile, which must stay inside the connected routing component.  Each
    patch goes to the in-component tile and orientation maximizing the
    layout score, ties broken toward denser boards then row-major order
    with "h" first.
    """
    if rows < 2 or cols < 2:
        raise LayoutDesignError("board too small to design on")
    board = Board(rows, cols)
    board.place_ancilla((0, 0), ORIENT_H)
    board.set_port((rows - 1, cols - 1))

    for qid in range(n):
        best = None
        best_key = None
        for tile in sorted(board.a_component()):
            if tile == board.port:
                continue
            for orient in (ORIENT_H, ORIENT_V):
                trial = board.copy()
                try:
                    trial.init_patch(qid, tile, orient)
                except Exception:
                    continue
                comp = trial.a_component()
                if comp is None or trial.port not in comp:
                    continue
                score = layout_score(trial, alpha_e)
                if score <= 0:
                    continue
                key = (-score, _density(trial), tile,
                       0 if orient == ORIENT_H else 1)
                if best_key is None or key < best_key:
                    best = (tile, orient)
                    best_key = key
        if best is None:
            raise LayoutDesignError(
                f"no legal position for patch {qid} on {rows}x{cols}")
        board.init_patch(qid, best[0], best[1])
        relocate_pass(board, alpha_e)
    return board


def standard_tile_budget(n: int, fraction: float = 0.85) -> int:
    ref = builtin_layout("standard", n)
    return int(ref.tile_count() * fraction)


def auto_design(n: int, max_tiles: int | None = None, alpha_e: float = 0.2
                ) -> Board:
    """Design on the largest feasible grid within a tile budget.

    Candidate grids are ordered by area (largest first) and squareness;
    the first one the greedy designer can fill wins.
    """
    if max_tiles is None:
        max_tiles = standard_tile_budget(n)
    dims = []
    for r in range(2, max_tiles + 1):
        for c in range(r, max_tiles + 1):
            if r * c <= max_tiles and r * c >= n + 2:
                dims.append((r, c))
    dims.sort(key=lambda rc: (-(rc[0] * rc[1]), rc[1] - rc[0], rc[0]))
    last_err = None
    for r, c in dims:
        try:
            return design_layout(n, r, c, alpha_e)
        except LayoutDesignError as e:
            last_err = e
    raise LayoutDesignError(
        f"no grid within {max_tiles} tiles fits {n} patches: {last_err}")
