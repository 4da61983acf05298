"""Automatic patch layout design.

Greedy placement driven by a connectivity-times-access score: a board
earns a point for every patch whose X-edges touch the connected routing
component and one for every patch whose Z-edges do, minus a density
penalty per exposed boundary edge, all gated by strict connectivity.
After each placement a relocation sweep lets earlier patches take
one-step moves or reorientations that strictly improve the score.
Every candidate differs from the board by one tile, so it is scored
from a one-tile delta of the board's kept access (`Board.access_with`)
rather than from a copy of the board and a fresh flood; `layout_score`
is the full reference.
"""

from __future__ import annotations

from .board import Access, Board, ORIENT_H, ORIENT_V, builtin_layout, flipped


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


def _best(board: Board, qid: int, options, floor: float, alpha_e: float):
    """(key, tile, orient) of the best option for patch qid scoring above
    floor with the port in the component, or None.  The key ranks higher
    scores first, then denser boards, then row-major tiles, "h" first."""
    best = None
    for tile, orient in options:
        acc = board.access_with(qid, tile, orient)
        if acc.comp is None or board.port not in acc.comp:
            continue
        score = _access_score(acc, alpha_e)
        if score <= floor:
            continue
        key = (-score, acc.density, tile, 0 if orient == ORIENT_H else 1)
        if best is None or key < best[0]:
            best = (key, tile, orient)
    return best


def _access_score(acc: Access, alpha_e: float) -> float:
    """layout_score of a connected board, read off its access."""
    return acc.nx + acc.nz - alpha_e * acc.density


def relocate_pass(board: Board, alpha_e: float = 0.2) -> Board:
    """One sweep of strict-improvement one-step moves and reorientations."""
    _relocate(board, layout_score(board, alpha_e), alpha_e)
    return board


def _relocate(board: Board, current: float, alpha_e: float) -> float:
    """relocate_pass from the board's score; returns the final score."""
    for qid in sorted(board.patches):
        patch = board.patches[qid]
        options = [(patch.tile, flipped(patch.orient))]
        for nb in board.neighbors(patch.tile):
            if board.is_routing(nb) and nb != board.port:
                options += [(nb, ORIENT_H), (nb, ORIENT_V)]
        best = _best(board, qid, options, current, alpha_e)
        if best is not None:
            board.remove_patch(qid)
            board.init_patch(qid, best[1], best[2])
            current = -best[0][0]
    return current


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

    score = 0.0
    for qid in range(n):
        options = [(tile, orient) for tile in sorted(board.a_component())
                   if tile != board.port for orient in (ORIENT_H, ORIENT_V)]
        best = _best(board, qid, options, 0.0, alpha_e)
        if best is None:
            raise LayoutDesignError(
                f"no legal position for patch {qid} on {rows}x{cols}")
        board.init_patch(qid, best[1], best[2])
        score = _relocate(board, -best[0][0], alpha_e)
    if score != layout_score(board, alpha_e):
        raise AssertionError("delta scores drifted from the full score")
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
