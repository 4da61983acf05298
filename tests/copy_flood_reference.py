"""Layout search and action picking as they were before one-tile deltas.

Every candidate is scored on a copy of the board, changed and flooded
afresh: no kept access is read.  The tests hold `design_layout`,
`relocate_pass` and `scheduler._pick_action` equal to these.
"""

from lscompile.board import (
    Board,
    IllegalOpError,
    OP_COSTS,
    ORIENT_H,
    ORIENT_V,
)
from lscompile.layout_search import LayoutDesignError, _density, layout_score
from lscompile.scheduler import _REQUIRED, _candidate_actions


def enabled_count(board, qmap, op):
    if board.a_component() is None:
        return -1
    return sum(all(board.reaches(qmap[q], t)
                   for t in _REQUIRED[op.word.letter(q)])
               for q in op.word.support())


def relocate_pass(board, alpha_e=0.2):
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
            key = (-score, _density(trial), tile,
                   0 if orient == ORIENT_H else 1)
            if best_key is None or key < best_key:
                best = (tile, orient)
                best_key = key
        if best is not None:
            board.remove_patch(qid)
            board.init_patch(qid, best[0], best[1])
            current = layout_score(board, alpha_e)
    return board


def design_layout(n, rows, cols, alpha_e=0.2):
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


def pick_action(board, qmap, op):
    base = enabled_count(board, qmap, op)
    best = None
    best_key = None
    for kind, pid, arg in _candidate_actions(board, qmap, op):
        trial = board.copy()
        try:
            if kind == "move":
                trial.move_patch(pid, arg)
            else:
                trial.rotate_patch(pid, arg)
        except IllegalOpError:
            continue
        comp = trial.a_component()
        if comp is None:
            continue
        if op.is_eighth() and trial.port not in comp:
            continue
        reward = enabled_count(trial, qmap, op)
        if reward <= base:
            continue
        key = (-reward, OP_COSTS[kind], pid)
        if best_key is None or key < best_key:
            best = (kind, pid, arg)
            best_key = key
    return best
