"""A brute-force schedule optimum for tiny boards.

An exhaustive branch-and-bound search over schedules, used to measure the
optimality gap of the loose scheduler.  It routes each bus with the
scheduler's router, but works out each measurement's footprint itself:
the bus, the operator's patch tiles and the ancilla tile.
"""

from lscompile.board import Board, OP_COSTS
from lscompile.pdag import build_pdag
from lscompile.scheduler import (
    DeadlockError,
    ScheduleError,
    _try_bus,
    required_edges,
    schedule_loose,
)
from lscompile.transpiler import PbcProgram


def brute_force_optimum(program: PbcProgram, board: Board,
                        qmap: dict | None = None) -> int:
    """Minimum clock count over exhaustively searched schedules.

    Search space: at each slice, start any dependency-ready operator
    whose canonical bus tiles are free, or any legal patch
    move/rotation, or advance time.  Buses come from the loose
    scheduler's router, so the result is the optimum over canonical-bus
    schedules of a program `scheduled_program` made for loose.
    """
    if qmap is None:
        qmap = {q: q for q in range(program.n)}
    dag = build_pdag(program)
    preds = {nid: frozenset(node.preds) for nid, node in dag.nodes.items()}
    num_ops = len(program.ops)

    try:
        incumbent = schedule_loose(program, board, qmap).total_clocks
    except (DeadlockError, ScheduleError):
        incumbent = num_ops * (max(OP_COSTS.values()) + 1) * board.tile_count()
    best = [incumbent]

    seen: dict = {}

    def rel_key(t, busy, op_end, b):
        busy_rel = tuple(sorted((tile, e - t) for tile, e in busy.items()
                                if e >= t))
        ops_rel = tuple(sorted((i, e - t) for i, e in op_end.items()
                               if e >= t))
        done = frozenset(i for i, e in op_end.items() if e < t)
        return (b.key(), busy_rel, ops_rel, done)

    def lower_bound(t, op_end):
        remaining = num_ops - len(op_end)
        return t - 1 + remaining

    def dfs(t, busy, op_end, b, makespan):
        if len(op_end) == num_ops:
            best[0] = min(best[0], makespan)
            return
        if lower_bound(t, op_end) >= best[0]:
            return
        key = rel_key(t, busy, op_end, b)
        slack = makespan - t
        bucket = seen.setdefault(key, [])
        if any(pt <= t and ps <= slack for pt, ps in bucket):
            return
        bucket.append((t, slack))

        def free(tiles):
            return all(busy.get(tile, 0) < t for tile in tiles)

        # start a ready measurement
        for i in range(num_ops):
            if i in op_end:
                continue
            if any(p not in op_end or op_end[p] >= t for p in preds[i]):
                continue
            op = program.ops[i]
            bus = _try_bus(b, required_edges(op, qmap), op)
            if bus is None:
                continue
            tiles = set(bus) | {b.ancilla.tile} | {
                b.patches[qmap[q]].tile for q in op.word.support()}
            if not free(tiles):
                continue
            nb_busy = dict(busy)
            for tile in tiles:
                nb_busy[tile] = t
            nb_end = dict(op_end)
            nb_end[i] = t
            dfs(t, nb_busy, nb_end, b, max(makespan, t))

        # start a patch move or rotation
        for pid in sorted(b.patches):
            home = b.patches[pid].tile
            if not free([home]):
                continue
            helpers = [h for h in b.neighbors(home) if b.is_routing(h)]
            for kind, arg in ([("move", d) for d in b.steps(pid)]
                              + [("rotate", h) for h in helpers]):
                if not free([arg]):
                    continue
                nb = b.copy()
                step = nb.move_patch if kind == "move" else nb.rotate_patch
                fp = step(pid, arg)
                end = t + OP_COSTS[kind] - 1
                nb_busy = dict(busy)
                for tile in fp:
                    nb_busy[tile] = end
                dfs(t, nb_busy, dict(op_end), nb, max(makespan, end))

        # advance time
        dfs(t + 1, busy, op_end, b, makespan)

    dfs(1, {}, {}, board.copy(), 0)
    return best[0]
