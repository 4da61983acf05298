"""Instruction scheduling onto a tile board.

Two schedulers share one instruction model and one builder: `_act` for
a patch move or rotation, `_measure` for a measurement, each timed by
the caller's `start_of(tiles, duration)`.  Each scheduler takes only a
scheduled program, as `scheduled_program` makes it, Y-free for "spc".
The "loose" scheduler walks the dependency graph, runs every currently
feasible multipatch measurement, and otherwise applies the single patch
move or rotation that most increases boundary access for the blocked
operator, packing instructions onto per-tile timelines.  An operator
that failed to route is not asked again until a move or rotation changes
the board.  The "spc" scheduler is the serial baseline: program order,
in-place patch rotations before each operator, one operator at a time,
no overlap.
Neither sets the header's run settings; `compile_program` stamps them.

Clock slices are 1-based.  Plain Pauli measurements and quarter-angle
rotations take one slice; eighth-angle rotations additionally route to
the magic-state port.  Patch moves take one slice, patch rotations
three.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .board import (
    LETTER_EDGES,
    Board,
    NoPathError,
    OP_COSTS,
    best_first,
    bus_patches,
    flipped,
    format_layout,
)
from .pauli import (
    MEASUREMENT, PauliOp, PauliWord, flip_past_pauli, format_op, rotation)
from .pdag import build_pdag
from .transpiler import PbcProgram
from .ysynth import naive_y_decompose


class DeadlockError(RuntimeError):
    """No candidate board action improves access for a blocked operator:
    `op` (its text), its `patches` (ids) on `board` (the layout text)."""

    def __init__(self, op: str, patches: tuple, board: str):
        super().__init__(f"no patch action improves access for {op} "
                         f"(patches {', '.join(map(str, patches))})")
        self.op, self.patches, self.board = op, patches, board

    def __reduce__(self):
        return type(self), (self.op, self.patches, self.board)


class ScheduleError(RuntimeError):
    pass


def required_edges(op: PauliOp, qmap: dict) -> list:
    """(patch id, edge type) terminals in qubit order, Y giving X then Z."""
    return [(qmap[q], t) for q in op.word.support()
            for t in LETTER_EDGES[op.word.letter(q)]]


# --- angle normalization --------------------------------------------------

_EMIT = {1: (1,), 2: (2,), 3: (1, 2), 5: (15, 14), 6: (14,), 7: (15,)}


def normalize_angles(program: PbcProgram) -> PbcProgram:
    """Rewrite every rotation to eighth and quarter angles.

    Multiples of pi drop as global phase, half-pi rotations fold into the
    remaining operators as a Pauli frame flip, and the rest split into at
    most one eighth plus one quarter rotation.  Output rotations carry
    only the angle numerators `_EMIT` gives.
    """
    # the product of the half-pi words so far: as the symplectic product
    # is bilinear, an operator's sign flips iff it anticommutes with it
    frame = PauliWord(program.n, 0, 0)
    out = []
    for op in program.ops:
        op, w = flip_past_pauli(frame, op), op.word
        if op.kind == MEASUREMENT:
            out.append(op)
            continue
        if op.is_trivial():
            continue
        r = op.angle_num % 8
        if r == 4:
            frame = PauliWord(program.n, frame.x ^ w.x, frame.z ^ w.z)
            continue
        out.extend(rotation(w, k) for k in _EMIT[r])
    return PbcProgram(program.n, tuple(out))


def scheduled_program(program: PbcProgram, scheduler: str) -> PbcProgram:
    """The program `scheduler` measures, which its op_index indexes."""
    if scheduler == "spc":
        program = naive_y_decompose(program)
    return normalize_angles(program)


def _refuse_unscheduled(program: PbcProgram, scheduler: str) -> None:
    """ValueError at the first operator scheduled_program would rewrite."""
    emitted = {k for ks in _EMIT.values() for k in ks}
    for i, op in enumerate(program.ops):
        w = op.word
        if (scheduler == "spc" and w.x & w.z) or (op.kind != MEASUREMENT and (
                op.angle_num not in emitted or w.is_identity())):
            raise ValueError(f"operator {i} ({format_op(op)}) is not in "
                             f"scheduled form for {scheduler}")


# --- instruction / schedule model -----------------------------------------

@dataclass
class Instruction:
    kind: str                 # "move" | "rotate" | "measure"
    start: int                # first busy slice, 1-based
    duration: int
    tiles: frozenset          # every tile busy for the whole instruction
    patches: frozenset        # involved patch ids, -1 for the ancilla
    label: str
    op_index: int | None = None
    bus: frozenset | None = None
    src: tuple | None = None
    dst: tuple | None = None
    helper: tuple | None = None

    @property
    def end(self) -> int:
        return self.start + self.duration - 1

    def to_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "label": self.label,
            "start": self.start,
            "duration": self.duration,
            "patches": sorted(self.patches),
            "tiles": sorted(list(t) for t in self.tiles),
        }
        if self.op_index is not None:
            d["op_index"] = self.op_index
        if self.bus is not None:
            d["bus"] = sorted(list(t) for t in self.bus)
        for name in ("src", "dst", "helper"):
            if getattr(self, name) is not None:
                d[name] = list(getattr(self, name))
        return d


@dataclass
class Schedule:
    n: int
    scheduler: str
    initial_layout: str
    instructions: list
    total_clocks: int
    qmap: dict
    final_board: Board
    meta: dict = field(default_factory=dict)

    def slices(self) -> list:
        by_start: dict[int, list] = defaultdict(list)
        for ins in self.instructions:
            by_start[ins.start].append(ins)
        return [(t, by_start[t]) for t in sorted(by_start)]

    def measure_instructions(self) -> list:
        return [i for i in self.instructions if i.kind == "measure"]

    def mean_bus_tiles(self) -> float:
        ms = self.measure_instructions()
        if not ms:
            return 0.0
        return sum(len(i.bus) for i in ms) / len(ms)

    def to_dict(self) -> dict:
        header = {
            "board": self.initial_layout,
            "mapping": {str(q): p for q, p in sorted(self.qmap.items())},
            "scheduler": self.scheduler,
            "seed": self.meta.get("seed"),
            "correction": self.meta.get("correction"),
        }
        return {
            "header": header,
            "total_clocks": self.total_clocks,
            "slices": [
                {"t": t, "instructions": [i.to_dict() for i in group]}
                for t, group in self.slices()
            ],
        }


def validate_schedule(schedule: Schedule) -> None:
    """Check tile-time exclusivity and the reported clock count."""
    booked: dict[int, set] = defaultdict(set)   # slice -> tiles busy in it
    top = 0
    for idx, ins in enumerate(schedule.instructions):
        if ins.start < 1 or ins.duration < 1:
            raise ScheduleError(f"instruction {idx} has a bad time window")
        for s in range(ins.start, ins.start + ins.duration):
            tiles = booked[s]
            if not tiles.isdisjoint(ins.tiles):
                raise ScheduleError(f"tile {min(tiles & ins.tiles)} "
                                    f"double-booked at slice {s}")
            tiles |= ins.tiles
        top = max(top, ins.end)
    if top != schedule.total_clocks:
        raise ScheduleError(
            f"total_clocks {schedule.total_clocks} != busiest slice {top}")


# --- shared helpers -------------------------------------------------------

def _try_bus(board: Board, required: list, op: PauliOp):
    try:
        return bus_patches(board, required, include_port=op.is_eighth())
    except NoPathError:
        return None


def _measure(board: Board, qmap: dict, op: PauliOp, bus, index: int,
             start_of) -> Instruction:
    """Operator `index`, op, measured over bus, timed by start_of: the
    bus, the operator's patch tiles and the ancilla tile are busy."""
    pids = [qmap[q] for q in op.word.support()]
    tiles = frozenset(bus).union([board.patches[p].tile for p in pids],
                                 [board.ancilla.tile])
    patches = frozenset([*pids, -1])
    dur = OP_COSTS["measure"]
    return Instruction("measure", start_of(tiles, dur), dur, tiles, patches,
                       format_op(op), op_index=index, bus=bus)


def _act(board: Board, kind: str, pid: int, arg, start_of) -> Instruction:
    """Move patch pid onto arg or rotate it with helper arg, on board."""
    tile = board.patches[pid].tile
    if kind == "move":
        tiles = board.move_patch(pid, arg)
        label, ends = f"move P{pid} {tile}->{arg}", {"src": tile, "dst": arg}
    else:
        tiles = board.rotate_patch(pid, arg)
        label, ends = f"rotate P{pid} at {tile}", {"helper": arg}
    dur = OP_COSTS[kind]
    return Instruction(kind, start_of(tiles, dur), dur, tiles,
                       frozenset({pid}), label, **ends)


# --- loose scheduler ------------------------------------------------------

def _candidate_actions(board: Board, qmap: dict, op: PauliOp):
    """Moves to the patch's steps() then a rotation, per involved patch."""
    for q in op.word.support():
        pid = qmap[q]
        for dest in board.steps(pid):
            yield ("move", pid, dest)
        helper = board.rotation_helper(pid)
        if helper is not None:
            yield ("rotate", pid, helper)


def _pick_action(board: Board, qmap: dict, op: PauliOp):
    """Best legal action strictly raising the enabled-qubit count.

    Ranking: more enabled qubits, then cheaper operation, then lower
    patch id, then generation order.  Actions breaking strict
    connectivity (a delta of None) are dropped, as are ones cutting off
    the magic port while an eighth rotation waits.  Each action is scored
    from the one-tile delta of the board's kept access while its bound
    can win (`best_first`): its gainers (`Board.bound`; all without
    one) not yet enabled.  The board has a strict component:
    schedule_loose refuses one without and applies no action losing it.
    """
    acc = board.access()
    # patch id -> the counts entries (X 0, Z 1) its letter needs; a qubit
    # is enabled when each of them faces the component
    need = {qmap[q]: tuple(t == "Z" for t in LETTER_EDGES[op.word.letter(q)])
            for q in op.word.support()}
    have = {q: all(acc.counts[q][i] for i in ix) for q, ix in need.items()}
    lacking = {q for q in need if not have[q]}
    ranked = []
    for n, (kind, pid, arg) in enumerate(_candidate_actions(board, qmap, op)):
        p = board.patches[pid]
        tile, orient = ((arg, p.orient) if kind == "move"
                        else (p.tile, flipped(p.orient)))
        bound = board.bound(pid, tile)
        if most := len(lacking if bound is None else lacking & bound[1]):
            ranked.append(((-most, OP_COSTS[kind], pid, n),
                           (kind, pid, arg, tile, orient)))

    def exact(bound, action):
        kind, pid, arg, tile, orient = action
        delta = board.delta(pid, tile)
        if delta is None or op.is_eighth() and not delta.port:
            return None
        # what the action adds to the enabled count
        gain = sum(
            all(c[i] for i in need[q]) - have[q] for q, c in
            [*delta.counts.items(), (pid, delta.count(orient))] if q in need)
        return (-gain, *bound[1:]) if gain > 0 else None

    best = best_first(ranked, exact)
    return best and best[1][:3]


def schedule_loose(program: PbcProgram, board: Board,
                   qmap: dict | None = None) -> Schedule:
    _refuse_unscheduled(program, "loose")
    board = board.copy()
    if qmap is None:
        qmap = {q: q for q in range(program.n)}
    if board.a_component() is None:
        raise ScheduleError("initial board fails strict connectivity")
    initial_layout = format_layout(board)
    dag = build_pdag(program)

    free: dict = defaultdict(lambda: 1)

    def pack(tiles, dur):
        start = max(free[t] for t in tiles)
        for t in tiles:
            free[t] = start + dur
        return start

    instrs: list[Instruction] = []
    actions = 0   # since the last measurement
    blocked = set()   # frontier ids that failed to route since the last action
    required = {i: required_edges(n.op, qmap) for i, n in dag.nodes.items()}
    while dag:
        for nid in dag.frontier():
            if nid in blocked:
                continue
            op = dag.nodes[nid].op
            bus = _try_bus(board, required[nid], op)
            if bus is None:
                blocked.add(nid)
                continue
            instrs.append(_measure(board, qmap, op, bus, nid, pack))
            dag.pop_node(nid)
            actions = 0
            break
        else:
            # no frontier operator routes: act for the first one
            pending = dag.nodes[dag.frontier()[0]].op
            action = _pick_action(board, qmap, pending)
            if action is None:
                raise DeadlockError(
                    format_op(pending),
                    tuple(sorted({qmap[q] for q in pending.word.support()})),
                    format_layout(board))
            instrs.append(_act(board, *action, pack))
            blocked.clear()
            # each action strictly raises the pending operator's enabled
            # count, which cannot pass its weight
            actions += 1
            if actions > pending.word.weight():
                raise ScheduleError(
                    f"{actions} actions without a measurement for "
                    f"{format_op(pending)}, more than its weight allows")

    total = max((i.end for i in instrs), default=0)
    return Schedule(program.n, "loose", initial_layout, instrs, total,
                    dict(qmap), board)


# --- serial baseline ------------------------------------------------------

def schedule_spc(program: PbcProgram, board: Board,
                 qmap: dict | None = None) -> Schedule:
    """Serial baseline on a Y-free program: program order, no packing.

    Before each operator the involved patches are rotated in place until
    the needed edge types face routing space; then the operator runs
    alone.  Every rotation costs three clocks and nothing overlaps.
    """
    _refuse_unscheduled(program, "spc")
    board = board.copy()
    if qmap is None:
        qmap = {q: q for q in range(program.n)}
    initial_layout = format_layout(board)

    instrs: list[Instruction] = []

    def serial(tiles, dur):   # right after the last instruction
        return instrs[-1].end + 1 if instrs else 1

    for idx, op in enumerate(program.ops):
        required = required_edges(op, qmap)
        for pid, t in required:
            if board.touch_tiles(pid, t):
                continue
            helper = board.rotation_helper(pid)
            if helper is None:
                raise ScheduleError(
                    f"patch {pid} has no free neighbor to rotate with")
            instrs.append(_act(board, "rotate", pid, helper, serial))
            if not board.touch_tiles(pid, t):
                raise ScheduleError(
                    f"patch {pid} cannot expose a {t}-edge")
        bus = bus_patches(board, required, include_port=op.is_eighth())
        instrs.append(_measure(board, qmap, op, bus, idx, serial))

    total = instrs[-1].end if instrs else 0
    return Schedule(program.n, "spc", initial_layout, instrs, total,
                    dict(qmap), board)


SCHEDULERS = {"loose": schedule_loose, "spc": schedule_spc}
