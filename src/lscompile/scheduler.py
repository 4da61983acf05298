"""Instruction scheduling onto a tile board.

Two schedulers share one instruction model.  The "loose" scheduler walks
the dependency graph, runs every currently feasible multipatch
measurement, and otherwise applies the single patch move or rotation
that most increases boundary access for the blocked operator, packing
instructions onto per-tile timelines.  The "spc" scheduler is the serial
baseline: program order, in-place patch rotations before each operator,
one operator at a time, no overlap.

Clock slices are 1-based.  Plain Pauli measurements and quarter-angle
rotations take one slice; eighth-angle rotations additionally route to
the magic-state port.  Patch moves take one slice, patch rotations
three.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .board import (
    Access,
    Board,
    NoPathError,
    OP_COSTS,
    bus_patches,
    flipped,
    format_layout,
)
from .pauli import MEASUREMENT, PauliOp, format_op, rotation
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


# edge types a Pauli letter must reach; Y needs both at once
_REQUIRED = {"X": ("X",), "Z": ("Z",), "Y": ("X", "Z")}


def required_edges(op: PauliOp, qmap: dict) -> list:
    """(patch id, edge type) terminals in qubit order, Y giving X then Z."""
    out = []
    for q in op.word.support():
        for t in _REQUIRED[op.word.letter(q)]:
            out.append((qmap[q], t))
    return out


# --- angle normalization --------------------------------------------------

_EMIT = {1: (1,), 2: (2,), 3: (1, 2), 5: (15, 14), 6: (14,), 7: (15,)}


def normalize_angles(program: PbcProgram) -> PbcProgram:
    """Rewrite every rotation to eighth and quarter angles.

    Multiples of pi drop as global phase, half-pi rotations fold into the
    remaining operators as a Pauli frame flip, and the rest split into at
    most one eighth plus one quarter rotation.  Output rotations carry
    only angle numerators 1, 2, 14, 15.
    """
    # (x, z) masks of the product of the half-pi words so far; as the
    # symplectic product is bilinear, an operator's sign flips iff it
    # anticommutes with that product
    fx = fz = 0
    out = []
    for op in program.ops:
        w = op.word
        if ((fx & w.z).bit_count() + (fz & w.x).bit_count()) & 1:
            op = op.negated()
        if op.kind == MEASUREMENT:
            out.append(op)
            continue
        if op.is_trivial():
            continue
        r = op.angle_num % 8
        if r == 4:
            fx, fz = fx ^ w.x, fz ^ w.z
            continue
        out.extend(rotation(w, k) for k in _EMIT[r])
    return PbcProgram(program.n, tuple(out))


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
        if self.src is not None:
            d["src"] = list(self.src)
        if self.dst is not None:
            d["dst"] = list(self.dst)
        if self.helper is not None:
            d["helper"] = list(self.helper)
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
    busy: dict[tuple, int] = {}
    top = 0
    for idx, ins in enumerate(schedule.instructions):
        if ins.start < 1 or ins.duration < 1:
            raise ScheduleError(f"instruction {idx} has a bad time window")
        for t in ins.tiles:
            for s in range(ins.start, ins.start + ins.duration):
                if busy.get((t, s)) is not None:
                    raise ScheduleError(
                        f"tile {t} double-booked at slice {s}")
                busy[(t, s)] = idx
        top = max(top, ins.end)
    if top != schedule.total_clocks:
        raise ScheduleError(
            f"total_clocks {schedule.total_clocks} != busiest slice {top}")


# --- shared helpers -------------------------------------------------------

def enabled_count(acc: Access, qmap: dict, op: PauliOp) -> int:
    """Qubits of op whose every required edge type reaches the strict
    routing component of a board with access acc; -1 when it has none."""
    if acc.comp is None:
        return -1
    return sum(all(acc.reaches(qmap[q], t)
                   for t in _REQUIRED[op.word.letter(q)])
               for q in op.word.support())


def _try_bus(board: Board, qmap: dict, op: PauliOp):
    try:
        return bus_patches(board, required_edges(op, qmap),
                           include_port=op.is_eighth())
    except NoPathError:
        return None


def _measure_footprint(board: Board, qmap: dict, op: PauliOp, bus):
    tiles = set(bus)
    patches = set()
    for q in op.word.support():
        pid = qmap[q]
        patches.add(pid)
        tiles.add(board.patches[pid].tile)
    if board.ancilla is not None:
        patches.add(-1)
        tiles.add(board.ancilla.tile)
    return frozenset(tiles), frozenset(patches)


# --- loose scheduler ------------------------------------------------------

def _candidate_actions(board: Board, qmap: dict, op: PauliOp):
    """Moves to free neighbor tiles then a rotation, per involved patch."""
    for q in sorted(set(op.word.support())):
        pid = qmap[q]
        for dest in board.neighbors(board.patches[pid].tile):
            if board.is_routing(dest) and dest != board.port:
                yield ("move", pid, dest)
        helper = board.rotation_helper(pid)
        if helper is not None:
            yield ("rotate", pid, helper)


def _pick_action(board: Board, qmap: dict, op: PauliOp):
    """Best legal action strictly raising the enabled-qubit count.

    Ranking: more enabled qubits, then cheaper operation, then lower
    patch id, then generation order.  Actions breaking strict
    connectivity are dropped, as are ones cutting off the magic port
    while an eighth rotation waits.  Each action is scored from the
    one-tile delta of the board's kept access.
    """
    base = enabled_count(board.access(), qmap, op)
    best = None
    best_key = None
    for kind, pid, arg in _candidate_actions(board, qmap, op):
        p = board.patches[pid]
        if kind == "move":
            acc = board.access_with(pid, arg, p.orient)
        else:
            acc = board.access_with(pid, p.tile, flipped(p.orient))
        if acc.comp is None:
            continue
        if op.is_eighth() and board.port not in acc.comp:
            continue
        reward = enabled_count(acc, qmap, op)
        if reward <= base:
            continue
        key = (-reward, OP_COSTS[kind], pid)
        if best_key is None or key < best_key:
            best = (kind, pid, arg)
            best_key = key
    return best


def schedule_loose(program: PbcProgram, board: Board, qmap: dict | None = None,
                   meta: dict | None = None, max_actions: int = 100000
                   ) -> Schedule:
    board = board.copy()
    if qmap is None:
        qmap = {q: q for q in range(program.n)}
    if board.a_component() is None:
        raise ScheduleError("initial board fails strict connectivity")
    initial_layout = format_layout(board)
    prog = normalize_angles(program)
    dag = build_pdag(prog)

    free: dict = defaultdict(lambda: 1)

    def pack(tiles, dur):
        start = max(free[t] for t in tiles)
        for t in tiles:
            free[t] = start + dur
        return start

    instrs: list[Instruction] = []
    actions = 0
    failed: set = set()  # a route that failed waits for a move or rotation
    while dag:
        ran = True
        while ran and dag:
            ran = False
            for nid in dag.frontier():
                if nid in failed:
                    continue
                op = dag.nodes[nid].op
                bus = _try_bus(board, qmap, op)
                if bus is None:
                    failed.add(nid)
                    continue
                tiles, patches = _measure_footprint(board, qmap, op, bus)
                start = pack(tiles, OP_COSTS["measure"])
                instrs.append(Instruction(
                    "measure", start, OP_COSTS["measure"], tiles, patches,
                    format_op(op), op_index=nid, bus=bus))
                dag.pop_node(nid)
                ran = True
                break
        if not dag:
            break
        pending = dag.nodes[dag.frontier()[0]].op
        action = _pick_action(board, qmap, pending)
        if action is None:
            raise DeadlockError(
                format_op(pending),
                tuple(sorted({qmap[q] for q in pending.word.support()})),
                format_layout(board))
        failed.clear()
        kind, pid, arg = action
        if kind == "move":
            src = board.patches[pid].tile
            fp = board.move_patch(pid, arg)
            start = pack(fp, OP_COSTS["move"])
            instrs.append(Instruction(
                "move", start, OP_COSTS["move"], fp, frozenset({pid}),
                f"move P{pid} {src}->{arg}", src=src, dst=arg))
        else:
            tile = board.patches[pid].tile
            fp = board.rotate_patch(pid, arg)
            start = pack(fp, OP_COSTS["rotate"])
            instrs.append(Instruction(
                "rotate", start, OP_COSTS["rotate"], fp, frozenset({pid}),
                f"rotate P{pid} at {tile}", helper=arg))
        actions += 1
        if actions > max_actions:
            raise ScheduleError("scheduler exceeded its action budget")

    total = max((i.end for i in instrs), default=0)
    return Schedule(program.n, "loose", initial_layout, instrs, total,
                    dict(qmap), board, dict(meta or {}))


# --- serial baseline ------------------------------------------------------

def schedule_spc(program: PbcProgram, board: Board, qmap: dict | None = None,
                 meta: dict | None = None) -> Schedule:
    """Serial baseline: naive Y removal, program order, no packing.

    Before each operator the involved patches are rotated in place until
    the needed edge types face routing space; then the operator runs
    alone.  Every rotation costs three clocks and nothing overlaps.
    """
    board = board.copy()
    if qmap is None:
        qmap = {q: q for q in range(program.n)}
    initial_layout = format_layout(board)
    prog = normalize_angles(naive_y_decompose(program))

    clock = 0
    instrs: list[Instruction] = []
    for idx, op in enumerate(prog.ops):
        for q in op.word.support():
            pid = qmap[q]
            for t in _REQUIRED[op.word.letter(q)]:
                if board.touch_tiles(pid, t):
                    continue
                helper = board.rotation_helper(pid)
                if helper is None:
                    raise ScheduleError(
                        f"patch {pid} has no free neighbor to rotate with")
                tile = board.patches[pid].tile
                fp = board.rotate_patch(pid, helper)
                instrs.append(Instruction(
                    "rotate", clock + 1, OP_COSTS["rotate"], fp,
                    frozenset({pid}), f"rotate P{pid} at {tile}",
                    helper=helper))
                clock += OP_COSTS["rotate"]
                if not board.touch_tiles(pid, t):
                    raise ScheduleError(
                        f"patch {pid} cannot expose a {t}-edge")
        bus = bus_patches(board, required_edges(op, qmap),
                          include_port=op.is_eighth())
        tiles, patches = _measure_footprint(board, qmap, op, bus)
        instrs.append(Instruction(
            "measure", clock + 1, OP_COSTS["measure"], tiles, patches,
            format_op(op), op_index=idx, bus=bus))
        clock += OP_COSTS["measure"]

    return Schedule(program.n, "spc", initial_layout, instrs, clock,
                    dict(qmap), board, dict(meta or {}))


SCHEDULERS = {"loose": schedule_loose, "spc": schedule_spc}
