"""End-to-end compilation: circuit to scheduled instructions.

Stage order: transpile (gate circuits only), dependency graph, board
construction, qubit-to-patch mapping, access-driven Y synthesis,
correction insertion, `scheduled_program`, scheduling, validation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .board import BUILTIN_LAYOUTS, Board, builtin_layout
from .layout_search import ALPHA_E, auto_design, design_layout
from .mapping import (MAPPING_STRATEGIES, MappingError, access_map,
                      build_mapping)
from .pauli import rotation
from .pdag import build_pdag
from .scheduler import (SCHEDULERS, Schedule, scheduled_program,
                        validate_schedule)
from .transpiler import GateCircuit, PbcProgram, transpile
from .ysynth import Y_STRATEGIES, apply_y_strategy

CORRECTION_POLICIES = ("always", "never", "seeded-random")


def insert_corrections(program: PbcProgram, policy: str = "always",
                       seed: int = 0) -> PbcProgram:
    """Schedule a quarter-turn correction after each eighth-turn rotation.

    The teleportation byproduct is outcome-conditioned; "always" books the
    worst case, "seeded-random" flips a fair coin per rotation.
    """
    if policy not in CORRECTION_POLICIES:
        raise ValueError(f"unknown correction policy {policy!r}")
    if policy == "never":
        return program
    rng = random.Random(seed)
    out = []
    for op in program.ops:
        out.append(op)
        if op.is_eighth():
            if policy == "always" or rng.random() < 0.5:
                out.append(rotation(op.word, 2))
    return PbcProgram(program.n, tuple(out))


@dataclass
class CompileOptions:
    scheduler: str = "loose"
    mapping: str = "ea"
    y_strategy: str = "o3ls"
    correction: str = "always"
    seed: int = 0
    board: object = "compact"      # style name, "WxH", "auto", or a Board
    alpha_e: float = ALPHA_E
    max_tiles: int | None = None


@dataclass
class CompileResult:
    program: PbcProgram            # after transpilation
    synthesized: PbcProgram        # after the Y strategy
    corrected: PbcProgram          # after correction insertion
    scheduled: PbcProgram          # what the schedule's op_index indexes
    board: Board
    qmap: dict
    access: dict
    schedule: Schedule


def make_board(spec, n: int, alpha_e: float = ALPHA_E,
               max_tiles: int | None = None) -> Board:
    if n < 1:
        raise ValueError("need at least one qubit")
    if isinstance(spec, Board):
        if len(spec.patches) < n:
            raise MappingError(
                f"board has {len(spec.patches)} patches for {n} qubits")
        return spec
    if spec in BUILTIN_LAYOUTS:
        return builtin_layout(spec, n)
    if spec == "auto":
        return auto_design(n, max_tiles, alpha_e)
    w, x, h = str(spec).lower().partition("x")
    if x and w.isdecimal() and h.isdecimal():
        return design_layout(n, rows=int(h), cols=int(w), alpha_e=alpha_e)
    raise ValueError(f"unknown board spec {spec!r}")


def check_choices(opts: CompileOptions) -> None:
    """Refuse an unknown scheduler, mapping, Y strategy or correction
    name with the error its stage would raise, before any stage runs."""
    for what, name, known, error in (
            ("scheduler", opts.scheduler, SCHEDULERS, ValueError),
            ("mapping strategy", opts.mapping, MAPPING_STRATEGIES, MappingError),
            ("Y strategy", opts.y_strategy, Y_STRATEGIES, ValueError),
            ("correction policy", opts.correction, CORRECTION_POLICIES,
             ValueError)):
        if name not in known:
            raise error(f"unknown {what} {name!r}")


def compile_program(source, opts: CompileOptions | None = None
                    ) -> CompileResult:
    opts = opts or CompileOptions()
    check_choices(opts)
    if isinstance(source, GateCircuit):
        program = transpile(source)
    elif isinstance(source, PbcProgram):
        program = source
    else:
        raise TypeError("source must be a GateCircuit or PbcProgram")

    dag0 = build_pdag(program)
    board = make_board(opts.board, program.n, opts.alpha_e, opts.max_tiles)
    qmap = build_mapping(opts.mapping, board, dag0)
    access = access_map(board, qmap)
    synthesized = apply_y_strategy(program, opts.y_strategy, access)
    corrected = insert_corrections(synthesized, opts.correction, opts.seed)
    scheduled = scheduled_program(corrected, opts.scheduler)
    schedule = SCHEDULERS[opts.scheduler](scheduled, board, qmap)
    schedule.meta = {"seed": opts.seed, "correction": opts.correction,
                     "mapping": opts.mapping, "y_strategy": opts.y_strategy}
    validate_schedule(schedule)
    return CompileResult(program, synthesized, corrected, scheduled, board,
                         qmap, access, schedule)
