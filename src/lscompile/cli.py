"""Command-line interface.

Subcommands: transpile, layout, compile, estimate, compare, verify.
Inputs are OpenQASM 2 files (.qasm) or Pauli-program text (anything
else); "-" reads stdin.  The LSCOMPILE_CALIB environment variable names
a default calibration JSON for `estimate`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .board import format_layout, parse_layout
from .layout_search import layout_score
from .ler import Calibration, default_calibration, estimate_ler
from .oracle import (
    MAX_ORACLE_QUBITS,
    circuit_distribution,
    circuit_unitary,
    distributions_match,
    equivalent_up_to_phase,
    outcome_distribution,
    program_unitary,
)
from .pauli import PauliOp, PauliWord
from .pipeline import CompileOptions, compile_program, make_board
from .render import svg_board, svg_schedule
from .transpiler import (
    Gate,
    GateCircuit,
    PbcProgram,
    decompose_gate,
    format_pbc,
    parse_pbc,
    parse_qasm,
    transpile,
)
from .ysynth import y_synthesize


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _load_source(path: str, qubits: int | None):
    text = _read(path)
    head = text.lstrip()
    if path.endswith(".qasm") or head.startswith("OPENQASM"):
        return parse_qasm(text)
    return parse_pbc(text, qubits)


def _board_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--board", default="compact",
                        help="compact|standard|sparse|auto|WxH|@layout-file")
    parser.add_argument("--alpha-e", type=float, default=0.2,
                        help="density penalty weight for designed layouts")
    parser.add_argument("--max-tiles", type=int, default=None,
                        help="tile budget for --board auto")


def _compile_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("input", help="circuit (.qasm) or Pauli program file")
    parser.add_argument("--qubits", type=int, default=None,
                        help="qubit count for empty Pauli-program input")
    _board_args(parser)
    parser.add_argument("--mapping", default="ea",
                        choices=("ea", "greedy", "identity"))
    parser.add_argument("--scheduler", default="loose",
                        choices=("loose", "spc"))
    parser.add_argument("--y-synthesis", default="o3ls",
                        choices=("o3ls", "naive", "off"), dest="y_synthesis")
    parser.add_argument("--correction", default="always",
                        choices=("always", "never", "seeded-random"))
    parser.add_argument("--seed", type=int, default=0)


def _options_from(args) -> CompileOptions:
    return CompileOptions(
        scheduler=args.scheduler,
        mapping=args.mapping,
        y_strategy=args.y_synthesis,
        correction=args.correction,
        seed=args.seed,
        board=_resolve_board_arg(args.board),
        alpha_e=args.alpha_e,
        max_tiles=args.max_tiles,
    )


def _resolve_board_arg(spec: str):
    """Board spec for make_board, with '@file' read as layout text."""
    if spec.startswith("@"):
        return parse_layout(_read(spec[1:]))
    return spec


def cmd_transpile(args) -> int:
    source = _load_source(args.input, args.qubits)
    program = transpile(source) if isinstance(source, GateCircuit) else source
    _write(args.output, format_pbc(program))
    return 0


def cmd_layout(args) -> int:
    board = make_board(_resolve_board_arg(args.board), args.qubits,
                       args.alpha_e, args.max_tiles)
    _write(args.output, format_layout(board))
    if args.svg:
        _write(args.svg, svg_board(board))
    print(f"# tiles={board.tile_count()} "
          f"score={layout_score(board, args.alpha_e):.3f}", file=sys.stderr)
    return 0


def cmd_compile(args) -> int:
    source = _load_source(args.input, args.qubits)
    result = compile_program(source, _options_from(args))
    payload = result.schedule.to_dict()
    _write(args.output, json.dumps(payload, indent=2) + "\n")
    if args.svg:
        _write(args.svg, svg_schedule(result.schedule))
    if args.layout_out:
        _write(args.layout_out, format_layout(result.board))
    print(f"# clocks={result.schedule.total_clocks} "
          f"ops={len(result.corrected.ops)} "
          f"mean_bus={result.schedule.mean_bus_tiles():.2f}",
          file=sys.stderr)
    return 0


def cmd_estimate(args) -> int:
    source = _load_source(args.input, args.qubits)
    result = compile_program(source, _options_from(args))
    calib_path = args.calibration or os.environ.get("LSCOMPILE_CALIB")
    if calib_path:
        calib = Calibration.from_json(_read(calib_path))
    else:
        calib = default_calibration(args.distance)
    report = estimate_ler(result.schedule, calib)
    if not args.per_slice:
        report = {k: v for k, v in report.items() if k != "layers"}
    report["mean_bus_tiles"] = result.schedule.mean_bus_tiles()
    _write(args.output, json.dumps(report, indent=2) + "\n")
    return 0


def cmd_compare(args) -> int:
    source = _load_source(args.input, args.qubits)
    rows = []
    for spec in args.run:
        parts = spec.split(":")
        if len(parts) < 3:
            raise ValueError(f"bad --run spec {spec!r} "
                             "(NAME:SCHEDULER:LAYOUT[:MAPPING[:YSYNTH]])")
        name, sched, layout = parts[0], parts[1], parts[2]
        mapping = parts[3] if len(parts) > 3 else "ea"
        ysynth = parts[4] if len(parts) > 4 else (
            "naive" if sched == "spc" else "o3ls")
        opts = _options_from(argparse.Namespace(
            **vars(args), scheduler=sched, mapping=mapping,
            y_synthesis=ysynth, board=layout))
        result = compile_program(source, opts)
        calib = default_calibration(args.distance)
        report = estimate_ler(result.schedule, calib)
        rows.append((name, sched, layout,
                     result.schedule.total_clocks,
                     result.schedule.mean_bus_tiles(),
                     len(result.corrected.ops), report["p_total"]))
    header = (f"{'name':<16} {'sched':<6} {'layout':<10} "
              f"{'clocks':>7} {'bus':>6} {'ops':>5} {'p_total':>12}")
    print(header)
    print("-" * len(header))
    for name, sched, layout, clocks, bus, ops, p in rows:
        print(f"{name:<16} {sched:<6} {layout:<10} {clocks:>7} "
              f"{bus:>6.2f} {ops:>5} {p:>12.4e}")
    return 0


def _decomposes(gate: Gate, n: int) -> bool:
    """Whether the gate's Pauli rotations act on its own qubits only and
    multiply to its unitary there, up to phase."""
    local = {q: i for i, q in enumerate(gate.qubits)}
    k = len(local)
    ops = []
    for op in decompose_gate(gate, n):
        support = op.word.support()
        if not set(support) <= local.keys():
            return False
        word = PauliWord.from_letters(
            k, {local[q]: op.word.letter(q) for q in support})
        ops.append(PauliOp(word, op.kind, op.angle_num, op.sign))
    return equivalent_up_to_phase(
        program_unitary(PbcProgram(k, tuple(ops))),
        circuit_unitary(GateCircuit(k, (Gate(gate.name, tuple(range(k))),))))


def cmd_verify(args) -> int:
    source = _load_source(args.input, args.qubits)
    failures = []
    if isinstance(source, GateCircuit):
        if source.n > MAX_ORACLE_QUBITS:
            raise ValueError(
                f"verify needs <= {MAX_ORACLE_QUBITS} qubits")
        bad = next((g for g in source.gates
                    if g.name != "measure" and not _decomposes(g, source.n)),
                   None)
        if bad is not None:
            failures.append(f"gate decomposition unitary mismatch at "
                            f"{bad.name} {', '.join(map(str, bad.qubits))}")
        program = transpile(source)
        restricted = {q: {"X", "Z"} for q in range(source.n)}
        synthesized = y_synthesize(program, restricted)
        if not distributions_match(outcome_distribution(synthesized),
                                   circuit_distribution(source)):
            failures.append("outcome distribution mismatch")
    else:
        program = source
        restricted = {q: {"X", "Z"} for q in range(program.n)}
        synthesized = y_synthesize(program, restricted)
        if not distributions_match(outcome_distribution(synthesized),
                                   outcome_distribution(program)):
            failures.append("Y synthesis changed outcome distribution")
    for f in failures:
        print(f"FAIL: {f}")
    if not failures:
        print("OK: semantics verified against the state-vector oracle")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lscompile",
        description="Clifford+T to lattice-surgery schedule compiler")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transpile", help="lower a circuit to Pauli form")
    p.add_argument("input")
    p.add_argument("--qubits", type=int, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_transpile)

    p = sub.add_parser("layout", help="emit a builtin or designed layout")
    p.add_argument("--qubits", type=int, required=True)
    _board_args(p)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_layout)

    p = sub.add_parser("compile", help="compile to a schedule JSON")
    _compile_args(p)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--svg", default=None)
    p.add_argument("--layout-out", default=None)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("estimate", help="compile and estimate error rates")
    _compile_args(p)
    p.add_argument("--distance", type=int, default=9)
    p.add_argument("--calibration", default=None,
                   help="calibration JSON (default: $LSCOMPILE_CALIB)")
    p.add_argument("--per-slice", action="store_true")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("compare", help="compare compile configurations")
    p.add_argument("input")
    p.add_argument("--qubits", type=int, default=None)
    p.add_argument("--run", action="append", required=True,
                   help="NAME:SCHEDULER:LAYOUT[:MAPPING[:YSYNTH]]")
    p.add_argument("--correction", default="always",
                   choices=("always", "never", "seeded-random"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha-e", type=float, default=0.2)
    p.add_argument("--max-tiles", type=int, default=None)
    p.add_argument("--distance", type=int, default=9)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("verify", help="check semantics against the oracle")
    p.add_argument("input")
    p.add_argument("--qubits", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    """Run one subcommand.  Exit codes: 0 ok, 1 verify mismatch, 2 usage
    or input error; like argparse's own usage errors, an input error is
    one `lscompile: error:` line on stderr and a SystemExit(2)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as e:
        parser.exit(2, f"lscompile: error: {e}\n")


if __name__ == "__main__":
    raise SystemExit(main())
