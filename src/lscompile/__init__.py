"""lscompile: Clifford+T to surface-code lattice-surgery compilation.

Lowers gate circuits to Pauli-product form, removes layout-infeasible Y
operators with cancellation-aware synthesis, designs tile layouts, and
schedules multipatch measurements with patch moves and rotations,
reporting clock counts and logical error estimates.
"""

from .pauli import (
    PauliOp,
    PauliWord,
    PhasedPauli,
    commutes,
    conjugate_past,
    flip_past_pauli,
    format_op,
    measurement,
    multiply,
    parse_op,
    rotation,
)
from .transpiler import (
    Gate,
    GateCircuit,
    PbcProgram,
    absorb_cliffords,
    decompose_gate,
    format_pbc,
    parse_pbc,
    parse_qasm,
    transpile,
)
from .pdag import PDag, build_pdag, rotation_demand
from .ysynth import (
    choose_bipartition,
    decompose_op,
    naive_y_decompose,
    pauli_synthesis,
    y_synthesize,
)
from .board import (
    Board,
    builtin_layout,
    bus_patches,
    format_layout,
    irregular_demo,
    parse_layout,
)
from .mapping import access_map, build_mapping
from .layout_search import auto_design, design_layout, layout_score
from .scheduler import (
    DeadlockError,
    Instruction,
    Schedule,
    normalize_angles,
    schedule_loose,
    schedule_spc,
    scheduled_program,
    validate_schedule,
)
from .ler import Calibration, default_calibration, estimate_ler
from .oracle import (
    circuit_distribution,
    circuit_unitary,
    distributions_match,
    equivalent_up_to_phase,
    outcome_distribution,
    program_unitary,
)
from .pipeline import CompileOptions, CompileResult, compile_program, insert_corrections
from . import bench

__version__ = "0.1.0"

__all__ = [
    "PauliOp", "PauliWord", "PhasedPauli", "commutes", "conjugate_past",
    "flip_past_pauli", "format_op", "measurement", "multiply", "parse_op",
    "rotation",
    "Gate", "GateCircuit", "PbcProgram", "absorb_cliffords", "decompose_gate",
    "format_pbc", "parse_pbc", "parse_qasm", "transpile",
    "PDag", "build_pdag", "rotation_demand",
    "choose_bipartition", "decompose_op", "naive_y_decompose",
    "pauli_synthesis", "y_synthesize",
    "Board", "builtin_layout", "bus_patches", "format_layout",
    "irregular_demo", "parse_layout",
    "access_map", "build_mapping",
    "auto_design", "design_layout", "layout_score",
    "DeadlockError", "Instruction", "Schedule", "normalize_angles",
    "schedule_loose", "schedule_spc", "scheduled_program",
    "validate_schedule",
    "Calibration", "default_calibration", "estimate_ler",
    "circuit_distribution", "circuit_unitary", "distributions_match",
    "equivalent_up_to_phase", "outcome_distribution", "program_unitary",
    "CompileOptions", "CompileResult", "compile_program",
    "insert_corrections",
    "bench",
    "__version__",
]
