"""Logical error estimates for a packed schedule.

The model charges every clock slice three independent contributions:
multipatch measurements (per bus tile), patch deformation activity
(rotation sub-steps and moves), and idling patches.  Slice failure
probabilities add up to the reported total, a first-order union bound.

`slice_rates` builds the per-slice table in one pass over the
instructions.  It counts a slice's idle patches from the sum of its
instructions' patch counts, not from their union.  That is exact
because no two instructions of one slice share a patch: every
instruction books the tiles of its patches (a measurement also the
ancilla's tile), and `validate_schedule` refuses a tile booked twice in
one slice.

Default rates derive from a standard scaling proxy for the per-round
logical error of a distance-d surface-code tile at physical rate p:
0.1 * (p / 0.01) ** ((d + 1) / 2).  One clock slice spans d measurement
rounds.  These numbers are a model default, not measured data.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .board import OP_COSTS
from .scheduler import Schedule

SUPPORTED_DISTANCES = (3, 5, 7, 9)
PHYSICAL_RATE = 1e-3   # p of the scaling proxy


@dataclass(frozen=True)
class Calibration:
    distance: int
    ppm_per_bus_tile: float
    rotate_deform_rate: float
    rotate_corner_rate: float
    rotate_move_rate: float
    move_rate: float
    idle_rate: float
    provenance: str = "model default, not measured data"

    def to_json(self) -> str:
        d = asdict(self)
        payload = {
            "distance": d.pop("distance"),
            "rates": {k: v for k, v in d.items() if k != "provenance"},
            "provenance": d["provenance"],
        }
        return json.dumps(payload, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "Calibration":
        """Inverse of to_json; ValueError names what is malformed."""
        payload = json.loads(text)
        if (not isinstance(payload, dict)
                or not {"distance", "rates"} <= set(payload)):
            raise ValueError("calibration needs 'distance' and 'rates'")
        distance, rates = payload["distance"], payload["rates"]
        if (isinstance(distance, bool) or not isinstance(distance, int)
                or distance not in SUPPORTED_DISTANCES):
            raise ValueError(f"calibration distance must be one of "
                             f"{SUPPORTED_DISTANCES}, got {distance!r}")
        names = {f.name for f in fields(Calibration)} - {"distance", "provenance"}
        if not isinstance(rates, dict) or set(rates) != names:
            raise ValueError(f"calibration rates must be exactly {sorted(names)}")
        for k, v in rates.items():
            if (isinstance(v, bool) or not isinstance(v, (int, float))
                    or not math.isfinite(v) or v < 0):
                raise ValueError(f"calibration rate {k} must be a finite "
                                 f"number >= 0, got {v!r}")
        return Calibration(distance=distance,
                           provenance=payload.get(
                               "provenance", "model default, not measured data"),
                           **rates)


def proxy_tile_round_rate(distance: int) -> float:
    """Per-tile, per-round logical rate from the scaling proxy."""
    return 0.1 * (PHYSICAL_RATE / 0.01) ** ((distance + 1) / 2)


def default_calibration(distance: int = 9) -> Calibration:
    if distance not in SUPPORTED_DISTANCES:
        raise ValueError(f"distance must be one of {SUPPORTED_DISTANCES}")
    per_clock = distance * proxy_tile_round_rate(distance)
    return Calibration(
        distance=distance,
        ppm_per_bus_tile=per_clock,
        rotate_deform_rate=2 * per_clock,
        rotate_corner_rate=2 * per_clock,
        rotate_move_rate=2 * per_clock,
        move_rate=2 * per_clock,
        idle_rate=per_clock,
    )


def slice_rates(schedule: Schedule, calib: Calibration) -> dict:
    """Per-slice failure probabilities of a schedule: arrays "p_measure",
    "p_deform", "p_idle" and "p_layer", entry t - 1 for clock slice t.

    Each instruction multiplies its survival factors into the slices it
    spans, in instruction order, and adds its patch count there; numpy
    then combines the slices elementwise.
    """
    clocks = schedule.total_clocks
    n_patches = len(schedule.final_board.patches) + 1   # and the ancilla
    ppm = calib.ppm_per_bus_tile
    rotate = tuple(1.0 - min(1.0, rate) for rate in (
        calib.rotate_deform_rate, calib.rotate_corner_rate,
        calib.rotate_move_rate))                       # one per sub-step
    move = 1.0 - min(1.0, calib.move_rate)

    # an instruction of a schedule cut short at total_clocks may run past
    # it: those slices are filled like the others, then dropped
    size = clocks + max(OP_COSTS.values())
    ok_measure = [1.0] * size
    ok_deform = [1.0] * size
    involved = [0] * size
    for ins in schedule.instructions:
        first = ins.start - 1
        n = len(ins.patches)
        if ins.kind == "measure":
            ok = 1.0 - min(1.0, len(ins.bus) * ppm)
            for i in range(first, first + ins.duration):
                ok_measure[i] *= ok
                involved[i] += n
        else:
            factors = (rotate if ins.kind == "rotate"
                       else (move,) * ins.duration)
            for i, ok in enumerate(factors, first):
                ok_deform[i] *= ok
                involved[i] += n

    p_measure = 1.0 - np.array(ok_measure[:clocks])
    p_deform = 1.0 - np.array(ok_deform[:clocks])
    idle = np.maximum(0, n_patches - np.array(involved[:clocks]))
    p_idle = np.minimum(1.0, idle * calib.idle_rate)
    p_layer = 1.0 - (1.0 - p_measure) * (1.0 - p_deform) * (1.0 - p_idle)
    return {"p_measure": p_measure, "p_deform": p_deform, "p_idle": p_idle,
            "p_layer": p_layer}


def _sum_in_order(values) -> float:
    """The sum a `total += v` loop from 0.0 forms: numpy's accumulate
    (its cumsum) adds left to right, where its sum adds pairwise."""
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


def estimate_ler(schedule: Schedule, calib: Calibration) -> dict:
    """Total failure probability of a schedule, with the summed
    measurement, deformation and idle contributions (`slice_rates` has
    the per-slice ones)."""
    rates = slice_rates(schedule, calib)
    return {
        "distance": calib.distance,
        "total_clocks": schedule.total_clocks,
        "p_total": _sum_in_order(rates["p_layer"]),
        "p_measure": _sum_in_order(rates["p_measure"]),
        "p_deform": _sum_in_order(rates["p_deform"]),
        "p_idle": _sum_in_order(rates["p_idle"]),
    }
