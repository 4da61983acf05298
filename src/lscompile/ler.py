"""Logical error estimates for a packed schedule.

The model charges every clock slice three independent contributions:
multipatch measurements (per bus tile), patch deformation activity
(rotation sub-steps and moves), and idling patches.  Slice failure
probabilities add up to the reported total, a first-order union bound.

Default rates derive from a standard scaling proxy for the per-round
logical error of a distance-d surface-code tile at physical rate p:
0.1 * (p / 0.01) ** ((d + 1) / 2).  One clock slice spans d measurement
rounds.  These numbers are a model default, not measured data.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

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


def estimate_ler(schedule: Schedule, calib: Calibration) -> dict:
    """Per-slice and total failure probabilities for a schedule."""
    n_patches = len(schedule.final_board.patches) + 1   # and the ancilla
    sub_rates = (calib.rotate_deform_rate, calib.rotate_corner_rate,
                 calib.rotate_move_rate)

    by_slice: dict[int, list] = {}
    for ins in schedule.instructions:
        for t in range(ins.start, ins.end + 1):
            by_slice.setdefault(t, []).append(ins)

    layers = []
    total = 0.0
    for t in range(1, schedule.total_clocks + 1):
        active = by_slice.get(t, ())
        ok_ppm = 1.0
        ok_pr = 1.0
        involved = set()
        for ins in active:
            involved.update(ins.patches)
            if ins.kind == "measure":
                ok_ppm *= 1.0 - min(1.0, len(ins.bus) * calib.ppm_per_bus_tile)
            elif ins.kind == "rotate":
                ok_pr *= 1.0 - min(1.0, sub_rates[t - ins.start])
            elif ins.kind == "move":
                ok_pr *= 1.0 - min(1.0, calib.move_rate)
        p_ppm = 1.0 - ok_ppm
        p_pr = 1.0 - ok_pr
        idle_n = max(0, n_patches - len(involved))
        p_idle = min(1.0, idle_n * calib.idle_rate)
        p_layer = 1.0 - (1.0 - p_ppm) * (1.0 - p_pr) * (1.0 - p_idle)
        layers.append({
            "t": t,
            "p_measure": p_ppm,
            "p_deform": p_pr,
            "p_idle": p_idle,
            "p_layer": p_layer,
        })
        total += p_layer
    return {
        "distance": calib.distance,
        "total_clocks": schedule.total_clocks,
        "p_total": total,
        "layers": layers,
    }
