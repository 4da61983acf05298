"""The logical error estimate as it was before one pass over the
instructions: instructions grouped into per-slice lists, a patch set per
slice and one dict per slice.  The tests hold `ler.slice_rates` and
`ler.estimate_ler` equal to it, value for value.
"""

from lscompile.ler import Calibration
from lscompile.scheduler import Schedule


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
