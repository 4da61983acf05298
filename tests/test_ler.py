"""Logical error rate model: calibration tables and schedule scoring."""

import dataclasses
import functools
import json
import operator
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from lscompile import CompileOptions, bench, compile_program
from lscompile.board import Board, builtin_layout
from lscompile.ler import (
    Calibration,
    SUPPORTED_DISTANCES,
    default_calibration,
    estimate_ler,
    proxy_tile_round_rate,
    slice_rates,
)
from lscompile.scheduler import (Instruction, Schedule, ScheduleError,
                                 schedule_loose, validate_schedule)
from lscompile.transpiler import parse_pbc

import ler_reference

RATES = ("ppm_per_bus_tile", "rotate_deform_rate", "rotate_corner_rate",
         "rotate_move_rate", "move_rate", "idle_rate")
SLICE_KEYS = ("p_measure", "p_deform", "p_idle", "p_layer")


def small_schedule():
    prog = parse_pbc("pi/8 ZZZZZI\nM ZZZZZI", 6)
    return schedule_loose(prog, builtin_layout("compact", 6))


def single_slice_schedule():
    """One measure over a 10-tile bus, one rotation, one idle patch."""
    board = Board(4, 12, ((1, 11), "h"), (0, 0),
                  {0: ((1, 0), "h"), 1: ((2, 0), "h"), 2: ((3, 0), "h")})
    bus = frozenset((0, c) for c in range(1, 11))
    measure = Instruction(kind="measure", start=1, duration=1,
                          tiles=bus | {(1, 0), (1, 11)},
                          patches=frozenset({0, -1}), label="M",
                          op_index=0, bus=bus)
    rotate = Instruction(kind="rotate", start=1, duration=3,
                         tiles=frozenset({(2, 0), (2, 1)}),
                         patches=frozenset({1}), label="rot", op_index=None)
    return Schedule(n=3, scheduler="loose", initial_layout="",
                    instructions=[measure, rotate], total_clocks=1,
                    qmap={0: 0, 1: 1, 2: 2}, final_board=board, meta={})


class TestCalibration:
    def test_supported_distances(self):
        assert SUPPORTED_DISTANCES == (3, 5, 7, 9)
        with pytest.raises(ValueError):
            default_calibration(4)

    def test_proxy_rate_values(self):
        assert proxy_tile_round_rate(3) == pytest.approx(1e-3, rel=1e-12)
        assert proxy_tile_round_rate(9) == pytest.approx(1e-6, rel=1e-12)

    def test_default_table_scales_with_distance(self):
        c = default_calibration(9)
        assert c.ppm_per_bus_tile == pytest.approx(9e-6, rel=1e-12)
        assert c.idle_rate == pytest.approx(9e-6, rel=1e-12)
        assert c.rotate_deform_rate == pytest.approx(1.8e-5, rel=1e-12)
        assert c.move_rate == pytest.approx(1.8e-5, rel=1e-12)
        assert default_calibration(3).ppm_per_bus_tile == pytest.approx(
            3e-3, rel=1e-12)

    def test_provenance_marks_model_default(self):
        assert default_calibration(9).provenance == \
            "model default, not measured data"

    def test_json_round_trip(self):
        c = default_calibration(7)
        again = Calibration.from_json(c.to_json())
        assert again == c
        payload = json.loads(c.to_json())
        assert set(payload) == {"distance", "rates", "provenance"}

    def test_json_defaults_provenance(self):
        payload = json.loads(default_calibration(5).to_json())
        del payload["provenance"]
        again = Calibration.from_json(json.dumps(payload))
        assert again.provenance == "model default, not measured data"


class TestEstimate:
    def test_zero_calibration_means_zero_failure(self):
        zero = Calibration(9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        assert estimate_ler(small_schedule(), zero)["p_total"] == 0.0

    def test_single_slice_product_composition(self):
        """ppm 10*1e-4, rotation deformation 2e-3, one idle patch at 5e-4
        compose into exactly 1 - 0.999*0.998*0.9995."""
        calib = Calibration(distance=9, ppm_per_bus_tile=1e-4,
                            rotate_deform_rate=2e-3, rotate_corner_rate=0.0,
                            rotate_move_rate=0.0, move_rate=0.0,
                            idle_rate=5e-4)
        sch = single_slice_schedule()
        report = estimate_ler(sch, calib)
        target = 1 - 0.999 * 0.998 * 0.9995
        assert abs(report["p_total"] - target) <= 1e-12
        rates = slice_rates(sch, calib)
        assert rates["p_measure"][0] == pytest.approx(1e-3, rel=1e-12)
        assert rates["p_deform"][0] == pytest.approx(2e-3, rel=1e-12)
        assert rates["p_idle"][0] == pytest.approx(5e-4, rel=1e-12)
        # one slice: each sum is that slice's contribution
        for key in ("p_measure", "p_deform", "p_idle"):
            assert report[key] == rates[key][0]

    def test_report_shape(self):
        sch, calib = small_schedule(), default_calibration(9)
        report = estimate_ler(sch, calib)
        assert set(report) == {"distance", "total_clocks", "p_total",
                               "p_measure", "p_deform", "p_idle"}
        assert report["distance"] == 9
        rates = slice_rates(sch, calib)
        assert list(rates) == list(SLICE_KEYS)
        assert all(len(a) == report["total_clocks"] for a in rates.values())
        assert report["p_total"] == pytest.approx(sum(rates["p_layer"]))
        for key in ("p_measure", "p_deform", "p_idle"):
            assert report[key] == pytest.approx(sum(rates[key]))

    def test_monotone_in_each_rate(self):
        """Doubling any single rate never lowers the estimate."""
        sch = small_schedule()
        rng = random.Random(42)
        for _ in range(10):
            base = Calibration(9, *(rng.uniform(1e-6, 1e-3)
                                    for _ in RATES))
            p0 = estimate_ler(sch, base)["p_total"]
            for f in RATES:
                bumped = Calibration(**{**base.__dict__, f: getattr(base, f) * 2})
                p1 = estimate_ler(sch, bumped)["p_total"]
                assert p1 >= p0

    def test_active_rates_strictly_matter(self):
        sch = small_schedule()
        base = default_calibration(9)
        p0 = estimate_ler(sch, base)["p_total"]
        for f in ("ppm_per_bus_tile", "idle_rate"):
            bumped = Calibration(**{**base.__dict__, f: getattr(base, f) * 2})
            assert estimate_ler(sch, bumped)["p_total"] > p0


@functools.cache
def reference_schedules() -> dict:
    """The benchmark suite under both schedulers on three boards, a
    hand-built single slice and a compiled empty program (zero clocks)."""
    out = {f"{name}-{sched}-{board}": compile_program(
               circ, CompileOptions(board=board, scheduler=sched)).schedule
           for name, circ in bench.suite()
           for sched in ("loose", "spc")
           for board in ("compact", "standard", "auto")}
    out["single-slice"] = single_slice_schedule()
    out["zero-clock"] = compile_program(parse_pbc("", 2),
                                        CompileOptions()).schedule
    return out


# each rate zero, small, or saturating (the slice factor clamps at 1)
rate_values = st.one_of(st.just(0.0), st.floats(0.0, 1e-2),
                        st.floats(1.0, 1e3))
calibrations = st.builds(Calibration, st.sampled_from(SUPPORTED_DISTANCES),
                         *(rate_values for _ in RATES))


class TestMatchesReference:
    """One pass over the instructions gives, value for value, the
    per-slice table and the total of the per-slice dict estimate kept in
    `ler_reference`."""

    @pytest.mark.parametrize("name", sorted(reference_schedules()))
    @example(calib=Calibration(9, *(0.0 for _ in RATES)))
    @example(calib=Calibration(9, *(1.0 for _ in RATES)))
    @example(calib=default_calibration(3))
    @example(calib=default_calibration(5))
    @example(calib=default_calibration(7))
    @example(calib=default_calibration(9))
    @given(calib=calibrations)
    @settings(max_examples=15, deadline=None)
    def test_same_slices_and_total(self, name, calib):
        sch = reference_schedules()[name]
        old = ler_reference.estimate_ler(sch, calib)
        report = estimate_ler(sch, calib)
        assert report["p_total"] == old["p_total"]
        rates = slice_rates(sch, calib)
        for key in SLICE_KEYS:
            column = [layer[key] for layer in old["layers"]]
            assert rates[key].tolist() == column
            if key != "p_layer":   # summed left to right, as p_total is
                assert report[key] == functools.reduce(operator.add, column,
                                                       0.0)

    def test_zero_clock_schedule_is_empty(self):
        sch = reference_schedules()["zero-clock"]
        assert sch.total_clocks == 0 and sch.instructions == []
        report = estimate_ler(sch, default_calibration(9))
        assert (report["p_total"], report["p_measure"], report["p_deform"],
                report["p_idle"]) == (0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("second", ["rotation-of-the-measured-patch",
                                    "measure-through-the-ancilla"])
def test_same_slice_instructions_share_no_patch(second):
    """slice_rates counts a slice's involved patches as a sum over its
    instructions, exact only if no two of them share a patch; every
    instruction books its patches' tiles, so validate_schedule refuses a
    schedule where two do."""
    sch = single_slice_schedule()
    measure, _ = sch.instructions
    if second == "rotation-of-the-measured-patch":
        other = Instruction(kind="rotate", start=1, duration=3,
                            tiles=frozenset({(1, 0), (2, 1)}),
                            patches=frozenset({0}), label="rot P0")
    else:
        other = Instruction(kind="measure", start=1, duration=1,
                            tiles=frozenset({(3, 0), (2, 11), (1, 11)}),
                            patches=frozenset({2, -1}), label="M P2",
                            op_index=1, bus=frozenset({(2, 11)}))
    bad = dataclasses.replace(sch, instructions=[measure, other],
                              total_clocks=other.end)
    with pytest.raises(ScheduleError, match="double-booked at slice 1"):
        validate_schedule(bad)
