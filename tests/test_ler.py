"""Logical error rate model: calibration tables and schedule scoring."""

import json
import random

import pytest

from lscompile.board import Board, builtin_layout
from lscompile.ler import (
    Calibration,
    SUPPORTED_DISTANCES,
    default_calibration,
    estimate_ler,
    proxy_tile_round_rate,
)
from lscompile.scheduler import Instruction, Schedule, schedule_loose
from lscompile.transpiler import parse_pbc


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
        report = estimate_ler(single_slice_schedule(), calib)
        target = 1 - 0.999 * 0.998 * 0.9995
        assert abs(report["p_total"] - target) <= 1e-12
        layer = report["layers"][0]
        assert layer["p_measure"] == pytest.approx(1e-3, rel=1e-12)
        assert layer["p_deform"] == pytest.approx(2e-3, rel=1e-12)
        assert layer["p_idle"] == pytest.approx(5e-4, rel=1e-12)

    def test_report_shape(self):
        report = estimate_ler(small_schedule(), default_calibration(9))
        assert set(report) == {"distance", "total_clocks", "p_total", "layers"}
        assert report["distance"] == 9
        assert len(report["layers"]) == report["total_clocks"]
        assert report["p_total"] == pytest.approx(
            sum(l["p_layer"] for l in report["layers"]))

    def test_monotone_in_each_rate(self):
        """Doubling any single rate never lowers the estimate."""
        sch = small_schedule()
        fields = ("ppm_per_bus_tile", "rotate_deform_rate",
                  "rotate_corner_rate", "rotate_move_rate", "move_rate",
                  "idle_rate")
        rng = random.Random(42)
        for _ in range(10):
            base = Calibration(9, *(rng.uniform(1e-6, 1e-3)
                                    for _ in fields))
            p0 = estimate_ler(sch, base)["p_total"]
            for f in fields:
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
