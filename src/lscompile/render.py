"""SVG rendering for boards and schedules."""

from __future__ import annotations

from .board import Board, edge_type
from .scheduler import Schedule

_TILE = 44
_PAD = 10

_KIND_COLOR = {"measure": "#4477aa", "rotate": "#ee6677", "move": "#ccbb44"}


def _rect(x, y, w, h, fill):
    return (f'<rect x="{x}" y="{y}" width="{w}" height="{h}" '
            f'fill="{fill}" stroke="#333" />')


def _text(x, y, s, size=12):
    return (f'<text x="{x}" y="{y}" font-size="{size}" fill="#111" '
            f'text-anchor="middle" font-family="monospace">{s}</text>')


def svg_board(board: Board) -> str:
    """Board drawing: patches labeled, X-edges red, Z-edges blue."""
    w = board.cols * _TILE + 2 * _PAD
    h = board.rows * _TILE + 2 * _PAD
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
             f'height="{h}" viewBox="0 0 {w} {h}">']
    for r in range(board.rows):
        for c in range(board.cols):
            x, y = _PAD + c * _TILE, _PAD + r * _TILE
            tile = (r, c)
            fill = "#f0c040" if tile == board.port else "#f4f4f4"
            parts.append(_rect(x, y, _TILE, _TILE, fill))
            if tile == board.port:
                parts.append(_text(x + _TILE / 2, y + _TILE / 2 + 4, "M"))

    def draw_patch(patch, label, fill):
        r, c = patch.tile
        x, y = _PAD + c * _TILE, _PAD + r * _TILE
        parts.append(_rect(x, y, _TILE, _TILE, fill))
        for d, (x1, y1, x2, y2) in (
                ("N", (x, y, x + _TILE, y)),
                ("E", (x + _TILE, y, x + _TILE, y + _TILE)),
                ("S", (x, y + _TILE, x + _TILE, y + _TILE)),
                ("W", (x, y, x, y + _TILE))):
            color = "#cc3311" if edge_type(patch.orient, d) == "X" \
                else "#0077bb"
            parts.append(f'<line x1="{x1}" y1="{y1}" x2="{x2}" '
                         f'y2="{y2}" stroke="{color}" stroke-width="3"/>')
        parts.append(_text(x + _TILE / 2, y + _TILE / 2 + 4, label))

    draw_patch(board.ancilla, "A", "#bbddbb")
    for q, p in sorted(board.patches.items()):
        draw_patch(p, f"Q{q}", "#cfdef2")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def svg_schedule(schedule: Schedule) -> str:
    """Timeline: one row per instruction, one column per clock slice."""
    rows = len(schedule.instructions)
    cols = max(1, schedule.total_clocks)
    cell_w, cell_h, left = 28, 20, 220
    w = left + cols * cell_w + 2 * _PAD
    h = (rows + 1) * cell_h + 2 * _PAD
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
             f'height="{h}" viewBox="0 0 {w} {h}">']
    for t in range(1, cols + 1):
        parts.append(_text(left + (t - 0.5) * cell_w + _PAD, _PAD + 14, str(t),
                           size=10))
    for i, ins in enumerate(schedule.instructions):
        y = _PAD + (i + 1) * cell_h
        label = ins.label if len(ins.label) <= 30 else ins.label[:27] + "..."
        parts.append(f'<text x="{_PAD}" y="{y + 14}" font-size="11" '
                     f'font-family="monospace">{label}</text>')
        x = left + (ins.start - 1) * cell_w + _PAD
        parts.append(_rect(x, y + 2, ins.duration * cell_w, cell_h - 4,
                           _KIND_COLOR.get(ins.kind, "#888")))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
