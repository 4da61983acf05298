"""Tile board model: patches, surgery moves, routing, layout text format."""

from collections import deque
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from lscompile.board import (
    Access,
    Board,
    IllegalOpError,
    LayoutParseError,
    NoPathError,
    builtin_layout,
    bus_patches,
    edge_type,
    flipped,
    format_layout,
    irregular_demo,
    parse_layout,
)
from lscompile.layout_search import (
    LayoutDesignError,
    _access_score,
    design_layout,
    layout_score,
)
from lscompile import bench, board as board_module
from lscompile.pauli import PauliWord, parse_op
from lscompile.pipeline import CompileOptions, compile_program
from lscompile.scheduler import required_edges

import copy_flood_reference as ref

W = PauliWord.from_string


# three patches along the top row, to wall in the middle one
ROW_OF_THREE = {0: ((0, 0), "h"), 1: ((0, 1), "h"), 2: ((0, 2), "h")}


def test_edge_type_table():
    # wide patches expose Z east/west and X north/south; tall ones swap
    assert edge_type("h", "E") == "Z"
    assert edge_type("h", "W") == "Z"
    assert edge_type("h", "N") == "X"
    assert edge_type("h", "S") == "X"
    assert edge_type("v", "E") == "X"
    assert edge_type("v", "W") == "X"
    assert edge_type("v", "N") == "Z"
    assert edge_type("v", "S") == "Z"


class TestBoardBasics:
    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            Board(0, 3, ((0, 0), "h"), (0, 1), {})

    def test_out_of_bounds_patch(self):
        with pytest.raises(IllegalOpError, match="out of bounds"):
            Board(2, 2, ((1, 1), "h"), (1, 0), {0: ((2, 0), "h")})

    def test_double_occupancy(self):
        with pytest.raises(IllegalOpError, match="already occupied"):
            Board(3, 3, ((2, 1), "h"), (2, 2),
                  {0: ((0, 0), "h"), 1: ((0, 0), "h")})
        with pytest.raises(IllegalOpError, match="already occupied"):
            Board(3, 3, ((2, 1), "h"), (2, 2), {0: ((2, 1), "h")})

    def test_port_must_stay_routing(self):
        # on a patch, on the ancilla, off the board
        for port in ((0, 0), (2, 1), (3, 0)):
            with pytest.raises(IllegalOpError, match=rf"^port tile \({port[0]}"
                               rf", {port[1]}\) must be routing$"):
                Board(3, 3, ((2, 1), "h"), port, {0: ((0, 0), "h")})
        b = Board(3, 3, ((2, 1), "h"), (2, 2), {0: ((0, 0), "h")})
        with pytest.raises(IllegalOpError, match="port tile must stay"):
            b.init_patch(1, (2, 2), "h")

    def test_negative_patch_id_is_refused(self):
        message = "^patch id must be non-negative, got -1$"
        with pytest.raises(IllegalOpError, match=message):
            Board(2, 2, ((1, 1), "h"), (1, 0), {-1: ((0, 0), "h")})
        b = Board(2, 2, ((1, 1), "h"), (1, 0), {})
        with pytest.raises(IllegalOpError, match=message):
            b.init_patch(-1, (0, 0), "h")
        assert not b.patches and b.is_routing((0, 0))

    def test_ancilla_edges_are_patch_minus_one(self):
        b = Board(3, 3, ((1, 1), "h"), (2, 2), {0: ((0, 1), "h")})
        assert b.touch_tiles(-1, "X") == [(2, 1)]
        assert b.touch_tiles(-1, "Z") == [(1, 0), (1, 2)]

    def test_bad_ancilla_orientation_is_refused(self):
        # an ancilla with no X edge would print as 'Ax', which
        # parse_layout refuses
        with pytest.raises(IllegalOpError, match=r"^bad orientation 'x'$"):
            Board(2, 2, ((0, 0), "x"), (1, 1), {0: ((0, 1), "h")})

    def test_bad_patch_orientation_is_refused(self):
        with pytest.raises(IllegalOpError, match=r"^bad orientation 'x'$"):
            Board(2, 2, ((0, 0), "h"), (1, 1), {0: ((0, 1), "x")})

    def test_copy_is_independent(self):
        b = Board(3, 3, ((2, 0), "h"), (2, 2), {0: ((0, 0), "h")})
        c = b.copy()
        c.move_patch(0, (0, 1))
        assert b.patches[0].tile == (0, 0)
        assert c.patches[0].tile == (0, 1)


class TestBuiltinLayouts:
    def test_compact_six(self):
        b = builtin_layout("compact", 6)
        assert (b.rows, b.cols) == (3, 5)
        placed = {q: (b.patches[q].tile, b.patches[q].orient)
                  for q in sorted(b.patches)}
        assert placed == {
            0: ((0, 0), "h"), 1: ((0, 1), "h"),
            2: ((2, 3), "h"), 3: ((2, 4), "h"),
            4: ((0, 3), "h"), 5: ((0, 4), "h"),
        }
        assert b.ancilla.tile == (2, 2)
        assert b.port == (2, 0)

    def test_standard_six(self):
        b = builtin_layout("standard", 6)
        assert (b.rows, b.cols) == (5, 5)
        assert len(b.patches) == 6

    def test_sparse_six(self):
        b = builtin_layout("sparse", 6)
        assert len(b.patches) == 6
        assert b.a_component() is not None

    @pytest.mark.parametrize("style", ["compact", "standard", "sparse"])
    @pytest.mark.parametrize("n", [2, 4, 6, 9])
    def test_all_builtins_have_single_routing_region(self, style, n):
        b = builtin_layout(style, n)
        assert len(b.patches) == n
        assert b.ancilla is not None and b.port is not None
        assert b.a_component() is not None

    def test_unknown_style(self):
        with pytest.raises(Exception):
            builtin_layout("weird", 4)

    def test_irregular_demo(self):
        b = irregular_demo()
        placed = {q: (b.patches[q].tile, b.patches[q].orient)
                  for q in sorted(b.patches)}
        assert placed == {
            0: ((0, 0), "h"), 1: ((0, 1), "v"), 2: ((0, 2), "v"),
            3: ((2, 1), "v"), 4: ((2, 2), "v"), 5: ((0, 3), "v"),
        }
        assert b.a_component() is not None


class TestExposure:
    def test_corner_patch_sees_one_type(self):
        b = builtin_layout("compact", 6)
        assert b.exposed_types(0) == {"X"}
        assert b.exposed_types(2) == {"X"}

    def test_open_patch_sees_both(self):
        b = Board(3, 3, ((2, 2), "h"), (2, 0), {0: ((1, 1), "h")})
        assert b.exposed_types(0) == {"X", "Z"}

    def test_walled_in_patch_sees_nothing(self):
        b = Board(2, 3, ((1, 1), "h"), (1, 0), ROW_OF_THREE)
        assert b.exposed_types(1) == set()


class TestRoutingComponents:
    def test_compact_is_one_component(self):
        b = builtin_layout("compact", 6)
        routing = {(r, c) for r in range(b.rows) for c in range(b.cols)
                   if b.is_routing((r, c))}
        assert b.a_component() == routing
        assert b.port in b.a_component()

    def test_tie_goes_to_the_row_major_first_component(self):
        b = Board(3, 3, ((1, 1), "h"), (2, 0),
                  {0: ((0, 0), "h"), 1: ((2, 2), "h")})
        # {(0,1),(0,2),(1,2)} and {(1,0),(2,0),(2,1)} both touch the
        # ancilla's X and Z edges and an edge of both patches
        assert b.a_component() == {(0, 1), (0, 2), (1, 2)}
        acc = b.access()
        assert _reaches(acc, 0, "Z") and not _reaches(acc, 0, "X")
        assert _reaches(acc, 1, "X") and not _reaches(acc, 1, "Z")
        # both qualify again, and the ancilla's first X-edge tile in edge
        # order, (1, 0), lies in the one whose least tile comes later
        b = parse_layout("Q0v . . .\n. Av . M\n. . Q1h .\n")
        assert b.a_component() == {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                                   (2, 3)}

    def test_split_board_has_no_working_region(self):
        b = Board(3, 3, ((0, 1), "h"), (2, 0), {
            0: ((1, 0), "h"), 1: ((1, 1), "h"), 2: ((1, 2), "h")})
        # the free tiles beside the ancilla are cut off from the bottom row
        assert b.a_component() is None


def _reaches(acc, qid, typ):
    """Whether patch qid has a typ edge on the access's strict component."""
    return acc.comp is not None and acc.counts[qid][typ == "Z"] > 0


def _fresh_access(board):
    return parse_layout(format_layout(board)).access()


def _mutate(data, b, kinds=("init", "remove", "move", "rotate")):
    """One drawn init/remove/move/rotate on b; illegal draws raise."""
    kind = data.draw(st.sampled_from(kinds))
    free = sorted((r, c) for r in range(b.rows) for c in range(b.cols)
                  if b.is_routing((r, c)) and (r, c) != b.port)
    if kind == "init":
        if free:
            b.init_patch(max(b.patches, default=-1) + 1,
                         data.draw(st.sampled_from(free)),
                         data.draw(st.sampled_from(["h", "v"])))
        return
    if not b.patches:
        return
    qid = data.draw(st.sampled_from(sorted(b.patches)))
    if kind == "remove":
        b.remove_patch(qid)
    elif kind == "move":
        steps = b.steps(qid)
        if steps:
            b.move_patch(qid, data.draw(st.sampled_from(steps)))
    else:
        b.rotate_patch(qid, b.rotation_helper(qid))


class TestKeptComponent:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_component_is_never_stale(self, data):
        """The kept access (component, counts, nx, nz and density) matches
        a fresh board after every mutation, rotations included, and
        mutating one copy leaves every other board's answer alone."""
        style = data.draw(st.sampled_from(["compact", "standard", "sparse",
                                           "irregular"]))
        if style == "irregular":
            boards = [irregular_demo()]
        else:
            boards = [builtin_layout(style, data.draw(st.integers(1, 9)))]
        for _ in range(data.draw(st.integers(1, 10))):
            i = data.draw(st.integers(0, len(boards) - 1))
            if data.draw(st.booleans()):
                boards.append(boards[i].copy())
                i = len(boards) - 1
            if data.draw(st.booleans()):
                boards[i].a_component()
            before = [_fresh_access(o) for o in boards]
            try:
                _mutate(data, boards[i])
            except IllegalOpError:
                pass
            for j, o in enumerate(boards):
                if j != i:
                    assert o.access() == before[j]
                assert o.access() == _fresh_access(o)

    def test_rotation_carries_the_access_without_a_flood(self, monkeypatch):
        """A rotation carries the access, and so do the named changes whose
        delta floods the changed board: a_component floods nothing more."""
        board = builtin_layout("standard", 4)
        board.access()
        flooded = [(parse_layout(DELTA_CASES[n][0]), *DELTA_CASES[n][1:4])
                   for n in ("freed-tile-meets-second-component",
                             "ancilla-x-tiles-split")]
        for b, *_ in flooded:
            b.access()
        floods = []
        real = Board.a_component
        monkeypatch.setattr(Board, "a_component",
                            lambda b: floods.append(b) or real(b))
        board.rotate_patch(0, board.rotation_helper(0))
        acc = board.access()
        for b, qid, tile, orient in flooded:
            b.place(qid, tile, orient)
            b.access()
        assert floods == []
        # (1, 1) turns from two X edges and one Z edge on routing space
        # to one X edge and two Z edges
        assert acc.counts[0] == (1, 2, 3) and acc == _fresh_access(board)
        for b, *_ in flooded:
            assert b.access() == _fresh_access(b)


def _check_delta(board, qid, tile, orient):
    """delta() agrees with the slow path, the board with patch qid on
    tile in orient flooded afresh, and leaves the board alone; it is
    None exactly when that has no strict component.  A copy changed by
    place carries the access through to the fresh board's."""
    layout, comp = format_layout(board), board.a_component()
    delta = board.delta(qid, tile)
    assert (format_layout(board), board.a_component()) == (layout, comp)
    trial = board.copy()
    trial.place(qid, tile, orient)
    fresh = parse_layout(format_layout(trial))
    assert trial.access() == fresh.access()
    assert fresh.a_component() == _ref_component(fresh)
    assert (delta is None) == (fresh.a_component() is None)
    if delta is None:
        return
    acc = delta.access(orient)
    comp = {board._tiles[i] for i in acc.comp}   # tile ids as tiles
    assert comp == fresh.a_component()
    assert delta.port == (fresh.port in comp)
    assert acc.density == ref.density(trial) == ref.density(fresh)
    score = _access_score(acc.nx, acc.nz, acc.density, 0.2)
    assert score == layout_score(trial) == layout_score(fresh)
    for q in sorted(trial.patches):
        for typ in ("X", "Z"):
            assert _reaches(acc, q, typ) == ref.reaches(fresh, q, typ)
    # exact, counts and totals too
    assert acc == fresh.access()


# (layout, patch id, tile, orient, fresh floods delta makes)
DELTA_CASES = {
    # taking (0, 1) cuts (0, 0) off and splits the board: no strict
    # component is left
    "cut-tile-disconnects": ("M . .\n. Q0h .\nAh . .\n", 1, (0, 1),
                             "h", 1),
    # taking (0, 1) cuts off only an unused corner; that corner stays an
    # X-edge tile of the ancilla, so the ancilla's X-edge tiles then lie
    # in two pieces, and the rule picks one
    "cut-tile-keeps-port": (". . . M Q0h\nAh . . . .\n. . . . .\n", 1,
                            (0, 1), "h", 2),
    # taking (2, 2) cuts off {(1, 0), (2, 0), (2, 1)}; both pieces hold
    # an X- and a Z-edge tile of the ancilla and face both patches, and
    # the one holding the row-major-first tile wins
    "cut-tile-ties-two-pieces": ("Q0v . . .\n. Av . M\n. . . .\n", 1,
                                 (2, 2), "h", 2),
    # freeing (0, 1) joins it to {(0, 0), (1, 0)}, a second component;
    # both X-edge tiles of the ancilla are flooded, one component each
    "freed-tile-meets-second-component": (
        ". Q1h . . .\n. Ah . . M\nQ0h . . . .\n", 1, (0, 2), "h", 2),
    # the ancilla's X-edge tiles lie in two strict components; the tie
    # goes to the one holding (0, 0) until the new patch faces only the
    # other one; each is flooded with the new patch in place
    "ancilla-x-tiles-split": (". . Q0h .\nM Av . .\nQ1v . . .\n", 9,
                              (0, 3), "h", 2),
    # freeing (1, 0) opens a second piece, {(0, 0), (0, 1), (1, 0)}, that
    # the patches beside the change all face; Q2 faces only the other
    # piece, so counting every patch again picks that one
    "far-patch-takes-the-second-piece": (
        ". . Q1h\nQ0h Av .\n. . .\nM . Q2h\n", 0, (2, 0), "h", 2),
    # the ancilla's only X-edge tile is taken
    "last-ancilla-x-tile": ("Ah . .\n. . .\n. . M\n", 0, (1, 0), "h", 0),
    "plain-placement": ("Ah . .\n. . .\n. . M\n", 0, (1, 1), "v", 1),
    "plain-move": ("Ah . . .\n. Q0h . .\n. . . M\n", 0, (1, 2), "h", 1),
    "reorientation": ("Ah . .\n. Q0h .\n. . M\n", 0, (1, 1), "v", 0),
}

# the named changes that leave no strict component: their delta is None
NO_COMPONENT = {"cut-tile-disconnects", "last-ancilla-x-tile"}


def _start_board(data, styles=("compact", "standard", "sparse", "irregular",
                               "designed", "scattered", "named")):
    style = data.draw(st.sampled_from(styles))
    if style == "irregular":
        return irregular_demo()
    if style == "named":
        return parse_layout(DELTA_CASES[data.draw(st.sampled_from(
            sorted(DELTA_CASES)))][0])
    if style == "scattered":
        # anywhere, in any orientation: the ancilla's two X-edge tiles
        # can then land in two components
        rows, cols = data.draw(st.integers(2, 5)), data.draw(st.integers(2, 6))
        tiles = data.draw(st.lists(st.sampled_from(
            [(r, c) for r in range(rows) for c in range(cols)]),
            min_size=2, unique=True))
        ancilla = (tiles[0], data.draw(st.sampled_from(["h", "v"])))
        return Board(rows, cols, ancilla, tiles[1], {
            q: (t, data.draw(st.sampled_from(["h", "v"])))
            for q, t in enumerate(tiles[2:])})
    if style == "designed":
        rows = data.draw(st.integers(2, 5))
        cols = data.draw(st.integers(rows, 6))
        try:
            return design_layout(data.draw(st.integers(1, rows * cols - 3)),
                                 rows, cols)
        except LayoutDesignError:
            return design_layout(0, rows, cols)
    return builtin_layout(style, data.draw(st.integers(1, 9)))


class TestAccessDelta:
    """Board.delta() against the slow path: a changed copy of the board,
    flooded afresh."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_one_tile_change_matches_a_flooded_copy(self, data):
        board = _start_board(data)
        for _ in range(data.draw(st.integers(0, 6))):
            if data.draw(st.booleans()):
                board.a_component()
            try:
                _mutate(data, board)
            except IllegalOpError:
                pass
        free = [t for t in board._tiles
                if board.is_routing(t) and t != board.port]
        moves = [(q, t) for q, p in sorted(board.patches.items())
                 for t in board.neighbors(p.tile) if t in free]
        changes = ["place"] * bool(free) + ["move"] * bool(moves) + [
            "reorient"] * bool(board.patches)
        if not changes:
            return
        change = data.draw(st.sampled_from(changes))
        orient = data.draw(st.sampled_from(["h", "v"]))
        if change == "place":
            qid = max(board.patches, default=-1) + 1
            tile = data.draw(st.sampled_from(free))
        elif change == "move":
            qid, tile = data.draw(st.sampled_from(moves))
        else:
            qid = data.draw(st.sampled_from(sorted(board.patches)))
            tile, orient = board.patches[qid].tile, flipped(
                board.patches[qid].orient)
        copies = []
        real_copy = Board.copy
        with mock.patch.object(Board, "copy",
                               lambda b: copies.append(b) or real_copy(b)):
            _check_delta(board, qid, tile, orient)
        # delta copies no board, pockets and split X-edge tiles included:
        # the one copy is the check's own
        assert len(copies) == 1

    @pytest.mark.parametrize("name", sorted(DELTA_CASES))
    def test_named_change(self, name, monkeypatch):
        text, qid, tile, orient, floods = DELTA_CASES[name]
        board = parse_layout(text)
        board.access()
        calls = []
        real_flood = board_module._flood
        monkeypatch.setattr(board_module, "_flood",
                            lambda *a: calls.append(a) or real_flood(*a))
        delta = board.delta(qid, tile)
        assert len(calls) == floods
        assert (delta is None) == (name in NO_COMPONENT)
        _check_delta(board, qid, tile, orient)

    def test_no_component_no_delta(self, monkeypatch):
        """A move taking the ancilla's only X-edge tile has no delta, nor
        has a reorientation on the board it leaves; place carries the
        one no-component access through both without a_component."""
        board = parse_layout("Ah . .\n. Q0h .\n. . M\n")
        assert board.a_component() is not None
        floods = []
        real = Board.a_component
        monkeypatch.setattr(Board, "a_component",
                            lambda b: floods.append(b) or real(b))
        assert board.delta(0, (1, 0)) is None
        board.move_patch(0, (1, 0))
        assert board.delta(0, (1, 0)) is None
        board.rotate_patch(0, board.rotation_helper(0))
        acc = board.access()
        assert floods == []
        assert acc == Access(None, {}, 0, 0, 0) == _fresh_access(board)


# the ancilla's X-edge tiles lie in two components, so bound answers no
# move or placement; and a board without a strict component
BOUND_LAYOUTS = {"split-x-edges": ". . Q0h .\nM Av . .\nQ1v . . .\n",
                 "no-component": "Ah Q0h Q1h\n. . M\n"}


class TestBound:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_bound_holds_for_every_change(self, data):
        """For every legal placement, move and reorientation, bound()
        gives delta()'s exact density; no patch outside its gainers gains
        X or Z access, and no gainer but qid more than one edge.  Where it
        answers, delta's component lies within the kept one plus the
        freed tile, less the taken one; it is None on the split-x-edges
        board but for a reorientation, and on a board without a
        component."""
        style = data.draw(st.sampled_from(sorted(BOUND_LAYOUTS)) | st.just(
            "other"))
        if style in BOUND_LAYOUTS:
            board = parse_layout(BOUND_LAYOUTS[style])
        else:
            board = _start_board(data, ("compact", "standard", "sparse",
                                        "irregular", "designed"))
            for _ in range(data.draw(st.integers(0, 3))):
                try:
                    _mutate(data, board)
                except IllegalOpError:
                    pass
        acc = board.access()
        if style == "no-component":
            assert acc.comp is None
        free = [t for t in board._tiles
                if board.is_routing(t) and t != board.port]
        changes = [(max(board.patches, default=-1) + 1, t) for t in free]
        changes += [(q, t) for q in sorted(board.patches)
                    for t in [board.patches[q].tile, *board.steps(q)]]
        for qid, tile in changes:
            delta = board.delta(qid, tile)
            bound = board.bound(qid, tile)
            old = board.patches.get(qid)
            if acc.comp is None or style == "split-x-edges" and (
                    old is None or old.tile != tile):
                assert bound is None
            if bound is None or delta is None:
                continue
            src = {board._ids[old.tile]} if old else set()
            assert delta.comp <= acc.comp - {board._ids[tile]} | src
            density, gainers = bound
            assert qid in gainers
            for orient in ("h", "v"):
                new = delta.access(orient)
                assert new.density == density
                for q, (x, z, _) in new.counts.items():
                    ox, oz, _ = acc.counts.get(q, (0, 0, 0))
                    if q not in gainers:
                        assert x <= ox and z <= oz
                    elif q != qid:
                        assert (x > 0) + (z > 0) <= min(
                            2, (ox > 0) + (oz > 0) + 1)


class TestMoveAndRotate:
    def test_move_is_one_step(self):
        b = Board(3, 3, ((2, 0), "h"), (2, 2), {0: ((0, 0), "h")})
        assert b.move_patch(0, (0, 1)) == {(0, 0), (0, 1)}
        assert b.patches[0].tile == (0, 1)

    @pytest.mark.parametrize("dest", [(0, 0), (2, 2), (1, 2), (0, 1),
                                      (2, 0), (1, 1), (1, 3)],
                             ids=["diagonal", "two-away", "port", "patch",
                                  "ancilla", "own-tile", "out-of-bounds"])
    def test_move_refuses_all_but_a_step(self, dest):
        b = Board(3, 3, ((2, 0), "h"), (1, 2),
                  {0: ((1, 1), "h"), 1: ((0, 1), "h")})
        acc, at = b.access(), dict(b._at)
        # N is a patch and E the port: S, then W
        assert b.steps(0) == [(2, 1), (1, 0)]
        with pytest.raises(IllegalOpError):
            b.move_patch(0, dest)
        assert (b.patches[0].tile, b._at, b.access()) == ((1, 1), at, acc)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_steps_are_the_free_neighbours_but_the_port(self, data):
        """steps() is the filtered neighbour list, and move_patch
        accepts exactly those tiles."""
        b = _start_board(data)
        for _ in range(data.draw(st.integers(0, 6))):
            try:
                _mutate(data, b)
            except IllegalOpError:
                pass
        if not b.patches:
            return
        for q, p in sorted(b.patches.items()):
            r, c = p.tile
            want = [(r + dr, c + dc) for _, (dr, dc) in _STEPS
                    if _ref_routing(b, (r + dr, c + dc))
                    and (r + dr, c + dc) != b.port]
            assert b.steps(q) == want
        qid = data.draw(st.sampled_from(sorted(b.patches)))
        dest = data.draw(st.sampled_from(b._tiles))
        legal = dest in b.steps(qid)
        try:
            b.move_patch(qid, dest)
        except IllegalOpError:
            assert not legal
        else:
            assert legal and b.patches[qid].tile == dest

    def test_move_rejects_sealed_source(self):
        b = Board(3, 3, ((2, 2), "h"), (2, 0), {
            0: ((0, 0), "h"), 1: ((0, 1), "h"), 2: ((1, 0), "h")})
        with pytest.raises(IllegalOpError):
            b.move_patch(0, (0, 2))

    def test_move_never_lands_on_port(self):
        b = Board(2, 2, ((1, 1), "h"), (1, 0), {0: ((0, 0), "h")})
        with pytest.raises(IllegalOpError):
            b.move_patch(0, (1, 0))

    def test_rotation_helper_prefers_north(self):
        b = Board(3, 3, ((2, 2), "h"), (2, 0), {0: ((1, 1), "h")})
        assert b.rotation_helper(0) == (0, 1)

    def test_rotation_helper_may_borrow_port(self):
        """A cornered patch can still rotate through the port tile even
        though it could never move onto it."""
        b = Board(2, 2, ((1, 1), "h"), (1, 0),
                  {0: ((0, 0), "h"), 1: ((0, 1), "h")})
        assert b.rotation_helper(0) == (1, 0)

    def test_rotation_helper_none_when_enclosed(self):
        b = Board(2, 3, ((1, 1), "h"), (1, 0), ROW_OF_THREE)
        assert b.rotation_helper(1) is None

    def test_rotate_flips_orientation(self):
        b = Board(3, 3, ((2, 2), "h"), (2, 0), {0: ((1, 1), "h")})
        footprint = b.rotate_patch(0, b.rotation_helper(0))
        assert footprint == {(1, 1), (0, 1)}
        assert b.patches[0].orient == "v"
        b.rotate_patch(0, b.rotation_helper(0))
        assert b.patches[0].orient == "h"

    def test_rotate_rejects_bad_helper(self):
        b = Board(3, 3, ((1, 1), "h"), (2, 0), {0: ((0, 0), "h")})
        with pytest.raises(IllegalOpError):
            b.rotate_patch(0, helper=(2, 2))


class TestBus:
    def test_bus_lives_on_routing_tiles(self):
        b = builtin_layout("compact", 6)
        required = [(q, "X") for q in range(5)]
        bus = bus_patches(b, required)
        occupied = {p.tile for p in b.patches.values()}
        assert bus
        assert not (bus & occupied)
        for tile in bus:
            assert b.in_bounds(tile)

    def test_bus_deterministic(self):
        b = irregular_demo()
        required = [(0, "X")] + [(q, "Z") for q in range(1, 5)]
        assert bus_patches(b, required) == bus_patches(b, required)

    def test_bus_unreachable_edge_type(self):
        from lscompile.board import NoPathError
        b = builtin_layout("compact", 6)
        with pytest.raises(NoPathError):
            bus_patches(b, [(0, "Z")])


# --- reference routing: a full flood over a freshly computed grid ---------

_STEPS = (("N", (-1, 0)), ("E", (0, 1)), ("S", (1, 0)), ("W", (0, -1)))


def _ref_routing(board, tile):
    held = {p.tile for p in board.patches.values()}
    if board.ancilla is not None:
        held.add(board.ancilla.tile)
    r, c = tile
    return 0 <= r < board.rows and 0 <= c < board.cols and tile not in held


def _ref_touch(board, patch, typ):
    r, c = patch.tile
    return sorted({(r + dr, c + dc) for d, (dr, dc) in _STEPS
                   if edge_type(patch.orient, d) == typ
                   and _ref_routing(board, (r + dr, c + dc))})


def _ref_bfs(board, sources):
    dist, prev, queue = {}, {}, deque()
    for s in sorted(sources):
        dist[s], prev[s] = 0, None
        queue.append(s)
    while queue:
        cur = queue.popleft()
        for _, (dr, dc) in _STEPS:
            nb = (cur[0] + dr, cur[1] + dc)
            if nb in dist or not _ref_routing(board, nb):
                continue
            dist[nb], prev[nb] = dist[cur] + 1, cur
            queue.append(nb)
    return dist, prev


def _ref_component(board):
    """The strict component as defined: of the routing components facing
    both typed edges of the ancilla and an edge of every patch, the one
    holding the row-major-first tile, or None."""
    seen = set()
    for tile in [(r, c) for r in range(board.rows) for c in range(board.cols)]:
        if tile in seen or not _ref_routing(board, tile):
            continue
        comp = set(_ref_bfs(board, [tile])[0])
        seen |= comp
        if all(comp.intersection(_ref_touch(board, board.ancilla, typ))
               for typ in ("X", "Z")) and all(
                comp.intersection(_ref_touch(board, p, "X")
                                  + _ref_touch(board, p, "Z"))
                for p in board.patches.values()):
            return frozenset(comp)
    return None


def _ref_bus(board, required, include_port=False):
    """Sequential shortest paths, every search flooding the whole board."""
    terminals = []
    for qid, typ in required:
        opts = _ref_touch(board, board.patches[qid], typ)
        if not opts:
            raise NoPathError(f"patch {qid} has no exposed {typ}-edge")
        terminals.append(opts)
    for typ in ("X", "Z"):
        opts = _ref_touch(board, board.ancilla, typ)
        if not opts:
            raise NoPathError(f"ancilla has no exposed {typ}-edge")
        terminals.append(opts)
    if include_port:
        if board.port is None or not _ref_routing(board, board.port):
            raise NoPathError("magic port unusable")
        terminals.append([board.port])
    tree = set()
    comp = board.a_component()
    for opts in terminals:
        if tree & set(opts):
            continue
        if not tree:
            inside = [t for t in opts if comp is not None and t in comp]
            tree.add(min(inside) if inside else min(opts))
            continue
        dist, prev = _ref_bfs(board, tree)
        best = None
        for t in sorted(opts):
            if t in dist and (best is None or dist[t] < dist[best]):
                best = t
        if best is None:
            raise NoPathError(f"no routing path to terminal options {opts}")
        cur = best
        while cur is not None and cur not in tree:
            tree.add(cur)
            cur = prev[cur]
    return frozenset(tree)


def _drawn_board(data):
    """A builtin, demo, designed or scattered board with patches, after a
    few drawn moves and rotations: designed and scattered boards bring
    pockets, cut tiles and ancilla edges in two components."""
    b = _start_board(data, ("compact", "standard", "sparse", "irregular",
                            "designed", "scattered"))
    assume(b.patches)
    for _ in range(data.draw(st.integers(0, 8))):
        try:
            _mutate(data, b, kinds=("move", "rotate"))
        except IllegalOpError:
            pass
    return b


def _outcome(route, *args):
    try:
        return route(*args)
    except NoPathError as e:
        return NoPathError, str(e)


class TestRoutingMatchesFullFlood:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_bus_equals_reference(self, data):
        b = _drawn_board(data)
        pair = st.tuples(st.sampled_from(sorted(b.patches)),
                         st.sampled_from(["X", "Z"]))
        required = data.draw(st.lists(pair, max_size=6))
        include_port = data.draw(st.booleans())
        assert (_outcome(bus_patches, b, required, include_port)
                == _outcome(_ref_bus, b, required, include_port))

    @staticmethod
    def _routes_match(data, b):
        pair = st.tuples(st.sampled_from(sorted(b.patches)),
                         st.sampled_from(["X", "Z"]))
        for _ in range(2):
            required = data.draw(st.lists(pair, max_size=4))
            include_port = data.draw(st.booleans())
            assert (_outcome(bus_patches, b, required, include_port)
                    == _outcome(_ref_bus, b, required, include_port))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_kept_maps_are_never_stale(self, data):
        """Routes on one board object stay those of a full flood through
        drawn moves, rotations and patches removed and placed again, and
        a copy's mutations never reach the original's maps."""
        b = _drawn_board(data)
        self._routes_match(data, b)
        for _ in range(data.draw(st.integers(1, 8))):
            kind = data.draw(st.sampled_from(["move", "rotate", "reinit"]))
            qid = data.draw(st.sampled_from(sorted(b.patches)))
            if kind == "reinit":
                b.remove_patch(qid)
                free = [t for t in b._tiles if b.is_routing(t) and t != b.port]
                b.init_patch(qid, data.draw(st.sampled_from(free)),
                             data.draw(st.sampled_from(["h", "v"])))
            else:
                try:
                    _mutate(data, b, kinds=(kind,))
                except IllegalOpError:
                    pass
            self._routes_match(data, b)
        c = b.copy()
        self._routes_match(data, c)
        for _ in range(data.draw(st.integers(1, 4))):
            try:
                _mutate(data, c)
            except IllegalOpError:
                pass
            if c.patches:
                self._routes_match(data, c)
        self._routes_match(data, b)

    def test_rotation_keeps_the_maps_and_a_move_drops_them(self):
        b = builtin_layout("compact", 4)
        kept = b.distances((1, 0))
        b.rotate_patch(0, b.rotation_helper(0))
        assert b.distances((1, 0)) is kept
        b.move_patch(2, (1, 3))
        i = b._ids[(1, 3)]   # a kept map is a list by tile id, -1 unreached
        assert b.distances((1, 0))[i] == -1
        assert kept[i] == 3

    @staticmethod
    def _repeat_routes(b, pool, gone=None):
        """Each pooled required set not naming patch gone, with and
        without the port, routed twice on b (the second from the kept
        buses), always as the full flood routes it."""
        for required in pool:
            if any(q == gone for q, _ in required):
                continue
            for include_port in (False, True):
                want = _outcome(_ref_bus, b, required, include_port)
                for _ in range(2):
                    assert _outcome(bus_patches, b, required,
                                    include_port) == want

    def _step(self, data, b, pool):
        """A drawn move, rotation, or removal and placement again (routing
        in between) of a patch the pool names, or of any patch."""
        named = sorted({q for required in pool for q, _ in required})
        qid = data.draw(st.sampled_from(named or sorted(b.patches))
                        | st.sampled_from(sorted(b.patches)))
        kind = data.draw(st.sampled_from(["move", "rotate", "reinit"]))
        if kind == "move" and b.steps(qid):
            b.move_patch(qid, data.draw(st.sampled_from(b.steps(qid))))
        elif kind == "rotate" and b.rotation_helper(qid) is not None:
            b.rotate_patch(qid, b.rotation_helper(qid))
        elif kind == "reinit":
            b.remove_patch(qid)
            self._repeat_routes(b, pool, gone=qid)
            free = [t for t in b._tiles if b.is_routing(t) and t != b.port]
            b.init_patch(qid, data.draw(st.sampled_from(free)),
                         data.draw(st.sampled_from(["h", "v"])))

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_kept_buses_are_never_stale(self, data):
        """The same required sets, asked again on one board object through
        drawn moves, rotations and patches removed and placed again, on a
        copy that is then mutated, and on the original again, always get
        the full flood's bus or its failure message."""
        b = _drawn_board(data)
        pair = st.tuples(st.sampled_from(sorted(b.patches)),
                         st.sampled_from(["X", "Z"]))
        pool = data.draw(st.lists(st.lists(pair, max_size=4), min_size=1,
                                  max_size=3))
        self._repeat_routes(b, pool)
        for _ in range(data.draw(st.integers(1, 8))):
            self._step(data, b, pool)
            self._repeat_routes(b, pool)
        c = b.copy()
        self._repeat_routes(c, pool)
        for _ in range(data.draw(st.integers(1, 4))):
            self._step(data, c, pool)
            self._repeat_routes(c, pool)
        self._repeat_routes(b, pool)

    def test_a_bus_is_kept_until_a_tile_changes_hands(self):
        b = builtin_layout("compact", 4)
        required = [(0, "X"), (1, "Z")]
        bus = bus_patches(b, required)
        assert bus_patches(b, required) is bus
        b.rotate_patch(3, b.rotation_helper(3))    # not a terminal
        assert bus_patches(b, required) is bus
        b.rotate_patch(1, b.rotation_helper(1))    # a terminal
        assert bus_patches(b, required) == bus - {(0, 2)}
        b.rotate_patch(1, b.rotation_helper(1))
        assert bus_patches(b, required) is bus
        b.move_patch(2, (1, 3))
        assert bus_patches(b, required) is not bus

    @pytest.mark.parametrize("mover", [0, 1], ids=["original", "copy"])
    def test_a_copy_shares_records_until_a_tile_changes_hands(
            self, mover, monkeypatch):
        """A bus the copy routed after a rotation is read back by the
        original after the same rotation; once either board moves a patch,
        both answer as their own layout read afresh."""
        b = builtin_layout("compact", 4)
        c = b.copy()
        c.rotate_patch(1, c.rotation_helper(1))
        required = [(0, "X"), (1, "Z")]
        bus = bus_patches(c, required)
        b.rotate_patch(1, b.rotation_helper(1))
        with monkeypatch.context() as m:
            m.setattr(board_module, "_route_bus", None)
            assert bus_patches(b, required) is bus
        (b, c)[mover].move_patch(2, (1, 3))
        pool = [required, [(2, "X")], [(3, "Z"), (0, "Z")], [(2, "Z")]]
        for board in (b, c):
            fresh = parse_layout(format_layout(board))
            assert board.access() == fresh.access()
            for tile in fresh._tiles:
                if fresh.is_routing(tile):
                    assert board.distances(tile) == fresh.distances(tile)
            for req in pool:
                for include_port in (False, True):
                    assert (_outcome(bus_patches, board, req, include_port)
                            == _outcome(bus_patches, fresh, req,
                                        include_port))

    def test_a_kept_failure_raises_afresh(self):
        """Each call raises a new error, so no traceback grows."""
        b = Board(2, 3, ((1, 1), "h"), (1, 0), ROW_OF_THREE)
        raised = []
        for _ in range(2):
            with pytest.raises(NoPathError,
                               match="^patch 1 has no exposed X-edge$") as e:
                bus_patches(b, [(1, "X")])
            raised.append(e.value)
        assert raised[0] is not raised[1]

    def test_a_failed_route_is_not_kept(self):
        """Only routed buses enter the board's record; a failure leaves
        it as it was."""
        b = builtin_layout("compact", 4)
        bus = bus_patches(b, [(0, "X")])
        with pytest.raises(NoPathError, match="^patch 0 has no exposed Z"):
            bus_patches(b, [(0, "Z")])
        assert list(b._bus.values()) == [bus]

    @pytest.mark.slow
    @pytest.mark.parametrize("scheduler", ["loose", "spc"])
    @pytest.mark.parametrize("board", ["standard", "auto"])
    @pytest.mark.parametrize("name", [name for name, _ in bench.suite()])
    def test_replayed_schedules_route_as_a_full_flood(self, name, board,
                                                      scheduler):
        """Every measure's bus equals the reference on the initial layout
        with the schedule's moves and rotations replayed in order."""
        circuit = dict(bench.suite())[name]
        sched = compile_program(circuit, CompileOptions(
            scheduler=scheduler, board=board)).schedule
        b = parse_layout(sched.initial_layout)
        for ins in sched.instructions:
            if ins.kind == "measure":
                op = parse_op(ins.label)
                assert ins.bus == _ref_bus(b, required_edges(op, sched.qmap),
                                           op.is_eighth()), ins.label
                continue
            (pid,) = ins.patches
            if ins.kind == "move":
                b.move_patch(pid, ins.dst)
            else:
                b.rotate_patch(pid, ins.helper)
        assert b.key() == sched.final_board.key()


def _tile_map(board, dist):
    """A `_flood` list by tile id as the reference's map by tile."""
    return {board._tiles[i]: d for i, d in enumerate(dist) if d >= 0}


def _ref_x_pieces(board, nbrs, held, tile=None, src=None):
    """The ancilla's X-edge pieces, each flooded by the reference through
    the neighbour table nbrs, the occupied tiles being held."""
    occ = {*held, tile} - {src, None}
    (r, c), orient = board.ancilla
    pieces = []
    for x in sorted((r + dr, c + dc) for d, (dr, dc) in _STEPS
                    if edge_type(orient, d) == "X"):
        if (x in nbrs and x not in occ
                and all(x not in p for p in pieces)):
            pieces.append(frozenset(ref._flood(x, nbrs, held, tile, src)))
    return pieces


def _id_pieces(board, occ):
    """The board's `_x_pieces` under occ, as tile sets."""
    return [frozenset(board._tiles[i] for i in p)
            for p in board._x_pieces(occ)]


class TestIdFlood:
    """Floods on tile ids against the (row, col)-keyed reference."""

    @staticmethod
    def _non_square_board(data):
        rows, cols = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        assume(rows != cols and rows * cols >= 2)
        tiles = data.draw(st.lists(st.sampled_from(
            [(r, c) for r in range(rows) for c in range(cols)]),
            min_size=2, unique=True))
        return Board(rows, cols, (tiles[0], data.draw(st.sampled_from(
            ["h", "v"]))), tiles[1], {q: (t, data.draw(st.sampled_from(
                ["h", "v"]))) for q, t in enumerate(tiles[2:])})

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_floods_match_the_tuple_reference(self, data):
        """Every kept map, and every flood with a tile taken and a tile
        freed, holds the reference's distances tile for tile; so do the
        ancilla's X-edge pieces."""
        if data.draw(st.booleans()):
            b = _drawn_board(data)
        else:
            b = self._non_square_board(data)
        nbrs = {t: b.neighbors(t) for t in b._tiles}
        held = {b.ancilla.tile, *(p.tile for p in b.patches.values())}
        routing = [t for t in b._tiles if b.is_routing(t)]
        for t in routing:
            assert _tile_map(b, b.distances(t)) == ref._flood(t, nbrs, held)
        assert _id_pieces(b, b._occ) == _ref_x_pieces(b, nbrs, held)
        # the reference frees a tile only while it takes one
        taken = data.draw(st.sampled_from([None, *routing]))
        freed = taken and data.draw(st.sampled_from([None, *sorted(held)]))
        occ = b._occupied(taken and b._ids[taken], freed and b._ids[freed])
        for t in b._tiles:
            if not occ[b._ids[t]]:
                assert _tile_map(b, board_module._flood(
                    b._ids[t], b._nb, occ)) == ref._flood(
                        t, nbrs, held, taken, freed)
        if taken is not None:
            assert _id_pieces(b, occ) == _ref_x_pieces(b, nbrs, held, taken,
                                                       freed)

    @pytest.mark.parametrize("rows,cols", [(1, 7), (7, 1), (2, 7), (7, 2)])
    def test_id_table_is_the_neighbour_table(self, rows, cols):
        """Ids are row-major, each id's neighbours are the tile's own in
        N, E, S, W order, and a patch's edge ids of each type are its
        in-bounds outside tiles across edges of that type, row-major."""
        ids, tiles, nb = board_module._id_table(rows, cols)
        assert tiles == [(r, c) for r in range(rows) for c in range(cols)]
        assert all(ids[t] == t[0] * cols + t[1] for t in tiles)
        for i, (r, c) in enumerate(tiles):
            nesw = [(r - 1, c), (r, c + 1), (r + 1, c), (r, c - 1)]
            inside = [u for u in nesw if 0 <= u[0] < rows and 0 <= u[1] < cols]
            assert [tiles[j] for j in nb[i]] == inside
            for orient in ("h", "v"):
                edge_ids = board_module._edge_ids(
                    board_module.Patch((r, c), orient), rows, cols)
                for typ in "XZ":
                    assert [tiles[j] for j in edge_ids[typ]] == sorted(
                        u for d, u in zip("NESW", nesw)
                        if u in inside and edge_type(orient, d) == typ)

    def test_x_edge_tiles_are_read_once_per_state(self, monkeypatch):
        """design_layout(8, 64, 64) reads the ancilla's X-edge tiles at
        most once per board state, for delta and bound alike."""
        states, reads = [], []
        real_new, real_touch = Board._new_state, Board._touch_ids

        def new_state(b, *args):
            real_new(b, *args)
            states.append(b._dist)   # fresh per state; kept, so ids differ

        def touch(b, qid, typ):
            if (qid, typ) == (-1, "X"):
                reads.append(id(b._dist))
            return real_touch(b, qid, typ)

        monkeypatch.setattr(Board, "_new_state", new_state)
        monkeypatch.setattr(Board, "_touch_ids", touch)
        design_layout(8, 64, 64)
        assert reads and len(reads) == len(set(reads))


class TestLayoutText:
    @pytest.mark.parametrize("style,n", [("compact", 6), ("standard", 4),
                                         ("sparse", 9)])
    def test_builtin_round_trip(self, style, n):
        b = builtin_layout(style, n)
        again = parse_layout(format_layout(b))
        assert format_layout(again) == format_layout(b)
        assert again.port == b.port
        assert again.ancilla.tile == b.ancilla.tile

    def test_irregular_round_trip(self):
        b = irregular_demo()
        again = parse_layout(format_layout(b))
        assert {q: p.tile for q, p in again.patches.items()} == \
               {q: p.tile for q, p in b.patches.items()}

    def test_rejects_bad_token(self):
        with pytest.raises(LayoutParseError):
            parse_layout("Q0h ??\n. .\n")

    @pytest.mark.parametrize("tok", ["Q-1h", "Q+1h", "Q1_0h", "Q01h",
                                     "Q\u0663h", "Q00v", "Q-0h", "Qh"])
    def test_rejects_ids_format_layout_would_not_print(self, tok):
        """Ids are plain non-negative decimals; -1 is the ancilla's."""
        with pytest.raises(LayoutParseError):
            parse_layout(f"{tok} . Q5h\n. . .\nAh . M\n")

    @pytest.mark.parametrize("text,message", [
        ("Q0h . Q0h\n. . .\nAh . M\n", "patch 0 must occupy one tile"),
        ("Q0h . Q0v\n. . .\nAh . M\n", "patch 0 must occupy one tile"),
        ("Q0h . Ah\n. . .\nAh . M\n", "ancilla must occupy one tile"),
        ("Q0h . Av\n. . .\nAh . M\n", "ancilla must occupy one tile"),
    ], ids=["repeated-id", "repeated-id-mixed-orientation", "two-ancillas",
            "two-ancillas-mixed-orientation"])
    def test_rejects_a_repeated_patch_or_ancilla(self, text, message):
        with pytest.raises(LayoutParseError, match=f"^{message}$"):
            parse_layout(text)

    @pytest.mark.parametrize("text,message", [
        ("Q0h . .\n. . .\n. . M\n", "layout has no ancilla"),
        ("Q0h . .\n. . .\nAh . .\n", "layout has no magic port"),
        (". .\n", "layout has no ancilla"),
    ], ids=["no-ancilla", "no-port", "all-routing"])
    def test_refuses_a_layout_without_ancilla_or_port(self, text, message):
        with pytest.raises(LayoutParseError, match=f"^{message}$"):
            parse_layout(text)

    def test_refuses_a_repeat_at_its_token(self):
        # the repeat comes before the bad token, so it is the one named
        with pytest.raises(LayoutParseError, match="patch 0 must occupy"):
            parse_layout("Q0h Q0h ??\n. . .\nAh . M\n")

    def test_accepts_plain_decimal_ids(self):
        b = parse_layout("Q10h . Q0h\n. . .\nAh . M\n")
        assert sorted(b.patches) == [0, 10]
        assert format_layout(b) == "Q10h . Q0h\n. . .\nAh . M\n"
