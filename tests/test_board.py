"""Tile board model: patches, surgery moves, routing, layout text format."""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from lscompile.board import (
    Board,
    IllegalOpError,
    LayoutParseError,
    NoPathError,
    builtin_layout,
    bus_patches,
    _cut_tiles,
    edge_type,
    flipped,
    format_layout,
    irregular_demo,
    parse_layout,
)
from lscompile.layout_search import (
    LayoutDesignError,
    _density,
    _access_score,
    design_layout,
    layout_score,
)
from lscompile.pauli import PauliWord, rotation
from lscompile.scheduler import enabled_count

import copy_flood_reference as ref

W = PauliWord.from_string


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
            Board(0, 3)

    def test_out_of_bounds_patch(self):
        b = Board(2, 2)
        with pytest.raises(IllegalOpError):
            b.init_patch(0, (2, 0), "h")

    def test_double_occupancy(self):
        b = Board(3, 3)
        b.init_patch(0, (0, 0), "h")
        with pytest.raises(IllegalOpError):
            b.init_patch(1, (0, 0), "h")

    def test_port_must_stay_routing(self):
        b = Board(3, 3)
        b.init_patch(0, (0, 0), "h")
        with pytest.raises(IllegalOpError):
            b.set_port((0, 0))
        b.set_port((2, 2))
        with pytest.raises(IllegalOpError):
            b.init_patch(1, (2, 2), "h")

    def test_single_ancilla(self):
        b = Board(3, 3)
        b.place_ancilla((1, 1), "h")
        with pytest.raises(IllegalOpError):
            b.place_ancilla((0, 0), "h")

    def test_copy_is_independent(self):
        b = Board(3, 3)
        b.init_patch(0, (0, 0), "h")
        c = b.copy()
        c.move_patch(0, (0, 2))
        assert b.patches[0].tile == (0, 0)
        assert c.patches[0].tile == (0, 2)


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
        b = Board(3, 3)
        b.init_patch(0, (1, 1), "h")
        assert b.exposed_types(0) == {"X", "Z"}

    def test_walled_in_patch_sees_nothing(self):
        b = Board(1, 3)
        b.init_patch(0, (0, 0), "h")
        b.init_patch(1, (0, 1), "h")
        b.init_patch(2, (0, 2), "h")
        assert b.exposed_types(1) == set()


class TestRoutingComponents:
    def test_compact_is_one_component(self):
        b = builtin_layout("compact", 6)
        routing = {(r, c) for r in range(b.rows) for c in range(b.cols)
                   if b.is_routing((r, c))}
        assert b.a_component() == routing
        assert b.port in b.a_component()

    def test_tie_goes_to_the_row_major_first_component(self):
        b = Board(3, 3)
        b.place_ancilla((1, 1), "h")
        b.init_patch(0, (0, 0), "h")
        b.init_patch(1, (2, 2), "h")
        # {(0,1),(0,2),(1,2)} and {(1,0),(2,0),(2,1)} both touch the
        # ancilla's X and Z edges and an edge of both patches
        assert b.a_component() == {(0, 1), (0, 2), (1, 2)}
        assert b.reaches(0, "Z") and not b.reaches(0, "X")
        assert b.reaches(1, "X") and not b.reaches(1, "Z")

    def test_split_board_has_no_working_region(self):
        b = Board(3, 3)
        b.place_ancilla((0, 1), "h")
        b.init_patch(0, (1, 0), "h")
        b.init_patch(1, (1, 1), "h")
        b.init_patch(2, (1, 2), "h")
        # the free tiles beside the ancilla are cut off from the bottom row
        assert b.a_component() is None


def _fresh_component(board):
    return parse_layout(format_layout(board)).a_component()


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
        if free:
            b.move_patch(qid, data.draw(st.sampled_from(free)))
    else:
        b.rotate_patch(qid)


class TestKeptComponent:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_component_is_never_stale(self, data):
        """The kept component matches a fresh board after every mutation,
        and mutating one copy leaves every other board's answer alone."""
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
            before = [_fresh_component(o) for o in boards]
            try:
                _mutate(data, boards[i])
            except IllegalOpError:
                pass
            for j, o in enumerate(boards):
                if j != i:
                    assert o.a_component() == before[j]
                assert o.a_component() == _fresh_component(o)


def _check_access_with(board, qid, tile, orient):
    """access_with() agrees with the slow path, a copy with patch qid on
    tile in orient flooded afresh, and leaves the board alone."""
    layout, comp = format_layout(board), board.a_component()
    acc = board.access_with(qid, tile, orient)
    assert (format_layout(board), board.a_component()) == (layout, comp)
    trial = board.copy()
    if qid in trial.patches:
        trial.remove_patch(qid)
    trial.init_patch(qid, tile, orient)
    fresh = parse_layout(format_layout(trial))
    assert acc.comp == trial.a_component() == fresh.a_component()
    assert (trial.port in (acc.comp or ())) == (
        trial.port in (fresh.a_component() or ()))
    assert acc.density == _density(trial) == _density(fresh)
    score = 0.0 if acc.comp is None else _access_score(acc, 0.2)
    assert score == layout_score(trial) == layout_score(fresh)
    pids = sorted(trial.patches)
    for q in pids:
        for typ in ("X", "Z"):
            assert acc.reaches(q, typ) == fresh.reaches(q, typ)
    qmap = dict(enumerate(pids))
    for letter in "XZY":
        op = rotation(PauliWord.from_letters(len(pids), dict.fromkeys(
            range(len(pids)), letter)), 1)
        assert enabled_count(acc, qmap, op) == ref.enabled_count(fresh, qmap,
                                                                  op)


# (layout, patch id, tile, orient, whether a flooded copy answers)
DELTA_CASES = {
    # (0, 1) is a cut tile: (0, 0) is cut off and the board splits
    "cut-tile-disconnects": ("M . .\n. Q0h .\nAh . .\n", 1, (0, 1),
                             "h", True),
    # (0, 1) is a cut tile, but only an unused corner falls away; that
    # corner stays an X-edge tile of the ancilla, so the ancilla's
    # X-edge tiles then lie in two components
    "cut-tile-keeps-port": (". . . M Q0h\nAh . . . .\n. . . . .\n", 1,
                            (0, 1), "h", True),
    # freeing (0, 1) joins it to {(0, 0), (1, 0)}, a second component
    "freed-tile-meets-second-component": (
        ". Q1h . . .\n. Ah . . M\nQ0h . . . .\n", 1, (0, 2), "h", True),
    # the ancilla's X-edge tiles lie in two strict components; the tie
    # goes to the one holding (0, 0) until the new patch faces only the
    # other one
    "ancilla-x-tiles-split": (". . Q0h .\nM Av . .\nQ1v . . .\n", 9,
                              (0, 3), "h", True),
    # the ancilla's only X-edge tile is taken
    "last-ancilla-x-tile": ("Ah . .\n. . .\n. . M\n", 0, (1, 0), "h",
                            False),
    "plain-placement": ("Ah . .\n. . .\n. . M\n", 0, (1, 1), "v", False),
    "plain-move": ("Ah . . .\n. Q0h . .\n. . . M\n", 0, (1, 2), "h",
                   False),
    "reorientation": ("Ah . .\n. Q0h .\n. . M\n", 0, (1, 1), "v",
                      False),
}


def _start_board(data):
    style = data.draw(st.sampled_from(["compact", "standard", "sparse",
                                       "irregular", "designed", "scattered",
                                       "named"]))
    if style == "irregular":
        return irregular_demo()
    if style == "named":
        return parse_layout(DELTA_CASES[data.draw(st.sampled_from(
            sorted(DELTA_CASES)))][0])
    if style == "scattered":
        # anywhere, in any orientation: the ancilla's two X-edge tiles
        # can then land in two components
        b = Board(data.draw(st.integers(2, 5)), data.draw(st.integers(2, 6)))
        tiles = data.draw(st.lists(st.sampled_from(sorted(b._nbrs)),
                                   min_size=2, unique=True))
        b.place_ancilla(tiles[0], data.draw(st.sampled_from(["h", "v"])))
        b.set_port(tiles[1])
        for q, t in enumerate(tiles[2:]):
            b.init_patch(q, t, data.draw(st.sampled_from(["h", "v"])))
        return b
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
    """Board.access_with() against the slow path: a changed copy of the
    board, flooded afresh."""

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
        free = [t for t in sorted(board._nbrs)
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
        _check_access_with(board, qid, tile, orient)

    @pytest.mark.parametrize("name", sorted(DELTA_CASES))
    def test_named_change(self, name, monkeypatch):
        text, qid, tile, orient, floods = DELTA_CASES[name]
        board = parse_layout(text)
        board.access()
        copies = []
        real_copy = Board.copy
        monkeypatch.setattr(Board, "copy",
                            lambda b: copies.append(b) or real_copy(b))
        _check_access_with(board, qid, tile, orient)
        # the check itself makes one copy
        assert len(copies) == 1 + floods


class TestCutTiles:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_cut_tiles_split_the_component(self, data):
        board = _start_board(data)
        comp = board.a_component()
        if comp is None:
            return
        cut = _cut_tiles(comp, board._nbrs)
        for t in sorted(comp):
            rest = comp - {t}
            seen = _ref_bfs_within(rest, min(rest)) if rest else set()
            assert (t in cut) == (seen != rest)


def _ref_bfs_within(tiles, start):
    seen, queue = {start}, deque([start])
    while queue:
        r, c = queue.popleft()
        for _, (dr, dc) in _STEPS:
            nb = (r + dr, c + dc)
            if nb in tiles and nb not in seen:
                seen.add(nb)
                queue.append(nb)
    return seen


class TestMoveAndRotate:
    def test_move_sweeps_a_straight_corridor(self):
        b = Board(3, 3)
        b.init_patch(0, (0, 0), "h")
        swept = b.move_patch(0, (0, 2))
        assert swept == {(0, 0), (0, 1), (0, 2)}
        assert b.patches[0].tile == (0, 2)

    def test_move_routes_around_obstacles(self):
        b = Board(3, 3)
        b.init_patch(0, (0, 0), "h")
        b.init_patch(1, (0, 1), "h")
        swept = b.move_patch(0, (0, 2))
        assert (1, 0) in swept and b.patches[0].tile == (0, 2)

    def test_move_rejects_sealed_source(self):
        b = Board(3, 3)
        b.init_patch(0, (0, 0), "h")
        b.init_patch(1, (0, 1), "h")
        b.init_patch(2, (1, 0), "h")
        with pytest.raises(IllegalOpError):
            b.move_patch(0, (0, 2))

    def test_move_never_lands_on_port(self):
        b = Board(2, 2)
        b.init_patch(0, (0, 0), "h")
        b.set_port((1, 0))
        with pytest.raises(IllegalOpError):
            b.move_patch(0, (1, 0))

    def test_rotation_helper_prefers_north(self):
        b = Board(3, 3)
        b.init_patch(0, (1, 1), "h")
        assert b.rotation_helper(0) == (0, 1)

    def test_rotation_helper_may_borrow_port(self):
        """A cornered patch can still rotate through the port tile even
        though it could never move onto it."""
        b = Board(2, 2)
        b.init_patch(0, (0, 0), "h")
        b.init_patch(1, (0, 1), "h")
        b.set_port((1, 0))
        assert b.rotation_helper(0) == (1, 0)

    def test_rotation_helper_none_when_enclosed(self):
        b = Board(1, 3)
        b.init_patch(0, (0, 0), "h")
        b.init_patch(1, (0, 1), "h")
        b.init_patch(2, (0, 2), "h")
        assert b.rotation_helper(1) is None

    def test_rotate_flips_orientation(self):
        b = Board(3, 3)
        b.init_patch(0, (1, 1), "h")
        footprint = b.rotate_patch(0)
        assert footprint == {(1, 1), (0, 1)}
        assert b.patches[0].orient == "v"
        b.rotate_patch(0)
        assert b.patches[0].orient == "h"

    def test_rotate_rejects_bad_helper(self):
        b = Board(3, 3)
        b.init_patch(0, (0, 0), "h")
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


def _ref_corridor(board, src, dest):
    _, prev = _ref_bfs(board, [src])
    if dest not in prev:
        return None
    path = [dest]
    while path[-1] != src:
        path.append(prev[path[-1]])
    return path


def _drawn_board(data):
    """A builtin or demo board after a few drawn moves and rotations."""
    style = data.draw(st.sampled_from(["compact", "standard", "sparse",
                                       "irregular"]))
    if style == "irregular":
        b = irregular_demo()
    else:
        b = builtin_layout(style, data.draw(st.integers(1, 9)))
    for _ in range(data.draw(st.integers(0, 8))):
        try:
            _mutate(data, b, kinds=("move", "rotate"))
        except IllegalOpError:
            pass
    return b


def _outcome(route, *args):
    try:
        return route(*args)
    except NoPathError:
        return NoPathError


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

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_corridor_equals_reference(self, data):
        b = _drawn_board(data)
        for _ in range(data.draw(st.integers(1, 4))):
            free = sorted((r, c) for r in range(b.rows) for c in range(b.cols)
                          if _ref_routing(b, (r, c)) and (r, c) != b.port)
            if not free:
                return
            qid = data.draw(st.sampled_from(sorted(b.patches)))
            dest = data.draw(st.sampled_from(free))
            src = b.patches[qid].tile
            path = _ref_corridor(b, src, dest)
            assert b._corridor(src, dest) == path
            if path is not None:
                assert b.move_patch(qid, dest) == frozenset(path)


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
