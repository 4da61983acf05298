"""Surface-code tile board: typed patch edges, patch operations, bus routing.

Tiles form an N x M grid.  Every board has data patches, one ancilla
and one magic-state port, and is made in one call, `Board(rows, cols,
ancilla, port, patches)`: the ancilla, then the patches by id, then the
port, a routing tile that stays one.  Each patch occupies one tile and
carries an orientation: "h" puts Z-edges on E/W and X-edges on N/S, "v"
the opposite, and so for the ancilla.  Connectivity is judged strictly:
the board is connected when one single routing component touches an
exposed edge of every data patch and both typed edges of the ancilla.
Edge queries name the ancilla by patch id -1, the id its tile and its
instructions carry, so data patches have non-negative ids.
`LETTER_EDGES` is the one statement of which edge types a Pauli letter
needs.  A patch changes place only by a one-tile step onto a free
neighbour other than the port, and `Board.steps` is the one statement of
that rule; a rotation swaps its boundary labels in place.
`BUILTIN_LAYOUTS` names the builtin shapes.  Layout text is read in one
scan that refuses a second ancilla or a repeated patch id at its token,
and text without an ancilla or a port.

Each board state keeps its occupancy (a bytearray by tile id) and what
it works out on first use: its routing access (the strict component
and which patch edges face it), whether that holds every X-edge tile
of the ancilla (`_holds_x`), its distance maps (`distances`) and its
buses (`bus_patches`, successes only); `_new_state` starts them afresh
when a tile changes hands.  Under its key (source tile; terminal
patches as they stand) a map or bus depends only on which tiles are
occupied, so a copy shares its state's records and occupancy, never
mutated, until a tile change binds it fresh ones.
`_flood` is the one breadth-first search, and `Board._choose`
the one rule, with the one edge count, that picks the strict component.
`Board.delta` is the one statement of what a one-tile change (a
placement, a move or a reorientation) does to the access, in both
orientations.  A reorientation is read off the kept access.  Any other
change floods with the change in place and counts again the patches
beside the taken and the freed tile, and every patch only when the
component picked differs from the kept one beyond those two tiles.
It copies no board, and is None if no strict component is left;
`Board.bound` bounds it without a count.
`Board.place` makes such a change and carries the access through it.
A board state lives on row-major tile ids, ordered as the tiles are:
its occupancy, component, distance maps (lists by id) and bus routes,
through tables of neighbour ids per board shape (`_id_table`) and of
patch edge ids (`_edge_ids`); tuples appear only at public methods.
"""

from __future__ import annotations

import math
import re
from collections.abc import Callable
from functools import cache
from itertools import compress
from typing import NamedTuple

ORIENT_H = "h"   # Z on E/W, X on N/S
ORIENT_V = "v"   # Z on N/S, X on E/W

# fixed scan order for neighbors and rotation helpers
_DIRS = (("N", (-1, 0)), ("E", (0, 1)), ("S", (1, 0)), ("W", (0, -1)))

OP_COSTS = {"move": 1, "rotate": 3, "measure": 1}


class IllegalOpError(ValueError):
    """Patch operation precondition violated."""


class NoPathError(RuntimeError):
    """A required edge is unexposed or unreachable through routing space."""


class LayoutParseError(ValueError):
    """Malformed layout text."""


# edge types a Pauli letter must reach; Y needs both at once
LETTER_EDGES = {"X": ("X",), "Z": ("Z",), "Y": ("X", "Z")}


def edge_type(orient: str, direction: str) -> str:
    if orient == ORIENT_H:
        return "Z" if direction in ("E", "W") else "X"
    return "Z" if direction in ("N", "S") else "X"


class Patch(NamedTuple):
    """A single-tile patch; operations replace it rather than mutate it."""
    tile: tuple
    orient: str


def flipped(orient: str) -> str:
    return ORIENT_V if orient == ORIENT_H else ORIENT_H


class Access(NamedTuple):
    """Routing access of one board state.

    comp holds the strict component's tile ids; without one: `_NO_ACCESS`.
    counts maps each patch id to (X edges facing comp, Z edges facing
    comp, routing tiles touched); nx and nz count the patches with an X,
    resp. Z, edge on comp, and density sums the routing tiles touched.
    A board's own access is exact, and so is one a Delta gives.
    """
    comp: frozenset | None
    counts: dict
    nx: int
    nz: int
    density: int


_NO_ACCESS = Access(None, {}, 0, 0, 0)


class Delta(NamedTuple):
    """What putting patch qid on one tile does to the access (Board.delta).

    comp holds the new strict component's tile ids, and port says whether
    it holds the port.  counts maps the other patches the change reaches
    to their new counts, and nx, nz and density total all patches but
    qid, whose counts in "h" are own; "v" swaps X and Z.
    """
    qid: int
    base: Access
    comp: frozenset
    port: bool
    counts: dict
    nx: int
    nz: int
    density: int
    own: tuple

    def count(self, orient: str) -> tuple:
        """qid's Access.counts entry in orient."""
        x, z, touch = self.own
        return (x, z, touch) if orient == ORIENT_H else (z, x, touch)

    def totals(self, orient: str) -> tuple:
        """(nx, nz, density) of the changed board with qid in orient."""
        x, z, touch = self.count(orient)
        return self.nx + (x > 0), self.nz + (z > 0), self.density + touch

    def access(self, orient: str) -> Access:
        """The changed board's exact access, with qid in orient."""
        counts = {**self.base.counts, **self.counts,
                  self.qid: self.count(orient)}
        return Access(self.comp, counts, *self.totals(orient))


def best_first(ranked: list, exact: Callable) -> tuple | None:
    """(key, item) of the least exact(bound, item) key over the (bound,
    item) pairs ranked, no bound above its key, or None: in bound order
    until it beats the next bound (Land and Doig, Econometrica 1960)."""
    best = None
    for bound, item in sorted(ranked):
        if best is not None and best[0] < bound:
            break
        key = exact(bound, item)
        if key is not None and (best is None or key < best[0]):
            best = key, item
    return best


def _flood(start: int, nb: list, occ) -> list:
    """Breadth-first distance from the free tile id start to each tile id
    through the id neighbour table nb; -1 where occupied (occ) or unreached."""
    dist = [-1] * len(nb)
    dist[start] = 0
    queue = [start]
    for cur in queue:   # grows as it is read: the BFS queue
        d = dist[cur] + 1
        for n in nb[cur]:
            if dist[n] < 0 and not occ[n]:
                dist[n] = d
                queue.append(n)
    return dist


@cache
def _id_table(rows: int, cols: int) -> tuple:
    """(tile -> id, id -> tile, each id's in-bounds neighbour ids, N, E,
    S, W) for row-major ids r * cols + c; shared by a shape, never mutated."""
    tiles = [(r, c) for r in range(rows) for c in range(cols)]
    return {t: i for i, t in enumerate(tiles)}, tiles, [
        tuple((r + dr) * cols + c + dc for _, (dr, dc) in _DIRS
              if 0 <= r + dr < rows and 0 <= c + dc < cols)
        for r, c in tiles]


@cache
def _edge_ids(patch: Patch, rows: int, cols: int) -> dict:
    """Edge type -> the patch's in-bounds outside tile ids, row-major."""
    r, c = patch.tile
    out = [(edge_type(patch.orient, d), (r + dr) * cols + c + dc)
           for d, (dr, dc) in sorted(_DIRS, key=lambda d: d[1])
           if 0 <= r + dr < rows and 0 <= c + dc < cols]
    return {typ: tuple(i for t, i in out if t == typ) for typ in "XZ"}


class Board:
    """ancilla is a Patch or (tile, orient) pair; patches maps ids to such."""

    def __init__(self, rows: int, cols: int, ancilla, port, patches):
        if rows < 1 or cols < 1:
            raise ValueError("board dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.port = None      # set last, once every tile is claimed
        self._ids, self._tiles, self._nb = _id_table(rows, cols)
        self._at: dict = {}   # occupied tile id -> patch id, ancilla -1
        self._at[self._check(*ancilla)] = -1
        self.ancilla = Patch(*ancilla)
        for q in sorted(patches):   # claim every tile, then start one state
            if q < 0:
                raise IllegalOpError(f"patch id must be non-negative, got {q}")
            self._at[self._check(*patches[q])] = q
        self.patches = {q: Patch(*patches[q]) for q in sorted(patches)}
        self._new_state(bytearray(i in self._at for i in range(rows * cols)))
        if not self.is_routing(port):
            raise IllegalOpError(f"port tile {port} must be routing")
        self.port = port

    # --- basic geometry ---------------------------------------------------

    def in_bounds(self, tile) -> bool:
        return tile in self._ids

    def is_routing(self, tile) -> bool:
        """Empty in-bounds tile; the magic port stays routing."""
        return tile in self._ids and self._ids[tile] not in self._at

    def neighbors(self, tile) -> tuple:
        """In-bounds neighbours of an in-bounds tile, N, E, S, W."""
        return tuple(self._tiles[i] for i in self._nb[self._ids[tile]])

    def tile_count(self) -> int:
        return self.rows * self.cols

    def copy(self) -> "Board":
        b = object.__new__(Board)
        b.__dict__.update(self.__dict__)
        b.patches = dict(self.patches)
        b._at = dict(self._at)
        return b

    def key(self):
        """Canonical hashable snapshot of the mutable state."""
        return (tuple(sorted(self.patches.items())), self.ancilla)

    # --- placement --------------------------------------------------------

    def _new_state(self, occ: bytearray) -> None:
        """Bind fresh records for a new state with the occupancy occ;
        shared ones are never mutated."""
        self._occ = occ
        self._acc = self._held = None  # access, _holds_x
        self._dist: dict = {}  # routing tile id -> its _flood
        self._bus: dict = {}   # bus_patches() key -> routed bus

    def _occupied(self, take=None, free=None) -> bytearray:
        """A copy of the occupancy with tile id take taken and free freed."""
        occ = bytearray(self._occ)
        if take is not None:
            occ[take] = 1
        if free is not None:
            occ[free] = 0
        return occ

    def _check(self, tile, orient: str) -> int:
        """tile's id; refuse a bad orientation or a tile none may claim."""
        if orient not in (ORIENT_H, ORIENT_V):
            raise IllegalOpError(f"bad orientation {orient!r}")
        i = self._ids.get(tile)
        if i is None:
            raise IllegalOpError(f"tile {tile} out of bounds")
        if i in self._at:
            raise IllegalOpError(f"tile {tile} already occupied")
        if tile == self.port:
            raise IllegalOpError("magic port tile must stay routing")
        return i

    def init_patch(self, qid: int, tile, orient: str) -> None:
        """Create a fresh patch; zero clock cost."""
        if qid < 0:
            raise IllegalOpError(f"patch id must be non-negative, got {qid}")
        if qid in self.patches:
            raise IllegalOpError(f"patch {qid} already exists")
        self.place(qid, tile, orient)

    def place(self, qid: int, tile, orient: str) -> None:
        """Put patch qid, new or not, on tile in orient, the change that
        delta(qid, tile) scores.  A new state starts when a tile changes
        hands; a kept access is carried through, read off the delta."""
        old = self.patches.get(qid)
        moved = old is None or old.tile != tile
        if moved:
            i = self._check(tile, orient)
        delta = self._acc is not None and self.delta(qid, tile)
        if moved:
            src = old and self._ids[old.tile]
            if old is not None:
                del self._at[src]
            self._at[i] = qid
            self._new_state(self._occupied(i, src))
        self.patches[qid] = Patch(tile, orient)
        if delta is not False:   # an access was kept: carry it through
            self._acc = delta.access(orient) if delta else _NO_ACCESS

    def remove_patch(self, qid: int) -> None:
        i = self._ids[self.patches.pop(qid).tile]
        del self._at[i]
        self._new_state(self._occupied(None, i))

    # --- patch operations -------------------------------------------------

    def steps(self, qid: int) -> list:
        """Tiles patch qid may step onto: free neighbours but the port."""
        port, occ = self._ids[self.port], self._occ
        return [self._tiles[u] for u in self._nb[self._ids[
            self.patches[qid].tile]] if not occ[u] and u != port]

    def move_patch(self, qid: int, dest) -> frozenset:
        """Step patch qid onto dest, one of steps(qid); cost 1.

        Returns the swept tile set {source, dest}.
        """
        p = self.patches[qid]
        if dest not in self.steps(qid):
            raise IllegalOpError(f"{dest} is not a free step from {p.tile}")
        self.place(qid, dest, p.orient)
        return frozenset((p.tile, dest))

    def rotation_helper(self, qid: int):
        """First free routing neighbor in N,E,S,W order, or None."""
        return next((self._tiles[u] for u in self._nb[self._ids[
            self.patches[qid].tile]] if not self._occ[u]), None)

    def rotate_patch(self, qid: int, helper) -> frozenset:
        """Swap the patch's X/Z boundary labels; cost 3 (three sub-slices).

        Needs helper, an adjacent free routing tile such as
        rotation_helper(qid), which is occupied for the whole operation.
        Returns the footprint {patch tile, helper tile}.
        """
        p = self.patches[qid]
        h = self._ids.get(helper)
        if h not in self._nb[self._ids[p.tile]] or self._occ[h]:
            raise IllegalOpError(f"helper tile {helper} not free routing neighbor")
        self.place(qid, p.tile, flipped(p.orient))
        return frozenset([p.tile, helper])

    # --- edges and exposure -----------------------------------------------

    def touch_tiles(self, qid: int, typ: str) -> list:
        """Routing tiles across the typ edges of patch qid, or of the
        ancilla for -1, in row-major order."""
        return [self._tiles[i] for i in self._touch_ids(qid, typ)]

    def _touch_ids(self, qid: int, typ: str) -> list:
        p = self.ancilla if qid == -1 else self.patches[qid]
        return [i for i in _edge_ids(p, self.rows, self.cols)[typ]
                if not self._occ[i]]

    def exposed_types(self, qid: int) -> set:
        return {t for t in "XZ" if self._touch_ids(qid, t)}

    # --- connectivity -----------------------------------------------------

    def distances(self, tile) -> list:
        """The routing tile's `_flood`, kept per state, never mutated."""
        return self._kept(self._ids[tile])

    def _kept(self, i: int) -> list:
        dist = self._dist.get(i)
        if dist is None:
            dist = self._dist[i] = _flood(i, self._nb, self._occ)
        return dist

    def a_component(self):
        """The single routing component realizing strict connectivity, as
        (row, col) tiles, or None.

        The component must touch the ancilla's X-edge and Z-edge and at
        least one exposed edge of every data patch.  Should two qualify,
        the one holding the row-major-first tile wins (`_choose`).  A
        stale state is flooded here, and its whole access() worked out
        in the same pass.
        """
        if self._acc is None:
            self._acc = _NO_ACCESS
            occ = self._occ
            if found := self._choose(self._x_pieces(occ), self.patches, occ):
                piece, counts = found
                self._acc = Access(piece, counts,
                                   sum(c[0] > 0 for c in counts.values()),
                                   sum(c[1] > 0 for c in counts.values()),
                                   sum(c[2] for c in counts.values()))
        comp = self._acc.comp   # never empty: it holds an X-edge tile
        return comp and frozenset(map(self._tiles.__getitem__, comp))

    def access(self) -> Access:
        """Routing access of the current state, kept until a tile changes
        hands and carried through rotations."""
        if self._acc is None:
            self.a_component()
        return self._acc

    def _x_pieces(self, occ) -> list:
        """The tile ids of each routing component holding an X-edge tile
        of the ancilla (at most two) under the occupancy occ; the board's
        own occupancy reads its kept distance maps."""
        floods: list = []
        for i in _edge_ids(self.ancilla, self.rows, self.cols)["X"]:
            if not occ[i] and all(f[i] < 0 for f in floods):
                floods.append(self._kept(i) if occ is self._occ
                              else _flood(i, self._nb, occ))
        return [frozenset(compress(range(len(f)), map((-1).__lt__, f)))
                for f in floods]

    def _choose(self, pieces, patches, occ) -> tuple | None:
        """(piece, counts) for the strict component: the first of pieces,
        least id first, facing the ancilla's X and Z edges and an edge of
        every patch in patches (id -> Patch), under the occupancy occ;
        None if none does, each given up at the first patch facing none
        of it.  counts maps each id in patches to its Access.counts entry
        against that piece."""
        rows, cols = self.rows, self.cols

        def count(p):   # p's counts entry against piece
            x = z = touch = 0
            ids = _edge_ids(p, rows, cols)
            for i in ids["X"]:
                x += i in piece
                touch += not occ[i]
            for i in ids["Z"]:
                z += i in piece
                touch += not occ[i]
            return x, z, touch

        if len(pieces) > 1:
            pieces = sorted(pieces, key=min)
        for piece in pieces:
            if all(count(self.ancilla)[:2]):
                counts = {}
                for q, p in patches.items():
                    c = counts[q] = count(p)
                    if not c[0] + c[1]:
                        break
                else:
                    return piece, counts
        return None

    # --- one-tile changes -------------------------------------------------

    def _holds_x(self) -> bool:
        """Whether the strict component holds the ancilla's X-edge tiles."""
        if self._held is None:
            comp = self.access().comp
            self._held = comp is not None and comp.issuperset(
                self._touch_ids(-1, "X"))
        return self._held

    def delta(self, qid: int, tile) -> Delta | None:
        """What putting patch qid on tile does to the access, in either
        orientation: a placement when qid is new, a reorientation when
        tile is qid's own, and otherwise a move to tile, a free routing
        tile other than the port.  None when the changed board has no
        strict component.  The board is left unchanged.

        A reorientation swaps qid's X and Z counts and changes nothing
        else.  Any other change floods the pieces holding the ancilla's
        X-edge tiles with the change in place (`_x_pieces`); `_choose`
        counts again the patches beside the taken and the freed tile, or
        every patch if the piece differs from the kept one beyond those.
        """
        base = self.access()
        comp, ids, at = base.comp, self._ids, self._at
        old = self.patches.get(qid)
        if old is not None and old.tile == tile:
            if comp is None:
                return None
            x, z, touch = own = base.counts[qid]
            if old.orient == ORIENT_V:
                own = (z, x, touch)
            return Delta(qid, base, comp, ids[self.port] in comp, {},
                         base.nx - (x > 0), base.nz - (z > 0),
                         base.density - touch, own)
        i, src = ids[tile], old and ids[old.tile]
        occ = self._occupied(i, src)
        pieces, new = self._x_pieces(occ), Patch(tile, ORIENT_H)
        near = {at[v]: self.patches[at[v]] for u in (i, src)
                if u is not None for v in self._nb[u] if at.get(v, -1) >= 0}
        found = self._choose(pieces, {**near, qid: new}, occ)
        if found and (comp is None or not (found[0] ^ comp) <= {i, src}):
            found = self._choose(pieces, {**self.patches, qid: new}, occ)
        if found is None:
            return None
        piece, counts = found
        own = counts.pop(qid)
        nx, nz, density = base.nx, base.nz, base.density
        # the totals less qid's own counts, with the changed ones
        for q, c in [*counts.items(), (qid, (0, 0, 0))]:
            b = base.counts.get(q, (0, 0, 0))
            nx += (c[0] > 0) - (b[0] > 0)
            nz += (c[1] > 0) - (b[1] > 0)
            density += c[2] - b[2]
        return Delta(qid, base, piece, ids[self.port] in piece, counts, nx,
                     nz, density, own)

    def bound(self, qid: int, tile) -> tuple | None:
        """(density, gainers) of the change delta(qid, tile) scores, with
        no count: its exact density, and qid and the patches beside its
        freed tile, the only ones whose X or Z count can rise: the new
        component lies in the kept one plus that tile, less tile.  None
        where that need not hold, and on a board without a component."""
        acc, at, nb = self.access(), self._at, self._nb
        old = self.patches.get(qid)
        if acc.comp is None or old is not None and old.tile == tile:
            return None if acc.comp is None else (acc.density, {qid})
        i, src = self._ids[tile], old and self._ids[old.tile]
        beside = nb[src] if old else ()
        if not self._holds_x() or any(
                u != i and u not in at and u not in acc.comp for u in beside):
            return None
        density = acc.density - (old is not None and acc.counts[qid][2])
        for u in nb[i]:   # qid's touches, less its new neighbours'
            density += 1 if u not in at or u == src else -(at[u] >= 0)
        gainers = {qid, *(at[u] for u in beside if at.get(u, -1) >= 0)}
        return density + len(gainers) - 1, gainers


# --- bus routing ----------------------------------------------------------

def bus_patches(board: Board, required, include_port: bool = False) -> frozenset:
    """Connected routing-tile set touching every required (patch, edge type)
    boundary plus the ancilla's X and Z edges (and the magic port if asked),
    routed once per board state: the board keeps each bus under the
    terminal patches as they stand.  A failure raises `NoPathError` and is
    not kept; a new ask routes afresh."""
    key = (tuple((q, t, board.patches.get(q)) for q, t in required),
           include_port)
    bus = board._bus.get(key)
    if bus is None:
        bus = board._bus[key] = _route_bus(board, required, include_port)
    return bus


def _route_bus(board: Board, required, include_port: bool) -> frozenset:
    """Sequential shortest paths with already-selected tiles at zero cost, a
    standard Steiner-tree heuristic, on the board's kept distance maps.
    Each terminal joins through its option nearest the tree (the first in
    sorted order on a tie), from the least tree tile at that distance,
    stepping each time to the first neighbour in N, E, S, W order one
    tile nearer the option; all on row-major tile ids, ordered as tiles.
    """
    tiles = board._tiles
    terminals = []
    for qid, typ in [*required, (-1, "X"), (-1, "Z")]:
        opts = board._touch_ids(qid, typ)
        if not opts:
            name = "ancilla" if qid == -1 else f"patch {qid}"
            raise NoPathError(f"{name} has no exposed {typ}-edge")
        terminals.append(opts)
    if include_port:
        terminals.append([board._ids[board.port]])

    tree: set = set()
    comp, nb = board.access().comp, board._nb
    for opts in terminals:
        if not tree.isdisjoint(opts):
            continue
        if not tree:
            # seed inside the main routing component, else any option
            inside = [t for t in opts if comp and t in comp]
            tree.add(min(inside) if inside else min(opts))
            continue
        best = None
        for t in opts:
            dist = board._kept(t)
            near = None   # the least tree tile at the least distance d
            for s in tree:
                ds = dist[s]
                if ds >= 0 and (near is None or ds < d or ds == d and s < near):
                    d, near = ds, s
            if near is not None and (best is None or d < best[0]):
                best = d, near, dist
        if best is None:
            raise NoPathError("no routing path to terminal options "
                              f"{[tiles[t] for t in opts]}")
        d, cur, dist = best
        while d:
            d -= 1
            for cur in nb[cur]:
                if dist[cur] == d:
                    break
            tree.add(cur)
    return frozenset([tiles[t] for t in tree])


# --- fixed-shape boards ---------------------------------------------------

def _compact_layout(n: int) -> Board:
    """Two data rows of adjacent patch pairs with one routing row between.

    Pair p of qubits (2p, 2p+1) goes to column block 3*((p+1)//2), on
    the top row when p is even and on the bottom row when it is odd; the
    ancilla sits at (2, 2) and the magic port at (2, 0).
    """
    spots = [(2 * (p % 2), 3 * ((p + 1) // 2) + off)
             for p, off in (divmod(q, 2) for q in range(n))]
    cols = max(3, *(c + 1 for _, c in spots))
    return Board(3, cols, Patch((2, 2), ORIENT_H), (2, 0),
                 {q: Patch(t, ORIENT_H) for q, t in enumerate(spots)})


def _grid(n: int) -> tuple:
    """(k, data rows) for n patches k to a row, k = ceil(sqrt(n))."""
    k = math.isqrt(n - 1) + 1
    return k, -(-n // k)


def _standard_layout(n: int) -> Board:
    """Routing border ring with packed data rows on odd rows."""
    k, data_rows = _grid(n)
    h, w = 2 * data_rows + 1, k + 2
    return Board(h, w, Patch((h - 1, 0), ORIENT_H), (h - 1, w - 1),
                 {q: Patch((2 * (q // k) + 1, q % k + 1), ORIENT_H)
                  for q in range(n)})


def _sparse_layout(n: int) -> Board:
    """Patches on every other tile so both edge types stay exposed."""
    k, data_rows = _grid(n)
    # a single data row would leave the tile beside the ancilla stranded
    h, w = max(3, 2 * data_rows), 2 * k
    return Board(h, w, Patch((h - 1, w - 1), ORIENT_H), (h - 1, 0),
                 {q: Patch((2 * (q // k), 2 * (q % k)), ORIENT_H)
                  for q in range(n)})


BUILTIN_LAYOUTS = {"compact": _compact_layout, "standard": _standard_layout,
                   "sparse": _sparse_layout}


def builtin_layout(style: str, n: int) -> Board:
    if n < 1:
        raise ValueError("need at least one qubit")
    if style not in BUILTIN_LAYOUTS:
        raise ValueError(f"unknown layout style {style!r}")
    return BUILTIN_LAYOUTS[style](n)


def irregular_demo() -> Board:
    """Hand-shaped six-qubit demo board used in the docs and golden tests."""
    return Board(3, 5, Patch((2, 3), ORIENT_V), (2, 0), dict(enumerate([
        Patch((0, 0), ORIENT_H), Patch((0, 1), ORIENT_V),
        Patch((0, 2), ORIENT_V), Patch((2, 1), ORIENT_V),
        Patch((2, 2), ORIENT_V), Patch((0, 3), ORIENT_V)])))


# --- layout text format ---------------------------------------------------

def format_layout(board: Board) -> str:
    """Grid text: '.' routing, 'Q<n><o>' patch, 'A<o>' ancilla, 'M' port."""
    tok = {board.port: "M", board.ancilla.tile: f"A{board.ancilla.orient}"}
    tok.update((p.tile, f"Q{q}{p.orient}") for q, p in board.patches.items())
    return "".join(" ".join(tok.get((r, c), ".") for c in range(board.cols))
                   + "\n" for r in range(board.rows))


# the id as format_layout prints it: plain decimal, no sign or leading zero
_PATCH_TOKEN = re.compile(r"Q(0|[1-9][0-9]*)([hv])")


def parse_layout(text: str) -> Board:
    """Inverse of format_layout; malformed text raises LayoutParseError,
    or IllegalOpError for a tile the board rules forbid."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise LayoutParseError("empty layout")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise LayoutParseError("ragged layout rows")
    ancilla = port = None
    patches: dict[int, Patch] = {}
    for r, row in enumerate(rows):
        for c, tok in enumerate(row):
            if tok == ".":
                continue
            if tok == "M":
                if port is not None:
                    raise LayoutParseError("multiple port tiles")
                port = (r, c)
            elif tok.startswith("A"):
                if tok[1:] not in (ORIENT_H, ORIENT_V):
                    raise LayoutParseError(f"bad ancilla token {tok!r}")
                if ancilla is not None:
                    raise LayoutParseError("ancilla must occupy one tile")
                ancilla = Patch((r, c), tok[1:])
            elif tok.startswith("Q"):
                m = _PATCH_TOKEN.fullmatch(tok)
                if m is None:
                    raise LayoutParseError(f"bad patch token {tok!r}")
                q = int(m[1])
                if q in patches:
                    raise LayoutParseError(f"patch {q} must occupy one tile")
                patches[q] = Patch((r, c), m[2])
            else:
                raise LayoutParseError(f"unknown tile token {tok!r}")
    if ancilla is None:
        raise LayoutParseError("layout has no ancilla")
    if port is None:
        raise LayoutParseError("layout has no magic port")
    return Board(len(rows), width, ancilla, port, patches)
