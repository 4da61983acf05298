"""Surface-code tile board: typed patch edges, patch operations, bus routing.

Tiles form an N x M grid.  Each data patch occupies one tile and
carries an orientation: "h" puts Z-edges on E/W and X-edges on
N/S, "v" the opposite.  The ancilla patch sits at a fixed tile with the
same orientation rule.  A designated routing tile acts as the magic-state
port.  Connectivity is judged strictly: the board is connected when one
single routing component touches an exposed edge of every data patch and
both typed edges of the ancilla.  That strict component is worked out on
first use and kept until the next patch mutation, as is the board's
routing access: which patch edges face the component, and the
component's cut tiles.  From the kept access, the access after a
one-tile change (a placement, a move or a reorientation) is worked out
without copying the board or flooding it again.  Routing walks a
neighbour table built once per board shape and reads each patch's edges
from a table keyed by the immutable patch.
"""

from __future__ import annotations

from collections import deque
from functools import cache
from typing import NamedTuple

ORIENT_H = "h"   # Z on E/W, X on N/S
ORIENT_V = "v"   # Z on N/S, X on E/W

# fixed scan order for neighbors and rotation helpers
_DIRS = (("N", (-1, 0)), ("E", (0, 1)), ("S", (1, 0)), ("W", (0, -1)))

OP_COSTS = {"move": 1, "rotate": 3, "measure": 1}

_STALE = object()   # the strict component must be worked out again
_NONE = frozenset()


class IllegalOpError(ValueError):
    """Patch operation precondition violated."""


class NoPathError(RuntimeError):
    """A required edge is unexposed or unreachable through routing space."""


class LayoutParseError(ValueError):
    """Malformed layout text."""


def edge_type(orient: str, direction: str) -> str:
    if orient == ORIENT_H:
        return "Z" if direction in ("E", "W") else "X"
    return "Z" if direction in ("N", "S") else "X"


class Patch(NamedTuple):
    """A single-tile patch; operations replace it rather than mutate it."""
    tile: tuple
    orient: str


@cache
def _edges(patch: Patch) -> tuple:
    """(edge type, outside tile) for the patch's four edges, N, E, S, W."""
    r, c = patch.tile
    return tuple((edge_type(patch.orient, d), (r + dr, c + dc))
                 for d, (dr, dc) in _DIRS)


def flipped(orient: str) -> str:
    return ORIENT_V if orient == ORIENT_H else ORIENT_H


class Access(NamedTuple):
    """Routing access of one board state.

    comp is the strict component, or None.  counts maps each patch id to
    (X edges facing comp, Z edges facing comp, routing tiles touched);
    nx and nz count the patches with an X, resp. Z, edge on comp, and
    density sums the routing tiles touched.  Without a component only
    the touched tiles and density are kept up to date.
    """
    comp: frozenset | None
    counts: dict
    nx: int
    nz: int
    density: int

    def reaches(self, qid: int, typ: str) -> bool:
        """Board.reaches(qid, typ) of the state."""
        return self.comp is not None and self.counts[qid][typ == "Z"] > 0


def _count(patch: Patch, comp, nbrs, occ) -> tuple:
    """The patch's Access.counts entry, given comp and the occupied tiles."""
    x = z = touch = 0
    for typ, out in _edges(patch):
        if out in comp:
            if typ == "X":
                x += 1
            else:
                z += 1
        if out in nbrs and out not in occ:
            touch += 1
    return x, z, touch


def _cut_tiles(comp: frozenset, nbrs: dict) -> frozenset:
    """Tiles whose removal splits comp: its articulation points, from one
    iterative depth-first search (Hopcroft and Tarjan, CACM 1973)."""
    root = min(comp)
    disc = {root: 0}
    low = {root: 0}
    cut = set()
    root_children = 0
    stack = [(root, None, iter(nbrs[root]))]
    while stack:
        v, parent, it = stack[-1]
        for w in it:
            if w not in comp:
                continue
            if w not in disc:
                disc[w] = low[w] = len(disc)
                stack.append((w, v, iter(nbrs[w])))
                break
            if w != parent and disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if parent == root:
                root_children += 1
            elif parent is not None:
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] >= disc[parent]:
                    cut.add(parent)
    if root_children > 1:
        cut.add(root)
    return frozenset(cut)


@cache
def _neighbour_table(rows: int, cols: int) -> dict:
    """Every tile's in-bounds neighbours in N, E, S, W order.

    Boards of one shape share the table, so it is never mutated.
    """
    return {(r, c): tuple((r + dr, c + dc) for _, (dr, dc) in _DIRS
                          if 0 <= r + dr < rows and 0 <= c + dc < cols)
            for r in range(rows) for c in range(cols)}


class _Kept:
    """What access_with() reads of one board state: its access, the
    patch on each patch tile, whether the ancilla's X-edge tiles all lie
    in the strict component, the ancilla's outside tiles, and the
    component's cut tiles."""
    __slots__ = ("acc", "at", "one_component", "ancilla_tiles", "_cut")

    def __init__(self, board: "Board", acc: Access):
        self.acc = acc
        self.at = {p.tile: q for q, p in board.patches.items()}
        self.one_component = acc.comp is not None and all(
            x in acc.comp for x in board.ancilla_touch("X"))
        anc = board.ancilla
        self.ancilla_tiles = (frozenset(o for _, o in _edges(anc))
                              if anc else _NONE)
        self._cut = None

    def cut_tiles(self, nbrs: dict) -> frozenset:
        if self._cut is None:
            self._cut = _cut_tiles(self.acc.comp, nbrs)
        return self._cut


class Board:
    def __init__(self, rows: int, cols: int):
        if rows < 1 or cols < 1:
            raise ValueError("board dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.patches: dict[int, Patch] = {}
        self.ancilla: Patch | None = None
        self.port: tuple | None = None
        self._nbrs = _neighbour_table(rows, cols)
        self._occ: set = set()   # tiles held by a patch or the ancilla
        self._comp = _STALE       # a_component() of the current state
        self._kept = None         # what access_with() reads, or None

    # --- basic geometry ---------------------------------------------------

    def in_bounds(self, tile) -> bool:
        r, c = tile
        return 0 <= r < self.rows and 0 <= c < self.cols

    def is_routing(self, tile) -> bool:
        """Empty in-bounds tile; the magic port stays routing."""
        return tile in self._nbrs and tile not in self._occ

    def neighbors(self, tile) -> tuple:
        """In-bounds neighbours of an in-bounds tile, N, E, S, W."""
        return self._nbrs[tile]

    def tile_count(self) -> int:
        return self.rows * self.cols

    def copy(self) -> "Board":
        b = Board(self.rows, self.cols)
        b.patches = dict(self.patches)
        b.ancilla = self.ancilla
        b.port = self.port
        b._occ = set(self._occ)
        b._comp = self._comp
        b._kept = self._kept
        return b

    def key(self):
        """Canonical hashable snapshot of the mutable state."""
        return (tuple(sorted(self.patches.items())), self.ancilla)

    # --- placement --------------------------------------------------------

    def _claim(self, tile):
        if not self.in_bounds(tile):
            raise IllegalOpError(f"tile {tile} out of bounds")
        if tile in self._occ:
            raise IllegalOpError(f"tile {tile} already occupied")
        if tile == self.port:
            raise IllegalOpError("magic port tile must stay routing")
        self._occ.add(tile)
        self._comp = _STALE
        self._kept = None

    def init_patch(self, qid: int, tile, orient: str, state: str = "|0>") -> None:
        """Create a fresh patch; zero clock cost."""
        if qid in self.patches:
            raise IllegalOpError(f"patch {qid} already exists")
        if orient not in (ORIENT_H, ORIENT_V):
            raise IllegalOpError(f"bad orientation {orient!r}")
        if state not in ("|0>", "|+>"):
            raise IllegalOpError(f"bad init state {state!r}")
        self._claim(tile)
        self.patches[qid] = Patch(tile, orient)

    def place_ancilla(self, tile, orient: str) -> None:
        if self.ancilla is not None:
            raise IllegalOpError("ancilla already placed")
        self._claim(tile)
        self.ancilla = Patch(tile, orient)

    def set_port(self, tile) -> None:
        if not self.is_routing(tile):
            raise IllegalOpError(f"port tile {tile} must be routing")
        self.port = tile

    def remove_patch(self, qid: int) -> None:
        self._occ.remove(self.patches.pop(qid).tile)
        self._comp = _STALE
        self._kept = None

    # --- patch operations -------------------------------------------------

    def move_patch(self, qid: int, dest) -> frozenset:
        """Expand-and-shrink composite along a free corridor; cost 1.

        Returns the swept tile set (source, corridor, destination).
        """
        p = self.patches[qid]
        src = p.tile
        if dest == self.port:
            raise IllegalOpError("magic port tile must stay routing")
        if not self.is_routing(dest):
            raise IllegalOpError(f"move destination {dest} not free routing")
        path = self._corridor(src, dest)
        if path is None:
            raise IllegalOpError(f"no free corridor from {src} to {dest}")
        self._occ.remove(src)
        self._occ.add(dest)
        self.patches[qid] = Patch(dest, p.orient)
        self._comp = _STALE
        self._kept = None
        return frozenset(path)

    def _corridor(self, src, dest):
        """Shortest routing path from dest back to src (both kept), or None."""
        _, prev = _bfs_from(self, [src], (dest,))
        if dest not in prev:
            return None
        path = [dest]
        while path[-1] != src:
            path.append(prev[path[-1]])
        return path

    def rotation_helper(self, qid: int):
        """First free routing neighbor in N,E,S,W order, or None."""
        return next((t for t in self._nbrs[self.patches[qid].tile]
                     if t not in self._occ), None)

    def rotate_patch(self, qid: int, helper=None) -> frozenset:
        """Swap the patch's X/Z boundary labels; cost 3 (three sub-slices).

        Needs one adjacent free routing tile which is occupied for the
        whole operation.  Returns the footprint {patch tile, helper tile}.
        """
        p = self.patches[qid]
        if helper is None:
            helper = self.rotation_helper(qid)
            if helper is None:
                raise IllegalOpError(f"no free routing tile adjacent to patch {qid}")
        else:
            if helper not in self.neighbors(p.tile) or not self.is_routing(helper):
                raise IllegalOpError(f"helper tile {helper} not free routing neighbor")
        # the strict component stands: no tile changed hands, and it asks
        # for an edge of any type on every data patch
        self.patches[qid] = Patch(p.tile, flipped(p.orient))
        self._kept = None
        return frozenset([p.tile, helper])

    # --- edges and exposure -----------------------------------------------

    def _touch(self, patch: Patch, typ: str | None = None) -> list:
        """Routing tiles across the patch's edges of type typ (any if None)."""
        # a single tile's four outside tiles are distinct
        return sorted(out for t, out in _edges(patch)
                      if (typ is None or t == typ) and self.is_routing(out))

    def touch_tiles(self, qid: int, typ: str | None = None) -> list:
        """Routing tiles across the patch's edges of type typ (any if None)."""
        return self._touch(self.patches[qid], typ)

    def exposed_types(self, qid: int) -> set:
        p = self.patches[qid]
        return {t for t, out in _edges(p) if self.is_routing(out)}

    def ancilla_touch(self, typ: str) -> list:
        if self.ancilla is None:
            return []
        return self._touch(self.ancilla, typ)

    # --- connectivity -----------------------------------------------------

    def _on(self, comp, patch: Patch, typ: str | None = None) -> bool:
        """Whether an edge of the patch of type typ (any if None) faces comp."""
        return any(out in comp for t, out in _edges(patch)
                   if typ is None or t == typ)

    def a_component(self):
        """The single routing component realizing strict connectivity, or None.

        The component must touch the ancilla's X-edge and Z-edge and at
        least one exposed edge of every data patch.  Should two qualify,
        the one holding the row-major-first tile wins.  The answer is a
        frozenset kept until the next patch mutation.
        """
        if self._comp is _STALE:
            # flood from the ancilla's X-edge tiles (at most two)
            comps = []
            for x in self.ancilla_touch("X"):
                if not any(x in comp for comp in comps):
                    comps.append(frozenset(_bfs_from(self, [x])[0]))
            strict = [comp for comp in comps
                      if self._on(comp, self.ancilla, "Z")
                      and all(self._on(comp, p) for p in self.patches.values())]
            self._comp = min(strict, key=min, default=None)
        return self._comp

    def reaches(self, qid: int, typ: str) -> bool:
        """Whether patch qid has a typ edge on the strict component."""
        # read the kept answer directly; a_component() works out a stale one
        comp = self.a_component() if self._comp is _STALE else self._comp
        return comp is not None and self._on(comp, self.patches[qid], typ)

    # --- routing access and one-tile changes ------------------------------

    def access(self) -> Access:
        """Routing access of the current state, kept like a_component()."""
        if self._kept is None:
            comp = self.a_component()
            counts = {q: _count(p, comp or _NONE, self._nbrs, self._occ)
                      for q, p in self.patches.items()}
            self._kept = _Kept(self, Access(
                comp, counts, sum(c[0] > 0 for c in counts.values()),
                sum(c[1] > 0 for c in counts.values()),
                sum(c[2] for c in counts.values())))
        return self._kept.acc

    def access_with(self, qid: int, tile, orient: str) -> Access:
        """The access of this board with patch qid on tile in orient.

        That is a placement when qid is new, a reorientation when tile
        is qid's own, and otherwise a move to tile, which must be a free
        routing tile other than the port.  The board is left unchanged.
        The strict component loses tile and gains the freed tile if that
        borders it, unless tile is a cut tile of the component, the
        freed tile touches routing space outside it, or the ancilla's
        X-edge tiles lie in two components; then a changed copy is
        flooded.  Only the patches next to a tile that changed hands or
        left or joined the component are counted again.
        """
        base = self.access()
        kept = self._kept
        at, nbrs, occ, comp = kept.at, self._nbrs, self._occ, base.comp
        old = self.patches.get(qid)
        src = old.tile if old is not None else None
        changed = {qid}
        if src != tile:
            freed = () if src is None else (src,)
            occ = (occ | {tile}).difference(freed)
            ends = (tile, *freed)
            if self._delta_holds(src, tile):
                if tile in comp:
                    comp = comp - {tile}
                if freed and any(u in comp for u in nbrs[src]):
                    comp = comp | {src}
                # the ancilla faced the component on both edge types, and
                # can only have lost that through tile
                if tile in kept.ancilla_tiles and not (
                        self._on(comp, self.ancilla, "X")
                        and self._on(comp, self.ancilla, "Z")):
                    comp = None
            else:
                comp = self._flooded(qid, tile, orient)
                if comp is not None:
                    ends += tuple(comp ^ (base.comp or _NONE))
            changed.update(at[v] for u in ends for v in nbrs[u] if v in at)
        counts = dict(base.counts)
        nx, nz, density = base.nx, base.nz, base.density
        faced = True
        for q in changed:
            before = counts.get(q)
            if before is not None:
                nx -= before[0] > 0
                nz -= before[1] > 0
                density -= before[2]
            p = Patch(tile, orient) if q == qid else self.patches[q]
            c = counts[q] = _count(p, comp or _NONE, nbrs, occ)
            nx += c[0] > 0
            nz += c[1] > 0
            density += c[2]
            faced = faced and c[0] + c[1] > 0
        return Access(comp if faced else None, counts, nx, nz, density)

    def _delta_holds(self, src, tile) -> bool:
        """Whether taking tile, and freeing src unless it is None, leaves
        the kept component less tile, plus src where that borders it."""
        kept, nbrs = self._kept, self._nbrs
        comp = kept.acc.comp
        return (kept.one_component and tile not in kept.cut_tiles(nbrs)
                and (src is None or all(u == tile or u in self._occ
                                        or u in comp for u in nbrs[src])))

    def _flooded(self, qid: int, tile, orient: str):
        """a_component() of a copy with patch qid on tile in orient."""
        trial = self.copy()
        if qid in trial.patches:
            trial.remove_patch(qid)
        trial.init_patch(qid, tile, orient)
        return trial.a_component()


# --- bus routing ----------------------------------------------------------

def bus_patches(board: Board, required, include_port: bool = False) -> frozenset:
    """Connected routing-tile set touching every required (patch, edge type)
    boundary plus the ancilla's X and Z edges (and the magic port if asked).

    Built by sequential shortest-path search with already-selected tiles at
    zero cost, a standard Steiner-tree heuristic.  Deterministic.
    """
    terminals = []
    for qid, typ in required:
        opts = board.touch_tiles(qid, typ)
        if not opts:
            raise NoPathError(f"patch {qid} has no exposed {typ}-edge")
        terminals.append(opts)
    for typ in ("X", "Z"):
        opts = board.ancilla_touch(typ)
        if not opts:
            raise NoPathError(f"ancilla has no exposed {typ}-edge")
        terminals.append(opts)
    if include_port:
        if board.port is None:
            raise NoPathError("board has no magic port")
        if not board.is_routing(board.port):
            raise NoPathError("magic port tile is blocked")
        terminals.append([board.port])

    tree: set = set()
    comp = board.a_component()
    for opts in terminals:
        if tree & set(opts):
            continue
        if not tree:
            # seed inside the main routing component, else any option
            inside = [t for t in opts if comp is not None and t in comp]
            tree.add(min(inside) if inside else min(opts))
            continue
        dist, prev = _bfs_from(board, tree, opts)
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


def _bfs_from(board: Board, sources, targets=()):
    """BFS over routing tiles from a source set; deterministic parents.

    Given targets, it stops when the first of them is dequeued: by then
    every tile as near as that target has its final dist and prev, so
    the nearest targets and their paths are those of a full flood.
    """
    nbrs, occ = board._nbrs, board._occ
    dist = {}
    prev = {}
    queue = deque()
    for s in sorted(sources):
        dist[s] = 0
        prev[s] = None
        queue.append(s)
    while queue:
        cur = queue.popleft()
        if cur in targets:
            break
        d = dist[cur] + 1
        for nb in nbrs[cur]:
            if nb not in dist and nb not in occ:
                dist[nb] = d
                prev[nb] = cur
                queue.append(nb)
    return dist, prev


# --- builtin layouts ------------------------------------------------------

def builtin_layout(style: str, n: int) -> Board:
    if n < 1:
        raise ValueError("need at least one qubit")
    if style == "compact":
        return _compact_layout(n)
    if style == "standard":
        return _standard_layout(n)
    if style == "sparse":
        return _sparse_layout(n)
    raise ValueError(f"unknown layout style {style!r}")


def _compact_layout(n: int) -> Board:
    """Two data rows of adjacent patch pairs with one routing row between.

    Pair p of qubits (2p, 2p+1) goes to the top row at column block 3*(p//2)
    when p is even, else to the bottom row at block 3*((p+1)//2); the
    ancilla sits at (2, 2) and the magic port at (2, 0).
    """
    cols = 3
    spots = []
    for q in range(n):
        p, off = divmod(q, 2)
        if p % 2 == 0:
            tile = (0, 3 * (p // 2) + off)
        else:
            tile = (2, 3 * ((p + 1) // 2) + off)
        spots.append(tile)
        cols = max(cols, tile[1] + 1)
    b = Board(3, cols)
    b.place_ancilla((2, 2), ORIENT_H)
    for q, tile in enumerate(spots):
        b.init_patch(q, tile, ORIENT_H)
    b.set_port((2, 0))
    return b


def _standard_layout(n: int) -> Board:
    """Routing border ring with packed data rows on odd rows."""
    k = 1
    while k * k < n:
        k += 1
    rows_of_data = (n + k - 1) // k
    h = 2 * rows_of_data + 1
    w = k + 2
    b = Board(h, w)
    b.place_ancilla((h - 1, 0), ORIENT_H)
    q = 0
    for i in range(rows_of_data):
        for j in range(k):
            if q >= n:
                break
            b.init_patch(q, (2 * i + 1, j + 1), ORIENT_H)
            q += 1
    b.set_port((h - 1, w - 1))
    return b


def _sparse_layout(n: int) -> Board:
    """Patches on every other tile so both edge types stay exposed."""
    k = 1
    while k * k < n:
        k += 1
    rows_of_data = (n + k - 1) // k
    # a single data row would leave the tile beside the ancilla stranded
    h = max(3, 2 * rows_of_data)
    w = 2 * k
    b = Board(h, w)
    b.place_ancilla((h - 1, w - 1), ORIENT_H)
    q = 0
    for i in range(rows_of_data):
        for j in range(k):
            if q >= n:
                break
            b.init_patch(q, (2 * i, 2 * j), ORIENT_H)
            q += 1
    b.set_port((h - 1, 0))
    return b


def irregular_demo() -> Board:
    """Hand-shaped six-qubit demo board used in the docs and golden tests."""
    b = Board(3, 5)
    b.place_ancilla((2, 3), ORIENT_V)
    b.init_patch(0, (0, 0), ORIENT_H)
    b.init_patch(1, (0, 1), ORIENT_V)
    b.init_patch(2, (0, 2), ORIENT_V)
    b.init_patch(5, (0, 3), ORIENT_V)
    b.init_patch(3, (2, 1), ORIENT_V)
    b.init_patch(4, (2, 2), ORIENT_V)
    b.set_port((2, 0))
    return b


# --- layout text format ---------------------------------------------------

def format_layout(board: Board) -> str:
    """Grid text: '.' routing, 'Q<n><o>' patch, 'A<o>' ancilla, 'M' port."""
    cells = [["." for _ in range(board.cols)] for _ in range(board.rows)]
    if board.port is not None:
        r, c = board.port
        cells[r][c] = "M"
    if board.ancilla is not None:
        r, c = board.ancilla.tile
        cells[r][c] = f"A{board.ancilla.orient}"
    for q, p in sorted(board.patches.items()):
        r, c = p.tile
        cells[r][c] = f"Q{q}{p.orient}"
    return "\n".join(" ".join(row) for row in cells) + "\n"


def parse_layout(text: str) -> Board:
    """Inverse of format_layout; malformed text raises LayoutParseError,
    or IllegalOpError for a tile the board rules forbid."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise LayoutParseError("empty layout")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise LayoutParseError("ragged layout rows")
    b = Board(len(rows), width)
    port = None
    patch_tiles: dict[int, list] = {}
    patch_orient: dict[int, str] = {}
    anc_tiles, anc_orient = [], None
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
                anc_tiles.append((r, c))
                anc_orient = tok[1:]
            elif tok.startswith("Q"):
                body = tok[1:]
                if len(body) < 2 or body[-1] not in (ORIENT_H, ORIENT_V):
                    raise LayoutParseError(f"bad patch token {tok!r}")
                try:
                    q = int(body[:-1])
                except ValueError:
                    raise LayoutParseError(f"bad patch token {tok!r}") from None
                patch_tiles.setdefault(q, []).append((r, c))
                if patch_orient.get(q, body[-1]) != body[-1]:
                    raise LayoutParseError(f"patch {q} has mixed orientations")
                patch_orient[q] = body[-1]
            else:
                raise LayoutParseError(f"unknown tile token {tok!r}")
    if anc_tiles:
        if len(anc_tiles) != 1:
            raise LayoutParseError("ancilla must occupy one tile")
        b.place_ancilla(anc_tiles[0], anc_orient)
    for q in sorted(patch_tiles):
        tiles = patch_tiles[q]
        if len(tiles) != 1:
            raise LayoutParseError(f"patch {q} must occupy one tile")
        b.init_patch(q, tiles[0], patch_orient[q])
    if port is not None:
        b.set_port(port)
    return b
