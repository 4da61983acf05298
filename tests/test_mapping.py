"""Qubit-to-patch assignment strategies and access classification."""

import pytest

from lscompile import bench
from lscompile.board import Board, builtin_layout, irregular_demo
from lscompile.layout_search import auto_design
from lscompile.mapping import (
    MAPPING_STRATEGIES,
    MappingError,
    access_map,
    build_mapping,
    ea_mapping,
    greedy_mapping,
    identity_mapping,
)
from lscompile.pdag import build_pdag
from lscompile.transpiler import parse_pbc


def demand_program():
    # qubit 0 flips between X and Z access and should win the best patch
    return parse_pbc("pi/8 XIIIII\npi/8 ZIIIII\npi/8 XIIIII\nM ZZZZZZ", 6)


def is_permutation(qmap, board, n):
    return (sorted(qmap) == list(range(n))
            and sorted(qmap.values()) == sorted(board.patches)[:n]
            and len(set(qmap.values())) == n)


def test_identity_mapping():
    b = builtin_layout("compact", 6)
    assert identity_mapping(b, 6) == {q: q for q in range(6)}


def test_identity_mapping_needs_matching_ids():
    b = builtin_layout("compact", 6)
    with pytest.raises(MappingError):
        identity_mapping(b, 7)


def test_identity_mapping_needs_only_ids_up_to_n():
    b = builtin_layout("standard", 4)
    assert identity_mapping(b, 2) == {0: 0, 1: 1}
    b.remove_patch(0)
    with pytest.raises(MappingError):
        identity_mapping(b, 2)


def test_ea_mapping_is_permutation():
    b = irregular_demo()
    qmap = ea_mapping(b, build_pdag(demand_program()))
    assert is_permutation(qmap, b, 6)


def test_ea_mapping_frozen_assignment():
    """Regression pin: demand-ranked qubits take exposure-ranked patches."""
    b = irregular_demo()
    qmap = ea_mapping(b, build_pdag(demand_program()))
    assert qmap == {0: 3, 1: 5, 2: 4, 3: 2, 4: 1, 5: 0}


def test_ea_mapping_highest_demand_gets_both_edge_types():
    b = irregular_demo()
    qmap = ea_mapping(b, build_pdag(demand_program()))
    both = {pid for pid in b.patches
            if b.exposed_types(pid) == {"X", "Z"}}
    if both:
        assert qmap[0] in both


def test_greedy_mapping_is_permutation():
    b = irregular_demo()
    qmap = greedy_mapping(b, build_pdag(demand_program()))
    assert is_permutation(qmap, b, 6)
    assert qmap == {0: 3, 1: 4, 2: 2, 3: 1, 4: 5, 5: 0}


@pytest.mark.parametrize("make, n, ea, greedy", [
    # mixed exposure: both-type patches 3 and 5 lead the order
    (irregular_demo, 6,
     {4: 3, 0: 5, 2: 4, 3: 2, 1: 1, 5: 0},
     {0: 3, 2: 4, 4: 2, 3: 1, 5: 0, 1: 5}),
    # every patch exposes both types: the ancilla distance, then the id
    (lambda: bench.spread_layout(6), 8,
     {4: 1, 1: 2, 6: 3, 0: 4, 2: 5, 3: 6, 7: 7, 5: 0},
     {4: 1, 6: 2, 5: 0, 1: 3, 7: 7, 3: 4, 0: 5, 2: 6}),
])
def test_frozen_maps_of_a_random_program(make, n, ea, greedy):
    """Regression pin: both mappings rank patches by the one order."""
    dag = build_pdag(bench.random_program(n, 40, 0))
    assert ea_mapping(make(), dag) == ea
    assert greedy_mapping(make(), dag) == greedy


def test_mappings_deterministic():
    b = irregular_demo()
    dag1 = build_pdag(demand_program())
    dag2 = build_pdag(demand_program())
    assert ea_mapping(b, dag1) == ea_mapping(b, dag2)
    assert greedy_mapping(b, dag1) == greedy_mapping(b, dag2)


def test_build_mapping_dispatch():
    b = builtin_layout("compact", 4)
    prog = parse_pbc("M ZZZZ", 4)
    dag = build_pdag(prog)
    assert set(MAPPING_STRATEGIES) == {"identity", "ea", "greedy"}
    for strategy in MAPPING_STRATEGIES:
        qmap = build_mapping(strategy, b, dag)
        assert is_permutation(qmap, b, 4)
    with pytest.raises(MappingError):
        build_mapping("random", b, dag)


def test_access_map_single_type():
    b = builtin_layout("compact", 6)
    acc = access_map(b, identity_mapping(b, 6))
    assert acc[0] == {"X"}


def test_access_map_both_types_grants_y():
    b = Board(3, 3, ((2, 2), "h"), (2, 0), {0: ((1, 1), "h")})
    assert access_map(b, {0: 0})[0] == {"X", "Y", "Z"}


def test_access_map_respects_qmap():
    b = Board(3, 5, ((2, 4), "h"), (2, 0), {
        0: ((0, 0), "h"),   # corner with a blocked east side, X only
        1: ((0, 1), "h"),   # east and south stay open, all letters
    })
    acc = access_map(b, {0: 1, 1: 0})
    assert acc[0] == {"X", "Y", "Z"}
    assert acc[1] == {"X"}


@pytest.mark.parametrize("board", [
    *(builtin_layout(style, n) for style in ("compact", "standard", "sparse")
      for n in (1, 4, 6, 9)),
    irregular_demo(),
    *(auto_design(n) for n in range(1, 9)),
])
def test_access_map_is_exposed_types_plus_y_if_both(board):
    """The letters read off LETTER_EDGES are the exposed edge types, plus
    Y where both are exposed."""
    qmap = {i: pid for i, pid in enumerate(sorted(board.patches))}
    for q, letters in access_map(board, qmap).items():
        types = board.exposed_types(qmap[q])
        assert letters == types | ({"Y"} if types == {"X", "Z"} else set())
