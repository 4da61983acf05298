"""Operator dependency DAG construction and consumption order."""

from hypothesis import given, settings, strategies as st

from lscompile import bench
from lscompile.pdag import build_pdag, rotation_demand
from lscompile.transpiler import parse_pbc


def edges(dag):
    """Every (i, j) with node j depending on node i, both still in dag."""
    return sorted((i, j) for i, node in dag.nodes.items()
                  for j in node.succs if j in dag.nodes)


def test_shared_qubit_creates_edge():
    dag = build_pdag(parse_pbc("pi/8 ZI\npi/8 IZ\nM ZZ"))
    assert len(dag) == 3
    assert dag.frontier() == [0, 1]
    assert edges(dag) == [(0, 2), (1, 2)]


def test_disjoint_ops_stay_parallel():
    dag = build_pdag(parse_pbc("pi/8 ZI\npi/8 IX"))
    assert dag.frontier() == [0, 1]
    assert edges(dag) == []


def test_chain_on_one_qubit():
    dag = build_pdag(parse_pbc("pi/8 Z\npi/8 X\nM Z"))
    assert edges(dag) == [(0, 1), (1, 2)]
    assert dag.frontier() == [0]


def test_pop_node_unblocks_successors():
    dag = build_pdag(parse_pbc("pi/8 Z\npi/8 X\nM Z"))
    dag.pop_node(0)
    assert dag.frontier() == [1]
    dag.pop_node(1)
    assert dag.frontier() == [2]
    dag.pop_node(2)
    assert len(dag) == 0
    assert not dag


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=30),
       st.integers(min_value=0, max_value=10**6),
       st.data())
def test_frontier_tracks_unblocked_nodes_while_draining(n, n_ops, seed, data):
    dag = build_pdag(bench.random_program(n, n_ops, seed))
    while dag:
        blocked = {j for _, j in edges(dag)}
        assert dag.frontier() == sorted(set(dag.nodes) - blocked)
        dag.pop_node(data.draw(st.sampled_from(dag.frontier())))
    assert dag.frontier() == []


def test_rotation_demand_counts_letter_changes():
    assert rotation_demand(build_pdag(parse_pbc("pi/8 X\npi/8 Z\nM Z"))) == {0: 1}
    # entering and leaving Y each count
    assert rotation_demand(build_pdag(parse_pbc("pi/8 Z\npi/8 Y\npi/8 Z"))) == {0: 2}


def test_rotation_demand_covers_all_qubits():
    demand = rotation_demand(build_pdag(parse_pbc("pi/8 ZI\nM ZI")))
    assert demand == {0: 0, 1: 0}

