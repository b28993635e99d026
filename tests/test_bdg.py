import pytest
from hypothesis import given, strategies as st

from triagelab.bdg import (
    ADD_ARC,
    OPEN,
    REMOVE_ARC,
    RESOLVE,
    DependencyGraph,
    topological_order,
)
from triagelab.errors import ValidationError


def oracle_depth(graph, bug):
    """Longest chain of unresolved blockers above the bug, by enumerating
    every blocker path (exponential on layered DAGs; small graphs only)."""
    best = 0
    stack = [(bug, 0)]
    while stack:
        node, d = stack.pop()
        ps = graph.parents.get(node, ())
        if not ps:
            best = max(best, d)
        for p in ps:
            stack.append((p, d + 1))
    return best


def _graph(arcs, extra_nodes=()):
    g = DependencyGraph()
    for a, b in arcs:
        g.apply_event(ADD_ARC, a, b)
    for n in extra_nodes:
        g.apply_event(OPEN, n)
    return g


def test_nine_node_snapshot_hand_values():
    # arcs 1->3, 3->5, 3->6, 1->4, 2->4, 8->9 over nodes 1..9
    g = _graph([(1, 3), (3, 5), (3, 6), (1, 4), (2, 4), (8, 9)], extra_nodes=[7])
    snap = g.metrics_snapshot()
    assert snap.n_nodes == 9
    assert snap.n_arcs == 6
    # depths: 1,2,7,8 -> 0; 3,4,9 -> 1; 5,6 -> 2 -> total 7
    assert snap.mean_depth == pytest.approx(7 / 9)
    assert snap.mean_degree == pytest.approx(6 / 9)


def test_single_arc_snapshot():
    snap = _graph([(1, 2)]).metrics_snapshot()
    assert (snap.mean_depth, snap.mean_degree) == (0.5, 0.5)


def test_empty_snapshot_zeros():
    snap = DependencyGraph().metrics_snapshot()
    assert (snap.mean_depth, snap.mean_degree, snap.n_nodes, snap.n_arcs) == (0.0, 0.0, 0, 0)


def test_cycle_creating_arc_dropped_and_logged():
    g = _graph([(1, 2), (2, 3)])
    g.apply_event(ADD_ARC, 3, 1)
    assert g.rejected_arcs == [(3, 1)]
    assert 1 not in g.children[3]
    g.apply_event(ADD_ARC, 4, 4)  # self-loop
    assert (4, 4) in g.rejected_arcs
    assert g.is_acyclic()


def test_resolve_removes_node_and_incident_arcs():
    g = _graph([(1, 2), (2, 3)])
    g.apply_event(RESOLVE, 2)
    assert 2 not in g.children
    assert g.parents[3] == set()
    assert g.children[1] == set()
    # arcs touching resolved bugs are ignored afterwards
    g.apply_event(ADD_ARC, 2, 3)
    assert g.parents[3] == set()


def test_blocking_parents_direct_only():
    g = _graph([(1, 2), (2, 3)])
    assert g.parents[3] == {2}
    assert g.parents[2] == {1}


def test_remove_arc():
    g = _graph([(1, 2)])
    g.apply_event(REMOVE_ARC, 1, 2)
    assert g.parents[2] == set()
    assert g.metrics_snapshot().n_arcs == 0


def test_depth_on_chain():
    g = _graph([(1, 2), (2, 3), (3, 4)])
    assert [oracle_depth(g, n) for n in (1, 2, 3, 4)] == [0, 1, 2, 3]
    assert g.metrics_snapshot().mean_depth == 6 / 4


def test_long_chain_does_not_recurse():
    n = 5000
    g = _graph([(i, i + 1) for i in range(n - 1)])
    assert g.metrics_snapshot().mean_depth == (n - 1) / 2


def test_layered_dag_mean_depth():
    # 20 layers of 3, each node blocking every node of the next layer:
    # enumerating paths would walk about 3**19 per bottom node
    layers, width = 20, 3
    g = _graph([
        (layer * width + a, (layer + 1) * width + b)
        for layer in range(layers - 1)
        for a in range(width)
        for b in range(width)
    ])
    snap = g.metrics_snapshot()
    assert (snap.n_nodes, snap.mean_depth) == (60, 9.5)


def test_unknown_event_kind_rejected():
    with pytest.raises(ValidationError):
        DependencyGraph().apply_event("FROB", 1)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["OPEN", "ADD_ARC", "RESOLVE"]),
            st.integers(0, 8),
            st.integers(0, 8),
        ),
        max_size=60,
    )
)
def test_graph_stays_acyclic_under_any_event_sequence(events):
    g = DependencyGraph()
    for kind, a, b in events:
        g.apply_event(kind, a, b if kind == "ADD_ARC" else None)
    assert g.is_acyclic()
    for node in g.children:
        assert node not in g.resolved
        for child in g.children[node]:
            assert node in g.parents[child]


@given(
    st.lists(
        st.tuples(
            st.sampled_from([OPEN, ADD_ARC, REMOVE_ARC, RESOLVE]),
            st.integers(0, 9),
            st.integers(0, 9),
        ),
        max_size=80,
    )
)
def test_snapshot_depth_matches_path_enumeration(events):
    g = DependencyGraph()
    for kind, a, b in events:
        g.apply_event(kind, a, b if kind in (ADD_ARC, REMOVE_ARC) else None)
    snap = g.metrics_snapshot()
    depths = [oracle_depth(g, node) for node in g.children]
    assert snap.mean_depth == (sum(depths) / len(depths) if depths else 0.0)
    arcs = sum(len(kids) for kids in g.children.values())
    assert (snap.n_nodes, snap.n_arcs) == (len(g.children), arcs)
    assert snap.mean_degree == (arcs / len(g.children) if g.children else 0.0)


@st.composite
def keyed_digraphs(draw):
    """(children, key or None) over nodes 0..n-1; arcs may close cycles
    and keys may tie."""
    n = draw(st.integers(0, 10))
    node = st.integers(0, max(n - 1, 0))
    arcs = draw(st.lists(st.tuples(node, node), max_size=3 * n)) if n else []
    children = {v: [] for v in range(n)}
    for a, b in arcs:
        children[a].append(b)
    keys = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return children, (keys.__getitem__ if draw(st.booleans()) else None)


@given(keyed_digraphs())
def test_topological_order_is_kahn_by_key(graph):
    children, key = graph
    rank = key or (lambda v: v)
    parents = {v: {p for p in children if v in children[p]} for v in children}
    # reach[u]: nodes reachable from u by one arc or more
    reach = {u: set(children[u]) for u in children}
    for mid in children:
        for u in children:
            if mid in reach[u]:
                reach[u] |= reach[mid]
    on_cycle = {u for u in children if u in reach[u]}
    blocked = {v for v in children if v in on_cycle or any(v in reach[u] for u in on_cycle)}

    order = topological_order(children, key=key)
    assert set(order) == set(children) - blocked
    assert len(order) == len(set(order))
    placed = set()
    for v in order:
        ready = [u for u in children if u not in placed and parents[u] <= placed]
        assert v == min(ready, key=lambda u: (rank(u), u))  # blockers first, then key
        placed.add(v)
    assert not [u for u in children if u not in placed and parents[u] <= placed]
