"""Matrix views of a graph: the CSR adjacency and what is sliced from it
(components, Perron blocks, incidence matrices), each checked against an
independent reference."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sslab
from sslab import Graph, edge_distribution, opnorm, perron
from sslab.graphs import cycle, empty_graph, path, sample_gnm, star, union
from sslab.spectra import SpectraError, incidence_matrix


@st.composite
def hosts(draw):
    """Graphs on 0..24 vertices with any edge set, so isolated vertices,
    the empty graph and n = 0 all occur."""
    n = draw(st.integers(min_value=0, max_value=24))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=40)) if pairs else set()
    return Graph.from_edges(n, edges)


def _loop_adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1.0
    return a


@settings(max_examples=120, deadline=None)
@given(hosts())
def test_components_match_networkx(g):
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges)
    expected = sorted(
        (tuple(sorted(c)) for c in nx.connected_components(ref)), key=lambda c: c[0]
    )
    assert g.components == tuple(expected)
    assert all(type(v) is int for c in g.components for v in c)


def test_components_of_the_null_graph_is_empty():
    assert empty_graph(0).components == ()
    assert sslab.graphs.component_groups(empty_graph(0).sparse_adjacency()) == []


@settings(max_examples=120, deadline=None)
@given(hosts())
def test_sparse_adjacency_is_the_dense_one(g):
    a = g.sparse_adjacency()
    assert a.shape == (g.n, g.n)
    assert a.has_sorted_indices
    for i in range(g.n):
        assert np.all(np.diff(a.indices[a.indptr[i] : a.indptr[i + 1]]) > 0)
    assert np.array_equal(a.toarray(), _loop_adjacency(g))


def _connected_host(k: int, seed: int) -> Graph:
    """A k-cycle plus 2k random chords: connected, with an irregular Perron vector."""
    chords = sample_gnm(k, 2 * k, seed).edges
    return Graph.from_edges(k, sorted(set(cycle(k).edges) | set(chords)))


def test_perron_of_a_component_ignores_the_rest_of_the_host():
    # k > 64 takes the Lanczos path, k <= 64 the dense power iteration
    for k, seed in ((150, 1), (100, 2), (65, 3), (40, 4), (10, 5)):
        big = _connected_host(k, seed)
        g = union(union(union(path(4), empty_graph(3)), big), star(2))
        pd = perron(g)
        comp = pd.component
        assert len(comp) == k
        sub = g.induced_subgraph(comp)
        alone = perron(sub)
        assert pd.lam == alone.lam
        assert np.array_equal(pd.x[list(comp)], alone.x)
        assert not pd.x[[v for v in range(g.n) if v not in set(comp)]].any()


@settings(max_examples=80, deadline=None)
@given(hosts(), st.data())
def test_incidence_matrix_matches_has_edge(g, data):
    # the sides may repeat and come in any order; half the time the column
    # side keeps only the ids that are not rows, so most draws are disjoint
    rows = data.draw(st.lists(st.integers(0, max(g.n - 1, 0)), max_size=g.n))
    cols = data.draw(st.lists(st.integers(0, max(g.n - 1, 0)), max_size=g.n))
    if g.n == 0:
        rows = cols = []
    if data.draw(st.booleans()):
        cols = [c for c in cols if c not in rows]
    rs, cs = sorted(set(rows)), sorted(set(cols))
    if set(rs) & set(cs):
        with pytest.raises(SpectraError, match="disjoint"):
            incidence_matrix(rows, cols, g)
        return
    expected = np.array(
        [[1.0 if g.has_edge(u, v) else 0.0 for v in cs] for u in rs]
    ).reshape(len(rs), len(cs))
    got = incidence_matrix(rows, cols, g)
    assert got.shape == expected.shape
    assert got.nnz == np.count_nonzero(expected)
    assert np.array_equal(got.toarray(), expected)


def test_internal_checks_survive_python_O():
    # a bundle that disagrees with its own type class must still raise
    # RegularizeError under -O, where an assert would be skipped
    code = (
        "import dataclasses\n"
        "from sslab.graphs import complete\n"
        "from sslab.regularize import RegularizeError, build_regular, materialize_fk\n"
        "assert False, 'asserts are live'\n"
        "g = complete(3)\n"
        "b = build_regular(g, 2)\n"
        "for bad in (dict(t_k_size=b.t_k_size + 1), dict(d_k=b.d_k + 1)):\n"
        "    try:\n"
        "        materialize_fk(dataclasses.replace(b, **bad), g)\n"
        "    except RegularizeError as exc:\n"
        "        print('RegularizeError', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(sslab.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 2 and all(ln.startswith("RegularizeError") for ln in lines)


def test_opnorm_and_edge_distribution_stay_sparse():
    # a dense n x n float64 array is 200 MB at n = 5000; the CSR host with
    # 25000 edges, its Perron block and p's entries take a few MB
    g = sample_gnm(5000, 25000, 6)
    g.sparse_adjacency()  # the host's own CSR, built before the trace starts
    pd = perron(g)
    tracemalloc.start()
    try:
        opnorm(g, 1.5, 3, pd)
        edge_distribution(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
