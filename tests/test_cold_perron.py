"""The cold Perron path, held to the bits of the build it replaced: the CSR
read off the stored edge array against scipy's COO conversion, one matvec
per power step against the loop that made two, a connected graph's block
sharing the graph's CSR, and that CSR unchanged by every deletion the blocks
make."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix

from sslab.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    path,
    sample_gnm,
    split_graph,
    star,
    union,
)
from sslab.spectra import ConvergenceError, PerronBlocks, _power_iterate
from sslab.supersat import heavy_prune


def coo_csr(g: Graph) -> csr_matrix:
    """The adjacency through scipy's COO -> CSR conversion, which sums
    repeats and sorts each row."""
    e = g.edge_array
    rows = np.concatenate([e[:, 0], e[:, 1]])
    cols = np.concatenate([e[:, 1], e[:, 0]])
    return csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(g.n, g.n))


def csr_bytes(a: csr_matrix) -> tuple:
    return tuple((x.dtype.str, x.tobytes()) for x in (a.indptr, a.indices, a.data))


def two_matvec_power(adj, x, tol: float):
    """Power iteration on A + I making A x twice per step: once for the
    step, and once more on the normalized iterate for lam and the residual."""
    lam, residual = 0.0, math.inf
    for it in range(1, 100001):
        ax = adj @ x
        y = ax + x
        ny = np.linalg.norm(y)
        if ny == 0:
            break
        x = y / ny
        ax = adj @ x
        lam = float(x @ ax)
        residual = float(np.linalg.norm(ax - lam * x)) / max(1.0, lam)
        if residual <= tol:
            return lam, x, residual, it
    raise ConvergenceError("no convergence", residual)


@st.composite
def hosts(draw, max_n=40):
    """A graph on 0..max_n vertices, isolated ones included, with rows long
    enough that an unstable sort would reorder their columns."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    big_n = n * (n - 1) // 2
    m = draw(st.integers(min_value=0, max_value=min(big_n, 300)))
    return sample_gnm(n, m, draw(st.integers(0, 2**32)))


# -- the CSR ----------------------------------------------------------------


def assert_coo_bits(g: Graph):
    a, want = g.sparse_adjacency(), coo_csr(g)
    assert a.shape == want.shape
    assert csr_bytes(a) == csr_bytes(want)
    assert a.has_sorted_indices and want.has_sorted_indices


@settings(max_examples=150, deadline=None)
@given(hosts())
def test_csr_is_the_coo_build(g):
    assert_coo_bits(g)


@pytest.mark.parametrize(
    "g",
    [empty_graph(0), empty_graph(1), empty_graph(5), path(2), star(70),
     union(empty_graph(3), complete(6)), split_graph(3, 2000),
     union(star(50), sample_gnm(300, 3000, 7))],
    ids=["n0", "n1", "isolated", "edge", "star", "isolated-first", "split", "union"],
)
def test_csr_is_the_coo_build_on_fixed_hosts(g):
    assert_coo_bits(g)


# -- one matvec per power step ------------------------------------------------


def starts(n: int):
    yield np.full(n, 1.0 / math.sqrt(n))
    warm = np.random.default_rng(n).uniform(0.5, 1.5, n)
    yield warm / np.linalg.norm(warm)


def assert_two_matvec_bits(adj, n: int):
    for x0 in starts(n):
        lam, x, res, it = _power_iterate(adj, x0, 1e-10)
        want = two_matvec_power(adj, x0, 1e-10)
        assert (np.float64(lam).tobytes(), x.tobytes(), res, it) == (
            np.float64(want[0]).tobytes(), want[1].tobytes(), want[2], want[3])


@pytest.mark.parametrize(
    "g",
    [path(64), path(7), complete_bipartite(3, 5), complete_bipartite(1, 40),
     star(2), star(63), cycle(9), complete(12), sample_gnm(50, 200, 3)],
    ids=["path64", "path7", "k35", "k1_40", "star2", "star63", "c9", "k12", "gnm"],
)
def test_power_steps_keep_the_two_matvec_bits_on_dense_blocks(g):
    assert len(g.components) == 1
    assert_two_matvec_bits(g.sparse_adjacency().toarray(), g.n)


@pytest.mark.parametrize(
    "g",
    [split_graph(2, 200), star(100), complete_bipartite(4, 70), sample_gnm(120, 700, 5)],
    ids=["split", "star", "k4_70", "gnm"],
)
def test_power_steps_keep_the_two_matvec_bits_on_a_csr(g):
    # the Lanczos fallback runs the power iteration on the block's CSR
    assert len(g.components) == 1
    assert_two_matvec_bits(g.sparse_adjacency(), g.n)


# -- the block of a connected graph -------------------------------------------


@pytest.mark.parametrize("g", [star(30), path(64), split_graph(2, 300), cycle(80)],
                         ids=["star", "path64", "split", "c80"])
def test_a_connected_graphs_block_is_its_csr(g):
    blocks = PerronBlocks(g).blocks()
    assert len(blocks) == 1 and blocks[0].a is g.sparse_adjacency()


def test_a_disconnected_graphs_blocks_are_slices():
    g = union(star(30), cycle(80))
    blocks = PerronBlocks(g).blocks()
    assert len(blocks) == 2
    for block in blocks:
        assert block.a is not g.sparse_adjacency()
        want = g.sparse_adjacency()[block.idx][:, block.idx]
        assert csr_bytes(block.a) == csr_bytes(want)


def _snapshot(g: Graph) -> tuple:
    return csr_bytes(g.sparse_adjacency())


def _tail(n_star: int, length: int) -> Graph:
    """star(n_star) with a path of `length` edges hung off its leaf 1."""
    edges = [(0, k) for k in range(1, n_star + 1)]
    edges += [(1 if k == 0 else n_star + k, n_star + k + 1) for k in range(length)]
    return Graph.from_edges(n_star + length + 1, edges)


def _wheel(n: int) -> Graph:
    """A hub joined to every vertex of a cycle on n rim vertices."""
    rim = [(k, k % n + 1) for k in range(1, n + 1)]
    return Graph.from_edges(n + 1, [(0, k) for k in range(1, n + 1)] + rim)


@pytest.mark.parametrize(
    "g, deletions",
    [
        (_tail(20, 5), [(24, 25), (1, 21), (0, 3)]),  # pendant, split, pendant
        (_tail(80, 5), [(84, 85), (0, 2), (1, 81)]),  # the Lanczos side
        (_wheel(30), [(1, 2), (0, 5), (7, 8)]),  # non-pendant, no split
        (_wheel(90), [(1, 2), (0, 5), (7, 8)]),
        (cycle(70), [(0, 1), (5, 6)]),  # a path, then a split
    ],
    ids=["tail", "tail-lanczos", "wheel", "wheel-lanczos", "cycle"],
)
def test_deletions_leave_the_graphs_csr_untouched(g, deletions):
    before = _snapshot(g)
    blocks = PerronBlocks(g)
    assert blocks.blocks()[0].a is g.sparse_adjacency()
    for u, v in deletions:
        blocks.delete_edge(u, v)
        blocks.blocks()  # apply any recorded deletion
        assert _snapshot(g) == before
    assert csr_bytes(g.sparse_adjacency()) == csr_bytes(coo_csr(g))


@pytest.mark.parametrize("g", [_tail(20, 6), _tail(80, 6)], ids=["tail", "tail-lanczos"])
def test_heavy_prune_leaves_the_hosts_csr_untouched(g):
    before = _snapshot(g)
    trace = heavy_prune(g, 2)
    assert trace.steps  # it deleted edges
    assert _snapshot(g) == before
    assert csr_bytes(g.sparse_adjacency()) == csr_bytes(coo_csr(g))
