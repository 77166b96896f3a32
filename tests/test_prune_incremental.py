"""Incremental heavy-edge pruning: `heavy_prune` runs on an edge mask and
`spectra.PerronBlocks` keeps one block per component across deletions.  A
deletion changes only its own block (a pendant drops a row and column, any
other deletion re-splits that block alone), a deletion outside the Perron
component re-solves only that component's block, and a block skips the
solver when the start vector repeats bit for bit.  Checked against the plain
loop that calls `perron` on the whole graph every step, which must give the
same deletions, lambdas and Perron vectors bit for bit."""

import math

import numpy as np
import pytest
import scipy.sparse.csgraph
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import delete_edge
from sslab import spectra
from sslab.graphs import Graph, complete, cycle, path, sample_gnm, star, union
from sslab.spectra import PerronBlocks, SpectraError, _Block, perron, split_lambda
from sslab.supersat import PruneStep, heavy_prune, heavy_violations


def oracle_prune(g: Graph, t: int):
    """The pruning loop with a full `perron` solve every step: (steps, final
    graph, final Perron data or None)."""
    eta = 1.0 / (16 * t)
    steps = []
    current, pd = g, None
    while current.edge_count > 0:
        pd = perron(current, x0=None if pd is None else pd.x)
        m_i = current.edge_count
        bad = heavy_violations(current, pd, eta)
        if not bad:
            break
        u, v, prod = min(bad, key=lambda e: e[2])
        ref = split_lambda(t - 1, m_i) if m_i >= max(1, (t - 1) * (t - 2) // 2) else 0.0
        steps.append(PruneStep((u, v), m_i, pd.lam, ref, pd.lam - ref, prod))
        current = delete_edge(current, u, v)
    return tuple(steps), current, pd if current.edge_count else None


def assert_matches_oracle(g: Graph, t: int = 2):
    trace = heavy_prune(g, t)
    steps, final, pd = oracle_prune(g, t)
    assert trace.steps == steps
    assert trace.final_graph == final
    fp = trace.final_perron
    if pd is None:
        assert fp is None
        return trace
    assert fp.lam == pd.lam
    assert fp.x.tobytes() == pd.x.tobytes()
    assert fp.component == pd.component
    assert fp.component in final.components
    support = set(np.flatnonzero(fp.x).tolist())
    assert support and support <= set(fp.component)
    return trace


def counting(monkeypatch, owner, name):
    """Every call of `owner.name` from here on, one list entry per call."""
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def counting_solvers(monkeypatch):
    """Every run of a block solver (`_Block` picks one by its size)."""
    runs = []
    for name in ("_lanczos_top", "_power_iterate"):
        solver = getattr(spectra, name)

        def counted(*args, _solver=solver, **kwargs):
            runs.append(1)
            return _solver(*args, **kwargs)

        monkeypatch.setattr(spectra, name, counted)
    return runs


@st.composite
def parts(draw):
    """One connected-or-not part: a star, a G(n,m) or a cycle, with blocks
    on both sides of the 64-vertex switch from dense power iteration to
    Lanczos."""
    kind = draw(st.sampled_from(["star", "gnm", "cycle"]))
    if kind == "star":
        return star(draw(st.integers(min_value=2, max_value=80)))
    if kind == "cycle":
        return cycle(draw(st.integers(min_value=3, max_value=75)))
    n = draw(st.integers(min_value=4, max_value=80))
    m = draw(st.integers(min_value=n // 2, max_value=min(2 * n, n * (n - 1) // 2)))
    return sample_gnm(n, m, draw(st.integers(min_value=0, max_value=2**32)))


@st.composite
def unions(draw):
    """Disjoint unions of 2-4 parts, in drawn order."""
    g, *rest = draw(st.lists(parts(), min_size=2, max_size=4))
    for h in rest:
        g = union(g, h)
    return g


@settings(max_examples=20, deadline=None)
@given(unions(), st.sampled_from([2, 3]))
def test_prune_matches_the_full_solve_loop(g, t):
    assert_matches_oracle(g, t)


@pytest.mark.parametrize("size", [(100, 70, 200), (40, 30, 60)])
@pytest.mark.parametrize("perron_first", [True, False])
def test_perron_component_first_or_last(size, perron_first):
    leaves, n, m = size
    s, r = star(leaves), sample_gnm(n, m, leaves)
    g = union(s, r) if perron_first else union(r, s)
    trace = assert_matches_oracle(g)
    # every G(n,m) edge has product 0 and goes; the star stays
    assert trace.final_graph.edge_count == leaves
    assert len(trace.final_perron.component) == leaves + 1


def test_deletions_split_a_lower_id_component():
    # the path's edges go one by one, each split adding a component ahead
    # of the star's, which ends as component 10 (the 10 path vertices alone)
    trace = assert_matches_oracle(union(path(10), star(50)))
    assert trace.final_graph.components.index(trace.final_perron.component) == 10
    assert trace.final_perron.component == tuple(range(10, 61))


def test_tied_components_take_the_full_solve(monkeypatch):
    # two isomorphic stars: margin 0, so the Perron data comes from a full
    # solve before each of the 60 G(n,m) deletions and the first deletion
    # from the second star; the solve after that sees the tie broken, and
    # the other 28 edges of the second star go on the fast path
    g = union(union(star(30), sample_gnm(40, 60, 1)), star(30))
    assert perron(g).margin == 0.0
    full = counting(monkeypatch, PerronBlocks, "_solve")
    changed = counting(monkeypatch, _Block, "delete")
    built = counting(monkeypatch, Graph, "__init__")
    trace = heavy_prune(g, 2)
    assert len(trace.steps) == 90
    assert len(full) == 62
    # a full solve applies the deletions it needs; the fast path's 28 are
    # only recorded, and nothing rebuilds a graph until the final one
    assert len(changed) == 61
    assert len(built) == 1
    monkeypatch.undo()
    assert_matches_oracle(g)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_deletions_outside_the_perron_component_need_one_solve(monkeypatch, seed):
    g = union(star(200), sample_gnm(100, 220, seed))
    full = counting(monkeypatch, PerronBlocks, "_solve")
    changed = counting(monkeypatch, _Block, "delete")
    built = counting(monkeypatch, Graph, "__init__")
    runs = counting_solvers(monkeypatch)
    trace = heavy_prune(g, 2)
    assert len(trace.steps) == 220
    assert len(full) == 1
    # the 220 deletions are only recorded: no block changes, and the one
    # graph built is the final one
    assert len(changed) == 0
    assert len(built) == 1
    # the star's warm re-solves reach a bitwise fixed point within a few
    # steps, and the memo answers the rest: without it, one run per
    # component in the first solve and 220 on the star's block
    assert len(runs) <= 10


def _pendant_core(n: int, m: int, seed: int) -> Graph:
    """G(n, m) with one pendant leaf on each vertex, leaf of v at n + v."""
    core = sample_gnm(n, m, seed)
    leaves = np.column_stack([np.arange(n), n + np.arange(n)])
    return Graph.from_edges(2 * n, np.concatenate([core.edge_array, leaves]))


def test_prune_builds_no_graph_csr_or_components_per_deletion(monkeypatch):
    # every deletion here is a pendant inside the Perron component, so each
    # takes a full solve, and each drops a row and column of that block
    g = _pendant_core(70, 500, 3)  # leaves 70-139
    full = counting(monkeypatch, PerronBlocks, "_solve")
    built = counting(monkeypatch, Graph, "__init__")
    csr = counting(monkeypatch, Graph, "sparse_adjacency")
    comps = counting(monkeypatch, scipy.sparse.csgraph, "connected_components")
    trace = heavy_prune(g, 2)
    assert len(trace.steps) == 61
    assert all(v >= 70 for _, v in (step.edge for step in trace.steps))
    assert len(full) == len(trace.steps) + 1
    assert len(built) == 1  # the final graph
    assert len(csr) == 1 and len(comps) == 1  # the input's, for the first solve
    assert "_csr" not in vars(trace.final_graph)
    assert "components" not in vars(trace.final_graph)
    monkeypatch.undo()
    assert_matches_oracle(g)


def test_an_untouched_component_answers_from_its_memo(monkeypatch):
    # the host of `test_tied_components_take_the_full_solve`: the second
    # star (vertices 71-101) is solved from the uniform start once, and its
    # block's memo answers the next 60 full solves; after its first
    # deletion it is solved once more, and the fast path takes the rest
    g = union(union(star(30), sample_gnm(40, 60, 1)), star(30))
    full = counting(monkeypatch, PerronBlocks, "_solve")
    firsts = []
    solve = _Block._solve
    monkeypatch.setattr(_Block, "_solve",
                        lambda self, *args: firsts.append(int(self.idx[0])) or solve(self, *args))
    heavy_prune(g, 2)
    assert len(full) == 62
    assert firsts.count(71) == 2
    monkeypatch.undo()
    assert_matches_oracle(g)


# -- the blocks themselves -------------------------------------------------


def assert_blocks_match(pb: PerronBlocks, g: Graph):
    """pb's live blocks are g's components with an edge, each holding
    g's CSR slice on it: the same arrays, bytes and dtypes."""
    live = pb.blocks()
    comps = [c for c in g.components if len(c) > 1]
    assert [b.component for b in live] == comps
    a = g.sparse_adjacency()
    for block, comp in zip(live, comps):
        want = a[list(comp)][:, list(comp)]
        assert block.a.shape == want.shape
        for name in ("indptr", "indices", "data"):
            got, ref = getattr(block.a, name), getattr(want, name)
            assert got.dtype == ref.dtype, name
            assert got.tobytes() == ref.tobytes(), name


def _dumbbell(a: int, b: int) -> Graph:
    """Cycles C_a and C_b joined by the bridge (0, a)."""
    g = union(cycle(a), cycle(b))
    return Graph.from_edges(g.n, np.concatenate([g.edge_array, [[0, a]]]))


@st.composite
def shrinking(draw):
    """A host, the order its edges go in, and after which deletions to
    compare the blocks.  The parts give pendant deletions (stars, whose
    block crosses the 64-vertex switch, and pendant cores), bridge
    deletions that split a block into two big pieces (dumbbells of two
    cycles, their bridges first when drawn so), and G(n, m) pieces."""
    g, bridges = Graph.from_edges(0, []), []
    for kind in draw(st.lists(st.sampled_from(["star", "dumbbell", "pcore", "gnm"]),
                              min_size=1, max_size=3)):
        if kind == "star":
            h = star(draw(st.integers(min_value=60, max_value=70)))
        elif kind == "dumbbell":
            a = draw(st.integers(min_value=60, max_value=80))
            h = _dumbbell(a, draw(st.integers(min_value=60, max_value=80)))
            bridges.append((g.n, g.n + a))
        elif kind == "pcore":
            n = draw(st.integers(min_value=8, max_value=40))
            h = _pendant_core(n, 3 * n, draw(st.integers(0, 2**32)))
        else:
            n = draw(st.integers(min_value=10, max_value=80))
            h = sample_gnm(n, 2 * n, draw(st.integers(0, 2**32)))
        g = union(g, h)
    order = draw(st.permutations(range(g.edge_count)))
    if draw(st.booleans()):
        first = [k for k in order if tuple(g.edge_array[k].tolist()) in bridges]
        order = first + [k for k in order if k not in first]
    steps = min(g.edge_count - 1, 40)
    check = draw(st.lists(st.booleans(), min_size=steps, max_size=steps))
    return g, order[:steps], check


@settings(max_examples=25, deadline=None)
@given(shrinking())
def test_blocks_stay_the_csr_slices_of_the_rebuilt_graph(case):
    # after a deletion, the Perron data is the full solve's from the last x,
    # and (where drawn, so that recorded deletions pile up in between) every
    # live block is the rebuilt graph's CSR slice on its component
    g, order, check = case
    e, alive = g.edge_array, np.ones(g.edge_count, dtype=bool)
    pb = PerronBlocks(g)
    assert_blocks_match(pb, g)
    for k, now in zip(order, check):
        alive[k] = False
        current = Graph(g.n, e[alive])
        want = perron(current, x0=pb.pd.x)
        got = pb.delete_edge(*e[k].tolist())
        assert (got.lam, got.residual, got.component) == (want.lam, want.residual, want.component)
        assert got.x.tobytes() == want.x.tobytes()
        if now:
            assert_blocks_match(pb, current)


def test_a_bridge_splits_a_block_into_two_lanczos_blocks(monkeypatch):
    g = _dumbbell(70, 66)
    pb = PerronBlocks(g)
    comps = counting(monkeypatch, scipy.sparse.csgraph, "connected_components")
    lanczos = counting(monkeypatch, spectra, "_lanczos_top")
    pb.delete_edge(0, 70)
    live = pb.blocks()
    assert [len(b.idx) for b in live] == [70, 66]
    assert len(comps) == 1  # on the one block, not the graph
    assert len(lanczos) == 2
    assert_blocks_match(pb, union(cycle(70), cycle(66)))


def test_a_block_that_shrinks_to_64_vertices_switches_to_dense(monkeypatch):
    g = star(64)  # 65 vertices: Lanczos
    pb = PerronBlocks(g)
    comps = counting(monkeypatch, scipy.sparse.csgraph, "connected_components")
    runs = {name: counting(monkeypatch, spectra, name)
            for name in ("_lanczos_top", "_power_iterate")}
    x0 = pb.pd.x
    pd = pb.delete_edge(0, 64)  # a pendant: the row and column go
    assert len(pb.blocks()[0].idx) == 64
    assert (len(runs["_lanczos_top"]), len(runs["_power_iterate"])) == (0, 1)
    assert len(comps) == 0
    monkeypatch.undo()
    h = Graph(65, g.edge_array[:-1])
    want = perron(h, x0=x0)
    assert (pd.lam, pd.x.tobytes()) == (want.lam, want.x.tobytes())
    assert_blocks_match(pb, h)


def test_a_lone_edge_component_vanishes():
    g = union(star(5), path(2))
    pb = PerronBlocks(g)
    pb.delete_edge(6, 7)
    assert [b.component for b in pb.blocks()] == [tuple(range(6))]
    assert_blocks_match(pb, star(5))


@pytest.mark.parametrize("edge", [(1, 2), (0, 6), (6, 0), (-1, 0), (0, 7)])
def test_deleting_a_non_edge_is_a_typed_error(edge):
    # (1, 2) joins two leaves of the Perron star, so the full solve that
    # applies it finds no entry; the others name an isolated or no vertex
    pb = PerronBlocks(union(star(5), Graph.from_edges(1, [])))
    with pytest.raises(SpectraError, match="no edge"):
        pb.delete_edge(*edge)


@pytest.mark.parametrize("edges", [[(21, 25)], [(21, 22), (22, 21)], [(0, 1), (1, 0)]])
def test_a_non_edge_is_refused_when_its_deletion_is_recorded(edges):
    # on star(20) + C_8 the star leads by a safe margin, so a deletion in
    # the cycle is only recorded: (21, 25) is a chord the cycle lacks, and
    # a cycle edge or a star edge may go once
    g = union(star(20), cycle(8))
    pb = PerronBlocks(g)
    *first, last = edges
    for u, v in first:
        pb.delete_edge(u, v)
        g = delete_edge(g, u, v)
    pd = pb.pd
    with pytest.raises(SpectraError, match="no edge"):
        pb.delete_edge(*last)
    assert pb.pd is pd
    assert_blocks_match(pb, g)


def _solve_bytes(g: Graph, start: np.ndarray) -> bytes:
    comp = max(g.components, key=len)
    lam, xs, res, iters = _Block(g.sparse_adjacency(), comp).solve(start, 1e-10)
    return np.float64(lam).tobytes() + xs.tobytes() + np.float64(res).tobytes()


@pytest.mark.parametrize("host", [star(200), union(star(40), complete(6))])
def test_block_solve_is_a_pure_function_of_its_start(host):
    # a memo keyed on the start is exact only if nothing else the process
    # solved in between can move the result
    start = np.linspace(1.0, 2.0, host.n)
    before = _solve_bytes(host, start)
    for other in (star(150), star(300), sample_gnm(120, 400, 5), union(star(40), cycle(9))):
        perron(other)
        _solve_bytes(other, np.linspace(1.0, 2.0, other.n))
    assert _solve_bytes(host, start) == before


def test_memo_hit_returns_a_copy_and_no_iterations():
    g = star(30)  # dense power iteration, which reports its iterations
    block = _Block(g.sparse_adjacency(), g.components[0])
    runs = []
    solver = block._solve
    block._solve = lambda *args: runs.append(1) or solver(*args)
    lam, xs, res, iters = block.solve(None, 1e-10)
    assert iters > 0
    xs[:] = -1.0  # the caller's copy, not the memo's
    again = block.solve(None, 1e-10)
    assert len(runs) == 1
    assert again[0] == lam and again[2] == res and again[3] == 0
    assert np.all(again[1] > 0)
    block.solve(None, 1e-9)  # another tol is another solve
    assert len(runs) == 2


def test_margin():
    assert perron(star(30)).margin == math.inf
    assert perron(union(star(30), Graph.from_edges(3, []))).margin == math.inf
    pd = perron(union(star(20), star(30)))
    assert pd.margin == pd.lam - perron(star(20)).lam > 0
    assert perron(union(star(30), star(30))).margin == 0.0
