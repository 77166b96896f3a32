"""Incremental heavy-edge pruning: after a deletion outside the Perron
component, `heavy_prune` re-solves only that component's block, and the
block skips the solver when the start vector repeats bit for bit.  Checked
against the plain loop that calls `perron` on the whole graph every step,
which must give the same deletions, lambdas and Perron vectors bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslab import spectra
from sslab.graphs import Graph, complete, cycle, path, sample_gnm, star, union
from sslab.spectra import _Block, perron, split_lambda
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
        current = current.delete_edge(u, v)
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


def counting_perron(monkeypatch):
    """Every full `perron` solve: heavy_prune's first, and those
    `perron_after_deletion` falls back to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return perron(*args, **kwargs)

    monkeypatch.setattr("sslab.supersat.perron", counted)
    monkeypatch.setattr("sslab.spectra.perron", counted)
    return calls


def counting_solvers(monkeypatch):
    """Every run of a block solver (`_Block` picks one when it is built)."""
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
    calls = counting_perron(monkeypatch)
    trace = assert_matches_oracle(g)
    assert len(trace.steps) == 90
    # heavy_prune's calls only: the oracle calls the unpatched perron
    assert len(calls) == 62


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_deletions_outside_the_perron_component_need_one_solve(monkeypatch, seed):
    calls = counting_perron(monkeypatch)
    runs = counting_solvers(monkeypatch)
    trace = heavy_prune(union(star(200), sample_gnm(100, 220, seed)), 2)
    assert len(trace.steps) == 220
    assert len(calls) == 1
    # the star's warm re-solves reach a bitwise fixed point within a few
    # steps, and the memo answers the rest: without it, one run per
    # component in `perron` and 220 on the star's block
    assert len(runs) <= 10


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
