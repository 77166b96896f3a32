"""Counting on the false-twin quotient.

Every contraction runs on the host's twin quotient with the class sizes as
vertex weights, and `count_ktt` at t >= 3 recurses over the classes.  The
oracles are the unweighted dense path over all n host vertices and the
vertex-level subset recursion, both kept here as they ran before the
quotient, plus exact grouping of equal CSR rows for the classes.
"""

import math
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslab import (
    closed_walk_count,
    count_c2t,
    count_ktt,
    hom_contract,
    inj_count,
)
from sslab.graphs import (
    Graph,
    SplitSpec,
    complete,
    complete_bipartite,
    cycle,
    path,
    sample_gnm,
    split_graph,
    star,
    _twins,
)
from sslab.homcounts import _Shared, _execute, _put, _quotients, _schedule, codegree_work
from conftest import blow_up, csr_rows, dense_adjacency, random_graph


# -- oracles -------------------------------------------------------------------


def unweighted_sum(terms, g: Graph) -> int:
    """Sum of mu * hom(pattern, g) over `terms` on g's dense n x n
    adjacency with all-ones weights: each term's keyed plan in float64,
    rerun on Python ints when a factor passes 2^52, as the engine ran
    before the quotient."""
    a = dense_adjacency(g)
    total = 0
    for n_vars, edges, mu in terms:
        ((_, plan, *_),), uses = _schedule(((n_vars, edges, 1),))
        value = None
        for host in (a, a.astype(np.int64).astype(object)):
            ones = np.ones(g.n, dtype=host.dtype)
            factors = {(v,): ones for v in range(n_vars)}
            for u, v in edges:
                scope = tuple(sorted({u, v}))
                f = np.diagonal(host) if u == v else host
                factors[scope] = factors[scope] * f if scope in factors else f
            value = _execute(plan, factors, g.n, _Shared(uses))
            if value is not None:
                break
        total += mu * value
    return total


def vertex_ktt(g: Graph, t: int) -> int:
    """K_{t,t} copies by the subset recursion over vertices, as `count_ktt`
    ran before the quotient: half the sum, over t-subsets S, of
    C(codeg(S), t), the last vertex one pass over a table of C(c, t)."""
    bits = [sum(1 << w for w in row) for row in csr_rows(g)]
    choose = [math.comb(c, t) for c in range(g.n + 1)]
    doubled = 0

    def rec(start, depth, common):
        nonlocal doubled
        if depth == t - 1:
            doubled += sum(choose[(common & b).bit_count()] for b in bits[start:])
            return
        for v in range(start, g.n):
            c = common & bits[v] if depth else bits[v]
            if c.bit_count() >= t:
                rec(v + 1, depth + 1, c)

    rec(0, 0, 0)
    return doubled // 2


def exact_classes(g: Graph) -> tuple[list, list]:
    """(least vertex of each class, class sizes) by grouping equal rows."""
    first: dict = {}
    sizes: dict = {}
    for v, row in enumerate(csr_rows(g)):
        first.setdefault(row, v)
        sizes[row] = sizes.get(row, 0) + 1
    return list(first.values()), [sizes[row] for row in first]


def cycle_term(length):
    return (length, tuple((i, (i + 1) % length) for i in range(length)), 1)


def ktt_term(t):
    return (2 * t, tuple((i, t + j) for i in range(t) for j in range(t)), 1)


def assert_counts_match(g: Graph):
    """Every contraction caller and count_ktt(3) against the oracles."""
    c6 = _quotients(6, cycle_term(6)[1])
    assert count_c2t(g, 3).value * 12 == unweighted_sum(c6, g)
    for length in (3, 6):
        assert closed_walk_count(g, length).value == unweighted_sum((cycle_term(length),), g)
    for t in (2, 3):
        ktt = complete_bipartite(t, t)
        assert hom_contract(ktt.n, ktt.edges, g).value == unweighted_sum((ktt_term(t),), g)
    for h in (path(4), complete_bipartite(2, 3)):
        assert inj_count(h, g).value == unweighted_sum(_quotients(h.n, h.edges), g)
    # a pattern with an isolated vertex and a repeated edge
    edges = [(0, 1), (1, 2), (0, 1)]
    assert hom_contract(4, edges, g).value == unweighted_sum(((4, tuple(edges), 1),), g)
    assert count_ktt(g, 3).value == vertex_ktt(g, 3)


# -- hosts ---------------------------------------------------------------------


@st.composite
def twin_hosts(draw, n_max=24):
    """Split graphs, perturbed split graphs, stars, complete bipartite
    graphs, blow-ups and G(n,m), each padded with isolated vertices."""
    kind = draw(st.sampled_from(["split", "perturbed", "star", "kab", "blowup", "gnm"]))
    if kind in ("split", "perturbed"):
        k = draw(st.integers(1, 4))
        m = draw(st.integers(k * (k - 1) // 2 + 1, 4 * n_max))
        g, spec = split_graph(k, m), SplitSpec(k, m)
        if kind == "perturbed" and g.n - spec.indep_start >= 2:
            u, v = draw(st.lists(st.integers(spec.indep_start, g.n - 1), min_size=2,
                                 max_size=2, unique=True))
            g = Graph.from_edges(g.n, list(g.edges) + [(u, v)])
    elif kind == "star":
        g = star(draw(st.integers(1, n_max)))
    elif kind == "kab":
        g = complete_bipartite(draw(st.integers(1, 6)), draw(st.integers(1, 8)))
    elif kind == "blowup":
        n = draw(st.integers(1, 6))
        base = sample_gnm(n, draw(st.integers(0, n * (n - 1) // 2)), draw(st.integers(0, 2**32)))
        g = blow_up(base, draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)))
    else:
        n = draw(st.integers(2, n_max))
        g = sample_gnm(n, draw(st.integers(0, n * (n - 1) // 2)), draw(st.integers(0, 2**32)))
    return Graph.from_edges(g.n + draw(st.integers(0, 3)), g.edges)


# -- the classes ---------------------------------------------------------------


class TestTwinClasses:
    @settings(max_examples=80, deadline=None)
    @given(twin_hosts())
    def test_classes_are_the_equal_rows(self, g):
        reps, w = _twins(g.sparse_adjacency())
        assert (reps.tolist(), w.tolist()) == exact_classes(g)

    def test_forced_collisions_still_split_exactly(self, monkeypatch):
        # with seed 0 every vertex key is 0, so every row of one degree has
        # the same key and only the entry-by-entry check tells them apart
        monkeypatch.setattr("sslab.graphs._TWIN_SEED", 0)
        hosts = [cycle(12), complete(7), split_graph(3, 40), blow_up(cycle(5), [3, 1, 2, 1, 2])]
        hosts += [random_graph(9100 + s, 14, allow_empty=True) for s in range(30)]
        for g in hosts:
            reps, w = _twins(g.sparse_adjacency())
            assert (reps.tolist(), w.tolist()) == exact_classes(g)
        assert len(_twins(cycle(12).sparse_adjacency())[0]) == 12
        for g in hosts[:4]:
            assert_counts_match(g)

    def test_rows_with_equal_indices_and_other_values_stay_apart(self):
        from scipy.sparse import csr_matrix

        # rows 0 and 2 both hold column 0, with entries 1 and 2
        a = csr_matrix(np.array([[1, 0, 0], [0, 0, 0], [2, 0, 0]], dtype=float))
        reps, w = _twins(a)
        assert reps.tolist() == [0, 1, 2] and w.tolist() == [1, 1, 1]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_split_graph_class_counts(self, k):
        for m in range(k * (k - 1) // 2 + k, k * (k - 1) // 2 + 6 * k):
            spec = SplitSpec(k, m)
            g = split_graph(k, m)
            assert spec.q > 0
            want = k + 1 + (spec.r > 0)
            assert len(_twins(g.sparse_adjacency())[0]) == want == spec.classes
            # one seeded edge between two independent vertices splits both off
            u, v = spec.indep_start, g.n - 1
            if u < v:
                h = Graph.from_edges(g.n, list(g.edges) + [(u, v)])
                got = len(_twins(h.sparse_adjacency())[0])
                assert got == k + (spec.r > 0) + 2 + (spec.q > 2) <= spec.classes + 2

    def test_twin_free_host_runs_without_weights(self, contraction_log):
        # no class holds two vertices: the engine runs on the host's own
        # adjacency, so every sum step sees n x n or n-vector operands
        g = sample_gnm(40, 160, 11)
        assert len(_twins(g.sparse_adjacency())[0]) == g.n
        count_c2t(g, 3)
        shapes = [s for _, step_shapes, *_ in contraction_log for s in step_shapes]
        assert shapes and all(s in ((40, 40), (40,)) for s in shapes)


class TestOneQuotientPerHost:
    def test_counters_share_one_twin_computation(self, monkeypatch):
        calls, twins = [], _twins

        def counted(a):
            calls.append(a.shape)
            return twins(a)

        monkeypatch.setattr("sslab.graphs._twins", counted)
        g, h = split_graph(3, 40), complete_bipartite(2, 3)
        hom_contract(h.n, h.edges, g)
        inj_count(h, g)
        count_ktt(g, 3)
        assert calls == [(g.n, g.n)]

    def test_quotient_is_the_class_slice(self):
        for g in (split_graph(3, 40), blow_up(cycle(5), [3, 1, 2, 1, 2]), star(6)):
            reps, w, a = g.twin_quotient
            assert (reps.tolist(), w.tolist()) == exact_classes(g)
            assert np.array_equal(a.toarray(), dense_adjacency(g)[reps][:, reps])
            assert a is not g.sparse_adjacency()

    def test_twin_free_host_is_its_own_quotient(self):
        g = sample_gnm(40, 160, 11)
        reps, w, a = g.twin_quotient
        assert a is g.sparse_adjacency()
        assert reps.tolist() == list(range(g.n)) and w.tolist() == [1] * g.n

    def test_classes_are_read_only(self):
        for g in (split_graph(3, 40), sample_gnm(40, 160, 11)):
            for view in g.twin_quotient[:2]:
                with pytest.raises(ValueError):
                    view[0] = 2


# -- the weighted engine -------------------------------------------------------


class TestWeightedEngine:
    @settings(max_examples=60, deadline=None)
    @given(twin_hosts())
    def test_matches_the_unweighted_path(self, g):
        assert_counts_match(g)

    def test_blow_ups_of_weighted_graphs(self):
        rng = random.Random(31)
        for _ in range(25):
            n = rng.randint(1, 6)
            base = sample_gnm(n, rng.randint(0, n * (n - 1) // 2), rng.randrange(2**32))
            g = blow_up(base, [rng.randint(1, 5) for _ in range(n)])
            assert_counts_match(g)

    def test_c6_on_split_graphs_of_every_size(self):
        for k in (2, 3, 4):
            for m in range(k * (k - 1) // 2 + 1, k * (k - 1) // 2 + 40, 7):
                g = split_graph(k, m)
                c6 = _quotients(6, cycle_term(6)[1])
                assert count_c2t(g, 3).value * 12 == unweighted_sum(c6, g)

    def test_c6_on_a_million_edge_split_graph(self):
        # S_{3,10^6}: n = 333 336 vertices in 5 classes; the dense host would
        # be a 333 336 x 333 336 factor.  #C_6/m^3 is near c_3 = 1/27
        g = split_graph(3, 10**6)
        assert len(_twins(g.sparse_adjacency())[0]) == 5
        start = time.perf_counter()
        value = count_c2t(g, 3).value
        elapsed = time.perf_counter() - start
        assert value == 37_036_259_264_370_360
        assert abs(value / 10**18 - 1 / 27) < 1e-4
        print(f"count_c2t(split_graph(3, 10**6), 3): {elapsed:.3f} s")

    def test_exact_rerun_picks_int64_by_the_range_bound(self, contraction_log):
        def dtypes():  # each logged step's dtype, read off its first operand
            return {step_dtypes[0] for _, _, step_dtypes, _ in contraction_log}

        # K_{10,...,10} with 23 parts: 23 classes of 10; tr(A^8) ~ 220^8
        # passes 2^52 and 230^8 < 2^63, so the weighted rerun is on int64,
        # checked against the int64 matrix power (every entry below 230^8)
        g = blow_up(complete(23), [10] * 23)
        a = dense_adjacency(g).astype(np.int64)
        assert closed_walk_count(g, 8).value == int(np.trace(np.linalg.matrix_power(a, 8)))
        assert "int64" in dtypes() and "object" not in dtypes()
        # hom(C_30, K_6) = 5^30 + 5, and 6^30 passes 2^63, so that rerun is
        # on Python ints
        contraction_log.clear()
        assert closed_walk_count(complete(6), 30).value == 5**30 + 5
        assert "object" in dtypes() and "int64" not in dtypes()
        # the bound reads the vertices, not the classes: S_{2,60} has 4
        # classes and 31 vertices, 4^24 < 2^63 < 31^24, and tr(A^24) > 2^63
        g = split_graph(2, 60)
        value = closed_walk_count(g, 24).value
        assert value == unweighted_sum((cycle_term(24),), g) > 2**63

    def test_integer_factors_pass_the_float_range_check(self):
        assert _put({}, (0,), np.array([1, 2**60], dtype=np.int64))
        assert _put({}, (0,), np.array([1, 2**70], dtype=object))
        assert not _put({}, (0,), np.array([1.0, 2.0**60]))


# -- count_ktt over classes ----------------------------------------------------


class TestClassRecursion:
    def test_split_graph_k33(self):
        # S_{3,3000}: 1002 vertices in 4 classes.  Its K_{3,3} copies are the
        # clique against 3 of the 999 independent vertices.  The vertex
        # recursion would take about 10 s here (one core), the class one ~1 ms
        g = split_graph(3, 3000)
        assert count_ktt(g, 3).value == 165_668_499 == math.comb(999, 3)
        for k, m in ((3, 300), (3, 301), (4, 400), (2, 200), (5, 120)):
            g = split_graph(k, m)
            for t in (3, 4):
                assert count_ktt(g, t).value == vertex_ktt(g, t)

    @settings(max_examples=60, deadline=None)
    @given(twin_hosts(n_max=16), st.integers(3, 4))
    def test_matches_the_vertex_recursion(self, g, t):
        assert count_ktt(g, t).value == vertex_ktt(g, t)

    def test_budget_counts_classes(self, monkeypatch):
        # S_{3,30000} has 10 002 vertices and 4 classes: at most
        # 4 + C(5, 2) + C(6, 3) = 34 class tries, where the vertex recursion
        # would face C(10002, 3) subsets.  Its K_{3,3} copies are the clique
        # against 3 of the q = 9999 independent vertices
        g = split_graph(3, 30000)
        assert codegree_work(g.n, 3, 4) == 34
        monkeypatch.setattr("sslab.homcounts.WORK_BUDGET", 34)
        assert count_ktt(g, 3).value == math.comb(9999, 3)
