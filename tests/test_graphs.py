"""Graph construction, families, algebra, sampling, and edge-list I/O."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslab import (
    Graph,
    SplitSpec,
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    join,
    make_family,
    path,
    read_edge_list,
    sample_gnm,
    split_graph,
    star,
    union,
    write_edge_list,
)
from sslab.graphs import GraphError, ParseError, _edge_unrank

from conftest import csr_rows, tensor_power
from test_edge_array import edge_lists


class TestGraphBasics:
    def test_from_edges_normalizes_orientation(self):
        g = Graph.from_edges(3, [(2, 0), (1, 2)])
        assert g.edges == ((0, 2), (1, 2))

    def test_loop_rejected(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(1, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(0, 1), (1, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Graph.from_edges(2, [(0, 2)])

    def test_degrees_and_adjacency(self):
        g = star(3)
        assert g.degrees == (3, 1, 1, 1)
        assert csr_rows(g)[0] == (1, 2, 3)
        assert g.has_edge(0, 2) and not g.has_edge(1, 2)
        assert g.big_m == 2 * g.edge_count

    def test_components_ordering(self):
        g = Graph.from_edges(5, [(3, 4), (0, 1)])
        assert g.components == ((0, 1), (2,), (3, 4))

    def test_induced_subgraph(self):
        g = cycle(5)
        # vertices 1, 2, 3 become 0, 1, 2; (1, 2) and (2, 3) are the edges kept
        sub = g.induced_subgraph([3, 1, 2])
        assert sub.n == 3 and sub.edges == ((0, 1), (1, 2))
        assert g.induced_subgraph([0, 2, 4]).edges == ((0, 2),)

    def test_delete_edge(self):
        g = complete(3).delete_edge(2, 0)
        assert g.edges == ((0, 1), (1, 2))
        with pytest.raises(GraphError):
            g.delete_edge(0, 2)

    def test_bipartition(self):
        assert complete_bipartite(2, 3).is_bipartite()
        assert not complete(3).is_bipartite()
        assert cycle(4).is_bipartite() and not cycle(5).is_bipartite()


class TestSplitGraphs:
    def test_spec_arithmetic(self):
        spec = SplitSpec(3, 20)
        # 20 - 3 = 17 = 3*5 + 2
        assert (spec.q, spec.r) == (5, 2)
        assert spec.n == 3 + 5 + 1

    def test_spec_invariant_range(self):
        for k in range(1, 7):
            for m in range(k * (k - 1) // 2, 200):
                spec = SplitSpec(k, m)
                assert spec.m - k * (k - 1) // 2 == k * spec.q + spec.r
                assert 0 <= spec.r <= k - 1 or k == 1 and spec.r == 0
                assert spec.q >= 0

    def test_below_clique_rejected(self):
        with pytest.raises(GraphError):
            SplitSpec(4, 5)

    def test_exists_is_what_construction_accepts(self):
        for k in range(-1, 6):
            for m in range(-1, 16):
                try:
                    SplitSpec(k, m)
                except GraphError:
                    assert not SplitSpec.exists(k, m), (k, m)
                else:
                    assert SplitSpec.exists(k, m), (k, m)

    def test_edge_count_exact(self):
        for k in range(1, 6):
            for m in range(max(1, k * (k - 1) // 2), 120, 7):
                assert split_graph(k, m).edge_count == m

    def test_vertex_layout(self):
        g = split_graph(3, 20)  # q=5, r=2
        spec = SplitSpec(3, 20)
        # clique on 0..2
        for i in range(3):
            for j in range(i + 1, 3):
                assert g.has_edge(i, j)
        # extra vertex 3 adjacent to exactly vertices 0..r-1
        rows = csr_rows(g)
        assert rows[3] == (0, 1)
        # independent vertices adjacent to the whole clique and nothing else
        for w in range(4, g.n):
            assert rows[w] == (0, 1, 2)
        # non-clique part is an independent set
        outside = range(spec.k, g.n)
        for u in outside:
            for v in outside:
                if u < v:
                    assert not g.has_edge(u, v)

    def test_divisible_case_has_no_extra_vertex(self):
        g = split_graph(2, 101)  # q=50, r=0
        assert g.n == 52
        assert all(d in (51, 2) for d in g.degrees)


class TestFamilies:
    def test_standard_families(self):
        assert complete(4).edge_count == 6
        assert cycle(5).degrees == (2,) * 5
        assert path(4).edge_count == 3
        assert star(4).degrees == (4, 1, 1, 1, 1)
        assert empty_graph(3).edge_count == 0
        assert complete_bipartite(3, 4).edge_count == 12

    def test_make_family_dispatch(self):
        assert make_family("split", (2, 9)).edge_count == 9
        assert make_family("cycle", (6,)) == cycle(6)
        assert make_family("clique", (4,)).edge_count == 6
        assert make_family("star", (3,)) == star(3)
        g = make_family("gnm", (8, 5), seed=3)
        assert g.edge_count == 5

    def test_make_family_validation(self):
        with pytest.raises(GraphError):
            make_family("cycle", (2,))
        with pytest.raises(GraphError):
            make_family("gnm", (8, 5))  # missing seed
        with pytest.raises(GraphError):
            make_family("nope", (1,))


class TestSampling:
    def test_reproducible(self):
        a = sample_gnm(20, 40, seed=77)
        b = sample_gnm(20, 40, seed=77)
        assert a == b
        assert sample_gnm(20, 40, seed=78) != a

    def test_edge_count_and_range(self):
        g = sample_gnm(9, 17, seed=5)
        assert g.n == 9 and g.edge_count == 17
        with pytest.raises(GraphError):
            sample_gnm(4, 7, seed=0)

    def test_uniformity_n5_m3(self):
        # every 3-edge graph on 5 labeled vertices equally likely
        counts = Counter()
        samples = 10_000
        for s in range(samples):
            counts[sample_gnm(5, 3, seed=s).edges] += 1
        cells = math.comb(10, 3)
        assert len(counts) == cells
        p = 1 / cells
        sigma = math.sqrt(samples * p * (1 - p))
        expect = samples * p
        for c in counts.values():
            assert abs(c - expect) <= 5 * sigma


class TestEdgeUnrank:
    @staticmethod
    def loop_unrank(rank):
        # the defining search: the largest v with C(v, 2) <= rank
        v = 1
        while (v + 1) * v // 2 <= rank:
            v += 1
        return rank - v * (v - 1) // 2, v

    def test_matches_the_search_below_1e5(self):
        assert all(_edge_unrank(r) == self.loop_unrank(r) for r in range(10**5))

    def test_ranks_near_2_62(self):
        # too far for the search: check C(v, 2) <= rank < C(v + 1, 2) instead,
        # on both sides of the colex boundaries around 2^62
        top = (1 + math.isqrt(8 * 2**62 + 1)) // 2
        ranks = [2**62 + d for d in range(-50, 50)]
        ranks += [math.comb(v, 2) + d for v in range(top - 3, top + 3) for d in (-1, 0, 1)]
        for r in ranks:
            u, v = _edge_unrank(r)
            assert 0 <= u < v
            assert math.comb(v, 2) + u == r


class TestAlgebra:
    def test_tensor_power_edge_identity(self):
        # 2 e(g^{tensor k}) = (2 e(g))^k
        for g in [path(2), path(3), cycle(3), star(3)]:
            for k in (1, 2, 3):
                assert tensor_power(g, k).big_m == g.big_m**k

    def test_union_join(self):
        u = union(cycle(3), path(2))
        assert u.n == 5 and u.edge_count == 4
        j = join(path(2), path(2))
        assert j.edge_count == 2 + 4  # K4


class TestEdgeListIO:
    def test_roundtrip(self):
        g = split_graph(3, 11)
        assert read_edge_list(write_edge_list(g)) == g

    def test_writing_leaves_the_edge_tuple_unbuilt(self):
        # the writer reads edge_array, so a large graph it writes holds no
        # tuple of edge tuples; the text is the one the tuple gives
        g = split_graph(3, 11)
        text = write_edge_list(g)
        assert "edges" not in vars(g)
        assert text == "".join([f"# n={g.n}\n", *(f"{u} {v}\n" for u, v in g.edges)])

    def test_header_fixes_isolated_vertices(self):
        g = read_edge_list("# n=6\n0 1\n")
        assert g.n == 6 and g.edges == ((0, 1),)

    def test_missing_header_infers_n(self):
        g = read_edge_list("0 1\n2 1\n")
        assert g.n == 3

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as e:
            read_edge_list("0 1\n1 1\n")
        assert e.value.line == 2
        with pytest.raises(ParseError):
            read_edge_list("0 1\n1 0\n")  # reversed duplicate
        with pytest.raises(ParseError):
            read_edge_list("0 1 2\n")
        with pytest.raises(ParseError):
            read_edge_list("a b\n")
        with pytest.raises(GraphError):
            read_edge_list("# n=2\n0 5\n")


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=2, max_value=10))
def test_roundtrip_random(seed, n_max):
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    m = rng.randint(0, n * (n - 1) // 2)
    g = sample_gnm(n, m, seed)
    assert read_edge_list(write_edge_list(g)) == g


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=400))
def test_split_params_property(k, extra):
    m = k * (k - 1) // 2 + extra
    if m < 1:
        return
    g = split_graph(k, m)
    spec = SplitSpec(k, m)
    assert g.edge_count == m
    assert g.n == spec.n
    # clique degrees dominate
    assert max(g.degrees) == g.degrees[0]


# -- the list-built constructors and the DFS 2-colouring that the array forms
# replaced, kept as oracles


def list_split_graph(k, m):
    spec = SplitSpec(k, m)
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges.extend((i, k) for i in range(spec.r))  # the extra vertex is k
    for w in range(spec.indep_start, spec.n):
        edges.extend((i, w) for i in range(k))
    return Graph.from_edges(spec.n, edges)


# builder -> (list-built oracle, smallest n the builder takes)
LIST_FAMILIES = {
    complete: (
        lambda n: Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)]), 0
    ),
    cycle: (lambda n: Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]), 3),
    path: (lambda n: Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)]), 1),
    star: (lambda n: Graph.from_edges(n + 1, [(0, i) for i in range(1, n + 1)]), 1),
}


def list_complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def list_join(g1, g2):
    base = union(g1, g2)
    cross = [(u, g1.n + v) for u in range(g1.n) for v in range(g2.n)]
    return Graph.from_edges(base.n, list(base.edges) + cross)


def dfs_is_bipartite(g):
    nbrs = [[] for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in nbrs[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def assert_same(g, want):
    assert g == want
    assert g.n == want.n and g.edge_array.dtype == want.edge_array.dtype
    assert g.edge_array.tobytes() == want.edge_array.tobytes()


@pytest.mark.parametrize("k", range(1, 7))
def test_split_graph_matches_the_list_constructor(k):
    base = k * (k - 1) // 2
    # q = 0 for m < base + k; r runs over 0..k-1 at every q
    for m in range(max(base, 1), base + 4 * k):
        assert_same(split_graph(k, m), list_split_graph(k, m))


def test_families_match_the_list_constructors():
    for build, (oracle, lo) in LIST_FAMILIES.items():
        for n in range(lo, 10):
            assert_same(build(n), oracle(n))
    for a in range(1, 9):
        for b in range(1, 10 - a):
            assert_same(complete_bipartite(a, b), list_complete_bipartite(a, b))


@settings(max_examples=100, deadline=None)
@given(edge_lists(max_n=5), edge_lists(max_n=5))
def test_join_matches_the_list_join(c1, c2):
    g1, g2 = Graph.from_edges(*c1), Graph.from_edges(*c2)
    assert_same(join(g1, g2), list_join(g1, g2))


@pytest.mark.parametrize(
    "g",
    [empty_graph(0), empty_graph(3), union(cycle(5), empty_graph(2)),
     union(empty_graph(2), cycle(6)), union(cycle(4), cycle(7)), path(1)]
    + [cycle(n) for n in range(3, 10)]
    + [complete_bipartite(a, b) for a in (1, 2, 3) for b in (1, 3, 4)],
)
def test_is_bipartite_matches_the_dfs_on_named_graphs(g):
    assert g.is_bipartite() == dfs_is_bipartite(g)


@settings(max_examples=300, deadline=None)
@given(edge_lists(max_n=11))
def test_is_bipartite_matches_the_dfs(case):
    g = Graph.from_edges(*case)
    assert g.is_bipartite() == dfs_is_bipartite(g)
