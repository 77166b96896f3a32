"""Exact counting: backtracking hom counts, the contraction engine and its
Moebius sums for inj, closed walks, fast counters."""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sslab
from sslab import (
    CountResult,
    aut_order,
    closed_walk_count,
    count_c2t,
    count_ktt,
    hom_contract,
    hom_count,
    inj_count,
)
from sslab.graphs import (
    Graph,
    SplitSpec,
    complete,
    complete_bipartite,
    cycle,
    empty_graph,
    join,
    path,
    sample_gnm,
    split_graph,
    star,
    union,
    _twins,
)
from sslab.homcounts import (
    HOM_BLOCK,
    BudgetExceededError,
    CountError,
    PatternTooLargeError,
    _Shared,
    _canonical,
    _connected_order,
    _execute,
    _pair_total,
    _plan,
    _plan_work,
    _put,
    _quotients,
    _schedule,
    _sum_out,
    codegree_work,
    wedge_bound,
    wedge_work,
)
from conftest import blow_up, csr_rows, dense_adjacency, inj_backtrack, random_graph


class TestBacktracking:
    def test_hom_k2_is_big_m(self):
        for s in range(20):
            g = random_graph(s, 9, allow_empty=True)
            assert hom_count(path(2), g).value == g.big_m

    def test_hom_p3_is_degree_squares(self):
        for s in range(20):
            g = random_graph(40 + s, 9)
            assert hom_count(path(3), g).value == sum(d * d for d in g.degrees)

    def test_inj_triangles(self):
        g = complete(5)
        assert inj_count(cycle(3), g).value == 5 * 4 * 3

    def test_known_aut_orders(self):
        assert aut_order(cycle(6)) == 12
        assert aut_order(complete_bipartite(3, 3)) == 72
        assert aut_order(path(4)) == 2
        assert aut_order(complete(4)) == 24

    def test_method_tag(self):
        assert hom_count(path(2), path(2)).method == "backtracking"

    def test_pattern_limit(self):
        with pytest.raises(PatternTooLargeError):
            hom_count(path(11), path(3))

    @staticmethod
    def _every_map(h: Graph, g: Graph) -> int:
        """hom(h, g) over every map of h's vertices into g's."""
        adjacent = set(g.edges) | {(v, u) for u, v in g.edges}
        return sum(
            all((f[u], f[v]) in adjacent for u, v in h.edges)
            for f in itertools.product(range(g.n), repeat=h.n)
        )

    # patterns with no vertex, with one, and whose last vertex in
    # `_connected_order` has 0 (an isolated vertex), 1, 2 and 3 placed
    # neighbours: `hom_count` counts that vertex by the size of its set
    @pytest.mark.parametrize(
        "h, anchors",
        [(Graph.from_edges(0, []), None), (Graph.from_edges(1, []), 0),
         (Graph.from_edges(3, [(0, 1)]), 0), (path(3), 1), (cycle(4), 2), (complete(4), 3)],
    )
    def test_matches_every_map(self, h, anchors):
        if anchors is not None:
            rows = [list(r) for r in csr_rows(h)]
            assert len(rows[_connected_order(rows)[-1]]) == anchors
        hosts = [Graph.from_edges(0, []), Graph.from_edges(1, []), path(2), star(3), cycle(5)]
        hosts += [random_graph(7400 + s, 6, allow_empty=True) for s in range(8)]
        for g in hosts:
            assert hom_count(h, g).value == self._every_map(h, g)

    def test_monotone_under_edge_addition(self):
        rng = random.Random(8)
        h = cycle(4)
        for s in range(15):
            g = random_graph(200 + s, 8)
            non_edges = [
                (u, v)
                for u in range(g.n)
                for v in range(u + 1, g.n)
                if not g.has_edge(u, v)
            ]
            if not non_edges:
                continue
            u, v = rng.choice(non_edges)
            g2 = Graph.from_edges(g.n, list(g.edges) + [(u, v)])
            assert hom_count(h, g2).value >= hom_count(h, g).value

    def test_block_boundaries(self, monkeypatch):
        # last vertices with 0, 1, 2 and 3 anchors, a pattern whose
        # anchor-free vertex (0, after 3, 2, 4) is not last, K_{3,3}, C_6,
        # C_8 and the empty pattern, on the empty host among others.  C_8
        # skips the larger hosts: at one row per block its 10^5 partial
        # maps on G(8, 14) take seconds
        disjoint = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
        assert _connected_order([list(r) for r in csr_rows(disjoint)]) == [3, 2, 4, 0, 1]
        patterns = [Graph.from_edges(0, []), Graph.from_edges(3, [(0, 1)]), path(3), cycle(4),
                    complete(4), disjoint, complete_bipartite(3, 3), cycle(6), cycle(8)]
        small = [Graph.from_edges(0, []), Graph.from_edges(1, []), path(2), star(3), cycle(5)]
        small += [random_graph(7400 + s, 6, allow_empty=True) for s in range(8)]
        larger = [sample_gnm(8, 14, s) for s in range(3)]
        for h in patterns:
            for g in small + larger * (h.n < 8):
                want = hom_contract(h.n, h.edges, g).value
                if h.n <= 5 and g.n <= 6:
                    assert self._every_map(h, g) == want
                for block in (1, 2, 7):
                    monkeypatch.setattr("sslab.homcounts.HOM_BLOCK", block)
                    assert hom_count(h, g).value == want, (h.edges, g.edges, block)

    def test_memory_is_bounded_by_the_block(self):
        g = sample_gnm(60, 180, 3)
        g.sparse_adjacency()  # the host's own CSR, built once for every count
        # C_6's first five vertices in `_connected_order` form a path, so
        # its frontier at depth 5 holds hom(P_5, g) partial maps
        assert hom_count(path(5), g).value > 8 * HOM_BLOCK
        tracemalloc.start()
        try:
            value = hom_count(cycle(6), g).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == hom_contract(6, cycle(6).edges, g).value
        assert peak <= 2 * 10**6

    def test_host_past_the_int64_key_range(self):
        # n * n >= 2^63, so a key row * n + column could wrap: refused
        # before the CSR, whose row pointer alone would take n words
        g = Graph.from_edges(3_100_000_000, [(0, 1)])
        with pytest.raises(CountError, match="int64 key range"):
            hom_count(path(2), g)


# fixed patterns whose plans condition: K_{3,3}; K4, a quotient of C8; and
# K4 on 0..3 plus a triangle 0-4-5, an edge 4-1 and a pendant at 0, where the
# factor on (0, 1) is not symmetric and neither is the rest of the pattern, so
# conditioning must slice the right axis.  Then isolated vertices and leaves.
FIXED_PATTERNS = [
    complete_bipartite(3, 3),
    complete(4),
    Graph.from_edges(
        7, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4), (4, 1), (4, 5), (5, 0), (0, 6)]
    ),
    Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)]),
    Graph.from_edges(6, [(0, 1), (2, 3)]),
    path(7),
]


def _random_pattern(seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(1, 7)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph.from_edges(n, [e for e in pairs if rng.random() < 0.45])


# -- references for `_quotients` and `_plan` --------------------------------


def _set_partitions(items: list[int]):
    """All set partitions, as lists of lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def reference_quotients(n_vars: int, edges) -> tuple:
    """What `_quotients` returns, from every set partition of 0..n_vars-1:
    a partition with a block holding an edge is dropped, any other adds
    prod (-1)^(|B|-1) (|B|-1)! over its blocks B to its quotient's class."""
    mu: dict = {}
    for part in _set_partitions(list(range(n_vars))):
        block_of = {v: i for i, block in enumerate(part) for v in block}
        if any(block_of[u] == block_of[v] for u, v in edges):
            continue
        q = _canonical(
            len(part),
            frozenset(tuple(sorted((block_of[u], block_of[v]))) for u, v in edges),
        )
        sign = math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1) for b in part)
        mu[q] = mu.get(q, 0) + sign
    return tuple((len(colours), es, c) for (colours, es), c in sorted(mu.items()) if c)


def cycle_quotients(t: int) -> tuple:
    """The Moebius terms of inj(C_2t), from every set partition of C_2t."""
    length = 2 * t
    return reference_quotients(length, [(i, (i + 1) % length) for i in range(length)])


def reference_plan(variables: frozenset, scopes: frozenset) -> tuple:
    """The plan `_plan` makes, with every variable's neighbours recomputed
    from the scopes at every step."""
    variables, scopes = set(variables), set(scopes)
    steps = []

    def joined(v):
        return tuple(sorted({u for s in scopes if v in s for u in s} - {v}))

    while variables:
        v = min(variables, key=lambda v: (len(joined(v)), v))
        others = joined(v)
        if len(others) > 2:
            c = max(others, key=lambda u: (sum(u in s for s in scopes), -u))
            rest = {tuple(u for u in s if u != c) for s in scopes} - {()}
            sub = reference_plan(frozenset(variables - {c}), frozenset(rest))
            steps.append(("condition", c, sub))
            break
        variables.discard(v)
        scopes = {s for s in scopes if v not in s} | ({others} if others else set())
        steps.append(("sum", v, others))
    return tuple(steps)


def plan_order(variables: frozenset, scopes: frozenset) -> tuple:
    """`_plan`'s elimination order for factors on `scopes`, each holding
    its own scope as its pattern edges, in `reference_plan`'s form: the
    steps without their sub-patterns, keys and uses."""

    def strip(plan):
        return tuple(
            ("sum", *step[1:3]) if step[0] == "sum" else ("condition", step[1], strip(step[2]))
            for step in plan
        )

    return strip(_plan(variables, {s: frozenset([s]) for s in scopes}))


def _random_scopes(rng: random.Random) -> tuple:
    """Variables 0..n-1 (n up to 9) and scopes of one to three of them."""
    n = rng.randint(1, 9)
    sizes = [k for k in (1, 2, 2, 2, 3) if k <= n]
    scopes = frozenset(
        tuple(sorted(rng.sample(range(n), rng.choice(sizes)))) for _ in range(rng.randint(0, 2 * n))
    )
    return frozenset(range(n)), scopes


class TestPlan:
    def test_matches_the_reference_on_random_scopes(self):
        rng = random.Random(14)
        conditioned = 0
        for _ in range(3000):
            variables, scopes = _random_scopes(rng)
            plan = plan_order(variables, scopes)
            assert plan == reference_plan(variables, scopes)
            conditioned += any(step[0] == "condition" for step in plan)
        assert conditioned > 100  # both branches are exercised

    def test_matches_the_reference_on_a_long_cycle(self):
        # `closed_walk_count(g, 200)` plans this chain
        scopes = frozenset(tuple(sorted((i, (i + 1) % 200))) for i in range(200))
        variables = frozenset(range(200))
        assert plan_order(variables, scopes) == reference_plan(variables, scopes)


class TestInjMoebius:
    """`inj_count` and `aut_order` are Moebius sums over `_quotients` on the
    contraction engine; these oracles share no counting code with it."""

    @pytest.mark.parametrize("t", [3, 4, 5])
    def test_cycle_quotients_are_unchanged(self, t):
        assert _quotients(2 * t, cycle(2 * t).edges) == cycle_quotients(t)

    def test_quotients_match_the_reference(self):
        for seed in range(60):
            h = _random_pattern(seed)
            assert _quotients(h.n, h.edges) == reference_quotients(h.n, h.edges)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.sampled_from(FIXED_PATTERNS), st.integers(0, 2**31).map(_random_pattern)),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_matches_backtracking(self, h, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        g = sample_gnm(n, rng.randint(0, n * (n - 1) // 2), seed)
        res = inj_count(h, g)
        assert res.method == "walk-moebius"
        assert res.value == inj_backtrack(h, g)

    def test_complete_hosts(self):
        # inj(H, K_n) = n! / (n - |H|)!, which is 0 when |H| > n; the
        # 10-vertex patterns have 115975 and 21147 independent partitions
        # but only 10 and 9 quotients
        patterns = [Graph.from_edges(0, []), Graph.from_edges(5, [(0, 1)]), path(7)]
        patterns += [Graph.from_edges(10, []), star(9)]
        patterns += [_random_pattern(seed) for seed in range(40)]
        for h in patterns:
            for n in range(12):
                assert inj_count(h, complete(n)).value == math.perm(n, h.n)

    def test_aut_order_matches_networkx(self):
        patterns = FIXED_PATTERNS + [_random_pattern(seed) for seed in range(300, 340)]
        for h in patterns:
            ref = nx.Graph()
            ref.add_nodes_from(range(h.n))
            ref.add_edges_from(h.edges)
            want = sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(ref, ref)
                       .isomorphisms_iter())
            assert aut_order(h) == want

    def test_pattern_limit(self):
        h = path(11)
        with pytest.raises(PatternTooLargeError, match="11 > 10"):
            inj_count(h, complete(3))
        with pytest.raises(PatternTooLargeError, match="11 > 10"):
            aut_order(h)


class TestContraction:
    def test_conditioning_plans(self):
        for h in FIXED_PATTERNS[:3]:
            scopes = frozenset(h.edges)
            assert any(step[0] == "condition" for step in plan_order(frozenset(range(h.n)), scopes))

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.sampled_from(FIXED_PATTERNS), st.integers(0, 2**31).map(_random_pattern)),
        st.integers(min_value=0, max_value=2**31),
    )
    # seeds 24, 38 and 68 draw 6-vertex hosts with 12 to 14 edges
    @example(FIXED_PATTERNS[0], 24)
    @example(FIXED_PATTERNS[1], 38)
    @example(FIXED_PATTERNS[2], 68)
    def test_matches_backtracking(self, h, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        g = sample_gnm(n, rng.randint(0, n * (n - 1) // 2), seed)
        res = hom_contract(h.n, h.edges, g)
        assert res.method == "contraction"
        assert res.value == hom_count(h, g).value

    @pytest.mark.parametrize("twin_free", [True, False], ids=["twin-free", "blow-up"])
    def test_loops_and_repeated_edges(self, twin_free):
        # a pattern vertex on no edge, or only on a loop, is summed out of
        # its weight alone: the class sizes, all ones on a twin-free host
        g = sample_gnm(8, 14, 0) if twin_free else blow_up(cycle(5), [1, 2, 1, 3, 2])
        assert (len(g.twin_quotient[1]) == g.n) == twin_free
        assert hom_contract(1, [(0, 0)], g).value == 0
        assert hom_contract(2, [(0, 1), (1, 0), (0, 1)], g).value == g.big_m
        assert hom_contract(3, [], g).value == g.n**3
        assert hom_contract(0, [], g).value == 1
        assert hom_contract(3, [(0, 1)], g).value == g.big_m * g.n

    def test_factors_are_read_with_the_summed_axis_first(self):
        # this plan sums some vertex v out of a factor on (u, v), u < v,
        # that is not symmetric, so `_execute` must hand it over transposed
        h = Graph.from_edges(
            7, [(0, 2), (0, 4), (1, 4), (1, 6), (2, 3), (2, 4), (3, 5), (3, 6), (5, 6)]
        )
        for s in range(3):
            g = sample_gnm(7, 12, s)
            assert hom_contract(h.n, h.edges, g).value == hom_count(h, g).value

    def test_edges_are_read_once(self):
        # a one-shot iterable of edges is read once, by the range check
        # and the count alike; P_3 has 5 * 2 * 2 maps into C_5
        g = cycle(5)
        assert hom_contract(3, ((i, i + 1) for i in range(2)), g).value == 20
        assert hom_contract(3, iter([(0, 1), (1, 2)]), g).value == 20
        assert hom_contract(3, [(np.int64(0), 1), (1, np.int8(2))], g).value == 20
        with pytest.raises(CountError, match="non-integer"):
            hom_contract(2, [(0, 1.0)], g)

    def test_edge_outside_pattern(self):
        with pytest.raises(CountError):
            hom_contract(2, [(0, 2)], path(3))

    def test_negative_vertex_count(self):
        with pytest.raises(CountError, match="-1 < 0"):
            hom_contract(-1, [], path(3))

    def test_checks_survive_optimize_flag(self):
        # a non-integer adjacency makes the float-to-int step fail; under -O
        # that must still be a CountError, not a skipped assert
        code = (
            "import numpy as np\n"
            "from scipy.sparse import csr_matrix\n"
            "from sslab.homcounts import CountError, hom_contract\n"
            "class Half:\n"
            "    n = 3\n"
            "    twin_quotient = np.arange(3), np.ones(3), csr_matrix(np.full((3, 3), 0.5))\n"
            "assert False, 'asserts are live'\n"
            "try:\n"
            "    hom_contract(2, [(0, 1)], Half())\n"
            "except CountError as exc:\n"
            "    print('CountError', exc)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(sslab.__file__).parents[1]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.startswith("CountError")


class TestClosedWalks:
    def test_matches_hom_of_even_cycles(self):
        for s in range(50):
            g = random_graph(2000 + s, 7, allow_empty=True)
            for t in (2, 3):
                assert (
                    closed_walk_count(g, 2 * t).value
                    == hom_count(cycle(2 * t), g).value
                )

    def test_length_two_is_big_m(self):
        g = random_graph(3, 8)
        assert closed_walk_count(g, 2).value == g.big_m

    def test_bigint_path_agrees_with_float_path(self):
        g = split_graph(2, 60)
        a = dense_adjacency(g)
        # length large enough to force the exact integer route
        val = closed_walk_count(g, 40).value
        lam = np.max(np.linalg.eigvalsh(a))
        assert val > 2**52  # genuinely out of float64-exact range
        assert abs(val / lam**40 - 1) < 0.5  # dominated by the top eigenvalue

    def test_small_bigint_crosscheck(self):
        g = complete(4)
        want = int(round(np.trace(np.linalg.matrix_power(dense_adjacency(g), 9))))
        assert closed_walk_count(g, 9).value == want

    @pytest.mark.parametrize("length", [1, 2, 3, 20, 21, 22, 23, 24, 30])
    def test_complete_graph_closed_form(self, length):
        # 5^L crosses 2^52 at L=23, so L >= 23 reruns on exact integers
        # (int64 up to L=24, Python ints from L=25, where 6^L passes 2^63);
        # at even L >= 24 the count is not even a float64 value
        n = 6
        want = (n - 1) ** length + (n - 1) * (-1) ** length
        assert closed_walk_count(complete(n), length).value == want
        assert (int(float(want)) != want) == (length in (24, 30))

    @pytest.mark.parametrize(
        "length, arithmetic",
        [(22, ["float64"]), (23, ["float64", "int64"]), (24, ["float64", "int64"]),
         (25, ["float64", "object"])],
    )
    def test_arithmetic_switch_points(self, length, arithmetic, monkeypatch):
        # on K_6 the trace 5^L + 5(-1)^L passes 2^52 at L = 23, where the
        # float64 run hands over to the exact rerun, and the range bound
        # 6^L passes 2^63 at L = 25, where int64 hands over to Python ints
        ran, execute = [], sslab.homcounts._execute

        def logged(plan, factors, *args, **kwargs):
            ran.append(str(next(iter(factors.values())).dtype))
            return execute(plan, factors, *args, **kwargs)

        monkeypatch.setattr(sslab.homcounts, "_execute", logged)
        n = 6
        want = (n - 1) ** length + (n - 1) * (-1) ** length
        assert closed_walk_count(complete(n), length).value == want
        assert ran == arithmetic

    def test_bigint_rerun_has_a_work_budget(self, monkeypatch):
        # C_30 on K_6 reruns on Python ints (see above): 28 sum steps with
        # two-axis results at 6^3 operations each, one at 6^2, one at 6
        monkeypatch.setattr("sslab.homcounts.WORK_BUDGET", 100)
        with pytest.raises(BudgetExceededError) as err:
            closed_walk_count(complete(6), 30)
        assert err.value.estimate == 28 * 6**3 + 6**2 + 6
        # a count certified in float64 never reaches the rerun
        assert closed_walk_count(complete(6), 20).value == 5**20 + 5
        monkeypatch.undo()
        assert closed_walk_count(complete(6), 30).value == 5**30 + 5

    def test_bad_length(self):
        with pytest.raises(CountError):
            closed_walk_count(path(2), 0)


class TestCompleteBipartite:
    def test_hom_matches_backtracking(self):
        for s in range(25):
            g = random_graph(700 + s, 7, allow_empty=True)
            for t in (2, 3):
                assert (
                    hom_contract(2 * t, complete_bipartite(t, t).edges, g).value
                    == hom_count(complete_bipartite(t, t), g).value
                )

    def test_count_ktt_vs_inj(self):
        for s in range(40):
            g = random_graph(5000 + s, 8, allow_empty=True)
            for t in (2, 3):
                inj = inj_backtrack(complete_bipartite(t, t), g)
                denom = 2 * math.factorial(t) ** 2
                assert inj % denom == 0
                assert count_ktt(g, t).value == inj // denom

    def test_ktt_clique_closed_form(self):
        # K22 copies in K_n: 3 C(n,4)
        for n in (4, 5, 6, 8):
            assert count_ktt(complete(n), 2).value == 3 * math.comb(n, 4)

    def test_budget(self, monkeypatch):
        monkeypatch.setattr("sslab.homcounts.WORK_BUDGET", 10)
        with pytest.raises(BudgetExceededError):
            count_ktt(complete(30), 5)

    def test_method_tag(self):
        assert count_ktt(complete(5), 2).method == "codegree"

    @staticmethod
    def _subset_work(g, t):
        """The false-twin classes (equal neighbourhoods, in order of least
        vertex) and the classes the codegree recursion tries, level by
        level: every class after the last one chosen, while the common
        neighbourhood of the chosen vertices still has t or more vertices;
        a class may give several of the chosen vertices, and the last
        vertex is one pass over the classes left."""
        rows = csr_rows(g)
        classes = list(dict.fromkeys(rows))
        w = [rows.count(r) for r in classes]
        index = {r: i for i, r in enumerate(classes)}
        bits = [sum(1 << i for i in {index[rows[u]] for u in r}) for r in classes]

        def size(mask):
            return sum(wi for i, wi in enumerate(w) if mask >> i & 1)

        def rec(start, need, common):
            if need == 1:
                return len(classes) - start
            total = 0
            for i in range(start, len(classes)):
                total += 1
                c = common & bits[i] if need < t else bits[i]
                if size(c) >= t:
                    for j in range(1, min(w[i], need - 1) + 1):
                        total += rec(i + 1, need - j, c)
            return total

        return len(classes), rec(0, t, 0)

    @staticmethod
    def _wedge_work(g):
        """The wedge steps of the t = 2 kernel: each edge is walked from its
        higher-ranked end, one step per neighbour of the lower-ranked end."""
        deg = g.degrees
        rank = {v: (deg[v], v) for v in range(g.n)}
        return sum(deg[min(e, key=rank.get)] for e in g.edges)

    @staticmethod
    def _hosts():
        """Random hosts, and twin-rich ones whose classes give several of
        the t chosen vertices."""
        hosts = [random_graph(8100 + s, 12) for s in range(12)]
        hosts += [split_graph(3, 40), split_graph(4, 30), complete_bipartite(3, 6)]
        hosts += [join(complete_bipartite(2, 5), complete_bipartite(4, 3))]
        hosts += [join(empty_graph(5), join(empty_graph(3), complete(4)))]
        return hosts

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    def test_budget_is_the_total_work(self, t, monkeypatch):
        # t = 2: the wedge steps, known exactly up front; t >= 3: the
        # estimate bounds the classes the recursion tries, and a budget
        # below it is refused before any class is tried
        for g in self._hosts():
            want = count_ktt(g, t).value
            if t == 2:
                estimate = self._wedge_work(g)
                assert wedge_work(g) == estimate
            else:
                k, work = self._subset_work(g, t)
                estimate = codegree_work(g.n, t, k)
                assert work <= estimate
            with monkeypatch.context() as patch:
                patch.setattr(sslab.homcounts, "WORK_BUDGET", estimate)
                assert count_ktt(g, t).value == want
                patch.setattr(sslab.homcounts, "WORK_BUDGET", estimate - 1)
                # the class bitmasks are built only after the guard
                patch.setattr(sslab.homcounts, "_rows", None)
                with pytest.raises(BudgetExceededError) as err:
                    count_ktt(g, t)
                assert err.value.estimate == estimate

    def test_work_bound_holds_on_blow_ups(self):
        # random graphs on up to 7 vertices, each vertex blown up into a
        # class of 1 to 5 twins: the recursion's tries stay within
        # codegree_work at t = 3, 4 and 5
        rng = random.Random(57)
        for _ in range(200):
            n = rng.randint(2, 7)
            base = sample_gnm(n, rng.randint(1, n * (n - 1) // 2), rng.randrange(2**32))
            g = blow_up(base, [rng.randint(1, 5) for _ in range(n)])
            for t in (3, 4, 5):
                k, work = self._subset_work(g, t)
                assert work <= codegree_work(g.n, t, k)

    def test_c4_is_k22(self):
        for s in range(30):
            g = random_graph(8200 + s, 14, allow_empty=True)
            c4, k22 = count_c2t(g, 2), count_ktt(g, 2)
            assert (c4.value, c4.method) == (k22.value, k22.method)
        big = split_graph(2, 2001)  # K_2 joined to 1000 independent vertices
        assert count_c2t(big, 2).value == count_ktt(big, 2).value == math.comb(1000, 2)


class TestEvenCycles:
    def test_count_c2t_vs_inj(self):
        for s in range(40):
            g = random_graph(6000 + s, 8, allow_empty=True)
            for t in (2, 3):
                inj = inj_backtrack(cycle(2 * t), g)
                assert inj % (4 * t) == 0
                assert count_c2t(g, t).value == inj // (4 * t)

    def test_moebius_vs_enumeration_t3_t4(self):
        for s in range(12):
            g = random_graph(8000 + s, 9)
            for t in (3, 4):
                inj = inj_backtrack(cycle(2 * t), g)
                assert count_c2t(g, t).value == inj // (4 * t)

    def test_c4_in_split_closed_form(self):
        # 4-cycles of S_{2,m} with r=0: pairs of independent vertices, C(q,2)
        g = split_graph(2, 21)  # q=10
        assert count_c2t(g, 2).value == math.comb(10, 2)
        assert count_c2t(g, 2).value == inj_backtrack(cycle(4), g) // 8

    def test_methods(self):
        assert count_c2t(complete(6), 2).method == "codegree"
        assert count_c2t(complete(8), 3).method == "walk-moebius"
        # the 8-cycle's quotients include K4, which the engine conditions on
        assert count_c2t(complete(9), 4).method == "walk-moebius"

    def test_budget_caps_the_bigint_rerun(self, monkeypatch):
        # on K_410 the float run of C_6 itself (the 6-vertex quotient) passes
        # 2^52, and its Python-int rerun is estimated at
        # 4 * 410^3 + 410^2 + 410 operations, past a budget of 10^6
        monkeypatch.setattr("sslab.homcounts.WORK_BUDGET", 10**6)
        with pytest.raises(BudgetExceededError) as err:
            count_c2t(complete(410), 3)
        assert err.value.estimate == 275852510

    def test_past_the_pattern_limit_is_refused_up_front(self):
        # C_12 has 12 > PATTERN_LIMIT vertices: `inj_count` refuses it before
        # building its quotient table, which takes 13-15 s
        g = complete(12)
        start = time.perf_counter()
        with pytest.raises(PatternTooLargeError, match="pattern has 12 > 10 vertices"):
            count_c2t(g, 6)
        assert time.perf_counter() - start < 0.1
        # a host with fewer than 2t vertices still has none, at any t
        assert count_c2t(sample_gnm(12, 30, 5), 8) == CountResult(0, "walk-moebius")

    def test_the_cycle_pattern_is_built_once(self, monkeypatch):
        # count_c2t still goes through inj_count, and its pattern limit,
        # with the one cached C_2t
        seen, inj = [], sslab.homcounts.inj_count
        monkeypatch.setattr(sslab.homcounts, "inj_count", lambda h, g: seen.append(h) or inj(h, g))
        g = sample_gnm(30, 120, 3)
        assert count_c2t(g, 3) == count_c2t(g, 3)
        assert seen[0] is seen[1] and seen[0] == cycle(6)

    def test_zero_small_hosts(self):
        assert count_c2t(path(3), 2).value == 0
        assert count_c2t(complete(5), 3).value == 0  # needs 6 distinct vertices
        assert count_c2t(cycle(5), 3).value == 0

    def test_cycle_hosts(self):
        assert count_c2t(cycle(6), 3).value == 1
        assert count_c2t(cycle(8), 4).value == 1
        assert count_c2t(cycle(8), 2).value == 0


def _index_work(spec: str, shapes: tuple) -> int:
    """A logged step's work: the product of its index ranges."""
    inputs = spec.split("->")[0].split(",")
    return math.prod({c: n for s, shape in zip(inputs, shapes) for c, n in zip(s, shape)}.values())


def _summed_sizes(spec: str, shapes: tuple) -> set:
    """The sizes of a logged call's operands along its summed axis `i`
    (every sum step names the vertex it sums out `i`)."""
    inputs = spec.split("->")[0].split(",")
    return {shape[s.index("i")] for s, shape in zip(inputs, shapes) if "i" in s}


# a pattern whose plan conditions twice
CONDITIONS_TWICE = Graph.from_edges(8, [
    (0, 1), (0, 3), (0, 6), (0, 7), (1, 2), (1, 3), (1, 5), (1, 7), (2, 4), (2, 6),
    (2, 7), (3, 5), (4, 5), (4, 6), (5, 6), (6, 7),
])


class TestSharedMoebiusSum:
    """At t >= 3 `count_c2t` contracts all of the cycle's quotients as one
    signed sum that shares each keyed step result across its terms."""

    @staticmethod
    def _per_quotient(g: Graph, t: int) -> int:
        # every quotient through the engine on its own: nothing crosses terms
        inj = sum(mu * hom_contract(k, es, g).value for k, es, mu in cycle_quotients(t))
        return inj // (4 * t)

    def test_matches_enumeration_and_the_unshared_sum(self):
        hosts = [sample_gnm(n, m, 7300 + n) for n, m in ((10, 22), (11, 30), (12, 40))]
        hosts += [split_graph(2, 21), split_graph(3, 24), split_graph(4, 30)]
        for g in hosts:
            for t in (3, 4):
                if t == 4 and g.n > 11:
                    continue  # keep the backtracking oracle quick
                want = inj_backtrack(cycle(2 * t), g) // (4 * t)
                assert count_c2t(g, t).value == self._per_quotient(g, t) == want
        for g in (sample_gnm(60, 400, 5), split_graph(3, 300)):
            for t in (3, 4):
                assert count_c2t(g, t).value == self._per_quotient(g, t)

    def test_one_product_per_distinct_factor(self, contraction_log):
        # C6's quotients build A^2 eight times, A^3 three times and A^4, A^5
        # once each; shared, each n x n result is computed once
        g = sample_gnm(40, 160, 11)
        a = dense_adjacency(g)
        want = count_c2t(g, 3).value
        contraction_log.clear()
        assert count_c2t(g, 3).value == want
        squares = [out for *_, out in contraction_log if np.ndim(out) == 2]
        powers = [np.linalg.matrix_power(a, k) for k in (2, 3, 4, 5)]
        assert len(squares) == len(powers)
        for out, power in zip(squares, powers):
            assert np.array_equal(out, power)

    def test_only_the_c6_term_reruns_on_int64(self, contraction_log):
        # on K_410 only hom(C_6) itself passes 2^52 (tr A^6 ~ 410^6): its
        # plan alone reruns, six steps, while the other nine quotients keep
        # their float run and their shared factors.  410^6 < 2^63 bounds
        # every entry of the rerun, so it runs on int64, not Python ints.
        # #C_6(K_n) = n! / ((n - 6)! * 12)
        assert count_c2t(complete(410), 3).value == math.perm(410, 6) // 12
        first = [dtypes[0] for _, _, dtypes, _ in contraction_log]
        assert first.count("int64") == 6 and "object" not in first

    def test_peak_memory_stays_at_four_matrices(self):
        g = sample_gnm(600, 6000, 4)
        count_c2t(g, 3)  # plans and schedule cached, adjacency built
        tracemalloc.start()
        try:
            count_c2t(g, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * g.n**2 * 8

    def test_twins_keep_plan_keys_cheap(self):
        # K_{2,k} has k twins; each hom is the sum of codegree^k over pairs
        g = sample_gnm(30, 120, 3)
        a = dense_adjacency(g).astype(np.int64)
        codeg = a @ a
        for k in (3, 12):
            h = complete_bipartite(2, k)
            assert hom_contract(h.n, h.edges, g).value == int((codeg.astype(object) ** k).sum())

    def test_transposed_sub_patterns_stay_apart(self):
        # vertices 0, 1 and 2, 3 sum out into the same sub-pattern, a
        # triangle with a tail, once with its triangle at 4 and once at 5:
        # two keys, since the (4, 5) arrays are each other's transposes
        h = Graph.from_edges(6, [(0, 1), (0, 4), (1, 4), (1, 5), (2, 3), (2, 5), (3, 5), (3, 4)])
        for s in range(12):
            g = random_graph(7700 + s, 9)
            assert hom_contract(h.n, h.edges, g).value == hom_count(h, g).value

    def test_range_check(self):
        assert _put({}, (0,), np.array([0.0, 2.0**52]))
        assert not _put({}, (0,), np.array([1.0, 2.0**52 + 2]))
        assert not _put({}, (0,), np.array([1.0, np.nan]))
        assert _put({}, (0, 1), np.zeros((0, 0)))
        factors = {(0,): np.array([2.0**30, 1.0])}
        assert not _put(factors, (0,), np.array([2.0**30, 1.0]))  # the product is checked
        assert factors[(0,)][0] == 2.0**60

    def test_coloured_canonical_form(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 7)
            es = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
            color = tuple(rng.choice((0, 0, 2, 3)) for _ in range(n))
            perm = list(range(n))
            rng.shuffle(perm)
            moved = frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in es)
            recolored = [0] * n
            for v in range(n):
                recolored[perm[v]] = color[v]
            form = _canonical(n, frozenset(es), color)
            assert form == _canonical(n, moved, tuple(recolored))
            ref = nx.Graph()
            ref.add_nodes_from((v, {"c": c}) for v, c in enumerate(color))
            ref.add_edges_from(es)
            other = nx.Graph()
            other.add_nodes_from((v, {"c": rng.choice((0, 2))}) for v in range(n))
            other.add_edges_from(es)
            same = nx.is_isomorphic(ref, other, node_match=lambda x, y: x["c"] == y["c"])
            other_color = tuple(other.nodes[v]["c"] for v in range(n))
            assert same == (form == _canonical(n, frozenset(es), other_color))


class TestConditionedSharing:
    """A plan that conditions runs its sub-plan once per class of the
    conditioned vertex, with a store of its own for each class: steps of
    the sub-plan whose sub-patterns are isomorphic, with the conditioned
    vertices held in place, compute one array between them.  An exact
    rerun has a store of its own too, and shares as the float run does."""

    def test_one_three_operand_step_per_class(self, contraction_log):
        # K_{3,3} conditions on one side's first vertex; its sub-plan then
        # sums out the other side's three vertices, each joined to that
        # vertex and to the two left, so A diag(A[x]) A is computed once
        # per class x, not three times
        g = sample_gnm(40, 160, 11)
        k = len(_twins(g.sparse_adjacency())[0])
        a = dense_adjacency(g).astype(np.int64)
        codeg = np.einsum("ai,bi,ci->abc", a, a, a)
        want = int((codeg**3).sum())
        assert hom_contract(6, complete_bipartite(3, 3).edges, g).value == want
        assert [len(shapes) for _, shapes, *_ in contraction_log].count(3) == k

    def test_complete_bipartite_on_twin_free_hosts_and_blow_ups(self):
        rng = random.Random(31)
        hosts = []
        for s in range(5):
            n = rng.randint(5, 7)
            hosts.append(sample_gnm(n, rng.randint(n, n * (n - 1) // 2), 3100 + s))
        hosts += [blow_up(sample_gnm(4, 4, 3), [2, 1, 3, 2]), blow_up(complete(3), [1, 2, 2])]
        hosts += [blow_up(cycle(5), [1, 2, 1, 2, 1])]
        twin_free = 0
        for g in hosts:
            twin_free += len(_twins(g.sparse_adjacency())[0]) == g.n
            for t in (3, 4):
                h = complete_bipartite(t, t)
                assert hom_contract(h.n, h.edges, g).value == hom_count(h, g).value
        assert 3 <= twin_free <= 5

    def test_exact_rerun_shares_on_python_ints(self, contraction_log):
        # K_{1500,1500} is the blow-up of an edge into two classes: the
        # count 2 * 1500^6 passes 2^52, so the plan reruns, and on Python
        # ints, since 3000^6 >= 2^63; it shares as the float run does
        g = complete_bipartite(1500, 1500)
        assert hom_contract(6, complete_bipartite(3, 3).edges, g).value == 2 * 1500**6
        exact = [len(shapes) for _, shapes, dtypes, _ in contraction_log if dtypes[0] == "object"]
        assert exact.count(3) == 2

    def test_rerun_estimate_counts_each_keyed_step_once_per_class(self, contraction_log):
        # K_{3,3}'s sub-plan makes one k x k x k product per class, then a
        # k x k and a k step: k^3 + k^2 + k, not 3k^3 + k^2 + k
        ((_, plan, *_),), _ = _schedule(((6, complete_bipartite(3, 3).edges, 1),))
        assert _plan_work(plan, 150) == 150 * (150**3 + 150**2 + 150) == 509_647_500
        # K_{800,800,800}, three classes: each class's share of
        # hom(K_{3,3}) = 42 * 800^6 passes 2^52, so the plan reruns on
        # Python ints (2400^6 >= 2^63), and the estimate is the work of the
        # rerun's steps, each the product of its index ranges
        g = join(join(empty_graph(800), empty_graph(800)), empty_graph(800))
        assert hom_contract(6, complete_bipartite(3, 3).edges, g).value == 42 * 800**6
        work = [
            _index_work(spec, shapes)
            for spec, shapes, dtypes, _ in contraction_log
            if dtypes[0] == "object"
        ]
        assert sum(work) == _plan_work(plan, 3) == 3 * (3**3 + 3**2 + 3)

    @pytest.mark.parametrize("twin_free", [True, False])
    def test_exact_rerun_shares_top_level_steps(self, twin_free, contraction_log, monkeypatch):
        # K_{2,3}'s plan first sums out two of the side of three, each into
        # the same k x k array of codegrees, so one key serves both steps.
        # With no float certified, the term reruns on int64 and makes that
        # array once, then sums out the other three vertices: one step per
        # key and per unkeyed step, with the work `_plan_work` estimates
        g = sample_gnm(9, 20, 4) if twin_free else blow_up(cycle(5), [1, 2, 1, 2, 1])
        k = len(g.twin_quotient[1])
        assert (k == g.n) == twin_free
        h = complete_bipartite(2, 3)
        ((_, plan, *_),), uses = _schedule(((h.n, h.edges, 1),))
        assert [step[3] is not None for step in plan] == [True, True, False, False, False]
        assert list(uses.values()) == [2]
        monkeypatch.setattr("sslab.homcounts._EXACT", 0.0)
        assert hom_contract(h.n, h.edges, g).value == hom_count(h, g).value
        calls = [
            (len(spec.split("->")[1]), _index_work(spec, shapes))
            for spec, shapes, dtypes, _ in contraction_log
            if dtypes[0] == "int64"
        ]
        assert [axes for axes, _ in calls] == [2, 2, 1, 0]
        assert sum(work for _, work in calls) == _plan_work(plan, k) == 2 * k**3 + k**2 + k

    @pytest.mark.parametrize(
        "edges",
        [
            [(0, 3), (0, 4), (0, 7), (1, 5), (1, 6), (1, 7), (2, 4), (2, 6), (3, 5), (4, 7),
             (5, 6)],
            [(0, 1), (0, 3), (0, 6), (0, 7), (1, 2), (1, 3), (1, 5), (1, 7), (2, 4), (2, 6),
             (2, 7), (3, 5), (4, 5), (4, 6), (5, 6), (6, 7)],
        ],
    )
    def test_conditioned_vertices_keep_colours_of_their_own(self, edges):
        # sub-patterns that are isomorphic only when a conditioned vertex
        # may pass for a result axis (the first pattern) or for the other
        # conditioned vertex (the second, which conditions twice) give
        # different arrays
        h = Graph.from_edges(8, edges)
        for s in range(3):
            g = sample_gnm(8, 17, s)
            assert hom_contract(h.n, h.edges, g).value == hom_count(h, g).value

    def test_random_patterns_that_condition_after_sum_steps(self):
        # a plan that sums vertices out before it conditions hands those
        # sums to its sub-plan inside factors, so the sub-plan's keys must
        # come from the pattern edges the factors hold: two factors on one
        # scope may hold different sums, and keying by scope gives wrong
        # counts on these patterns
        hosts = [sample_gnm(n, m, 4400 + n) for n, m in ((6, 11), (7, 15), (8, 19))]
        hosts.append(blow_up(sample_gnm(4, 5, 9), [2, 1, 2, 1]))
        checked = 0
        for seed in range(300):
            h = _random_pattern(seed)
            order, _ = _schedule(_quotients(h.n, h.edges))
            if not any(
                plan[0][0] == "sum" and plan[-1][0] == "condition" and plan[-1][3]
                for _, plan, *_ in order
            ):
                continue
            checked += 1
            for g in hosts:
                assert inj_count(h, g).value == inj_backtrack(h, g)
        assert checked >= 10

    @pytest.mark.parametrize("exact", [False, True])
    def test_sums_only_over_the_support_of_a_weight(self, exact, contraction_log, monkeypatch):
        # a sum step over v with a factor on v alone that is zero on at
        # least half of the k classes sums over the nonzero classes only;
        # the dropped terms are exact zeros.  On a conditioned step that
        # factor is w * A[x] (A[x] when twin-free), so class x reaches its
        # neighbours alone.  With `_EXACT` at 0 no float run is certified,
        # so every count comes from the int64 rerun, which slices alike
        k33 = complete_bipartite(3, 3)
        hosts = _sparse_hosts()
        assert len(hosts[0].twin_quotient[1]) == hosts[0].n  # twin-free
        wants = [
            (hom_count(k33, g).value, hom_count(CONDITIONS_TWICE, g).value,
             inj_backtrack(cycle(8), g) // 16)
            for g in hosts
        ]
        if exact:
            monkeypatch.setattr("sslab.homcounts._EXACT", 0.0)
        log = contraction_log
        for g, want in zip(hosts, wants):
            log.clear()
            assert (
                hom_contract(k33.n, k33.edges, g).value,
                hom_contract(CONDITIONS_TWICE.n, CONDITIONS_TWICE.edges, g).value,
                count_c2t(g, 4).value,
            ) == want
            k = len(g.twin_quotient[1])
            # the calls with a factor on the summed vertex alone, and the
            # dtype and size along the summed axis, the same for every operand
            weighted = [
                (dtypes[0], *_summed_sizes(spec, shapes))
                for spec, shapes, dtypes, _ in log
                if len(shapes) > 1 and "i" in spec.split("->")[0].split(",")
            ]
            assert all(len(call) == 2 for call in weighted)
            sizes = {size for _, size in weighted}
            assert k in sizes  # some weight is nonzero on more than half the classes
            assert all(size == k or size <= k // 2 for size in sizes)
            sliced = {dtype for dtype, size in weighted if size < k}
            assert ("int64" if exact else "float64") in sliced

    def test_dense_quotients_keep_full_shapes(self, contraction_log):
        # K_6 is its own quotient, and each of the three classes of
        # K_{800,800,800} is adjacent to the other two: a weight w * A[x]
        # is nonzero on k - 1 of the k classes, so every operand of K_{3,3}
        # and C_6 keeps k entries on every axis
        k800 = join(join(empty_graph(800), empty_graph(800)), empty_graph(800))
        log = contraction_log
        for g, k in ((complete(6), 6), (k800, 3)):
            log.clear()
            hom_contract(6, complete_bipartite(3, 3).edges, g)
            count_c2t(g, 3)
            assert len(g.twin_quotient[1]) == k
            assert log and {size for _, shapes, *_ in log for s in shapes for size in s} == {k}
        # conditioned twice, on classes x != y, a vertex adjacent to both
        # has the weight w * A[x] * A[y], nonzero on the third class alone:
        # its step sums over that class.  Every map into the blow-up of K_3
        # by 800 weighs 800^8
        log.clear()
        h = CONDITIONS_TWICE
        assert hom_contract(h.n, h.edges, k800).value == hom_count(h, complete(3)).value * 800**8
        assert {size for _, shapes, *_ in log for s in shapes for size in s} == {1, 3}


def _with_pendants(g: Graph, anchors) -> Graph:
    """g with a new leaf hung on each vertex of `anchors`."""
    leaves = [(a, g.n + i) for i, a in enumerate(anchors)]
    return Graph.from_edges(g.n + len(leaves), list(g.edges) + leaves)


def _sparse_hosts() -> list:
    """Sparse hosts with pendant leaves and isolated vertices: a twin-free
    G(n, m) with pendants, G(n, m) beside a star and isolated vertices,
    and split graphs, whose independent vertices are twins, with pendants
    on the clique and on independent vertices."""
    return [
        _with_pendants(sample_gnm(40, 80, 0), range(0, 40, 7)),
        union(union(sample_gnm(40, 80, 1), star(5)), empty_graph(3)),
        _with_pendants(split_graph(3, 24), [3, 4, 5, 6]),
        union(_with_pendants(split_graph(4, 30), [0, 5, 9]), empty_graph(2)),
    ]


def _cycles_in_complete_bipartite(a: int, t: int) -> int:
    """#C_2t in K_{a,a}: a cycle alternates between t vertices of each
    side, C(a, t)^2 choices, and t! (t - 1)! / 2 ways to close them."""
    return math.comb(a, t) ** 2 * math.factorial(t) * math.factorial(t - 1) // 2


class TestCycleArithmeticBoundaries:
    """K_{a,a} is the blow-up of an edge into two classes of a, so every
    run on it is cheap, and its closed walks of even length L number
    2a^L.  The C_2t term of the Moebius sum, hom(C_2t) = 2a^(2t), is the
    one that passes 2^52 first: its float64 run is certified up to the
    last a with 2a^(2t) <= 2^52, and past it the term reruns on int64
    while (2a)^(2t) < 2^63, then on Python ints.  Each side of each
    boundary is tested at its last a."""

    BOUNDARIES = {3: (362, 724), 4: (82, 117), 5: (34, 39)}

    @pytest.mark.parametrize("t", [3, 4, 5])
    def test_the_boundaries_are_where_stated(self, t):
        certified, int64 = self.BOUNDARIES[t]
        assert 2 * certified ** (2 * t) <= 2**52 < 2 * (certified + 1) ** (2 * t)
        assert (2 * int64) ** (2 * t) < 2**63 <= (2 * int64 + 2) ** (2 * t)

    @pytest.mark.parametrize("t", [2, 3, 4, 5])
    @pytest.mark.parametrize("a", [1, 2, 3, 4, 5])
    def test_closed_form_matches_networkx(self, a, t):
        g = complete_bipartite(a, a)
        ref = nx.Graph(list(g.edges))
        want = sum(len(c) == 2 * t for c in nx.simple_cycles(ref, length_bound=2 * t))
        assert _cycles_in_complete_bipartite(a, t) == want
        assert count_c2t(g, t).value == want

    @pytest.mark.parametrize(
        "t, a, arithmetic",
        [
            (t, a, arithmetic)
            for t, (certified, int64) in BOUNDARIES.items()
            for a, arithmetic in [
                (certified, {"float64"}),
                (certified + 1, {"float64", "int64"}),
                (int64, {"float64", "int64"}),
                (int64 + 1, {"float64", "object"}),
            ]
        ],
    )
    def test_counts_at_the_boundaries(self, t, a, arithmetic, contraction_log):
        g = complete_bipartite(a, a)
        log = contraction_log
        assert count_c2t(g, t).value == _cycles_in_complete_bipartite(a, t)
        assert {dtypes[0] for _, _, dtypes, _ in log} == arithmetic
        log.clear()
        assert closed_walk_count(g, 2 * t).value == 2 * a ** (2 * t)
        assert {dtypes[0] for _, _, dtypes, _ in log} == arithmetic



class TestContractionCalls:
    """The contraction's sum steps, pinned: a change to planning or
    sharing changes the digest, which is then updated on purpose."""

    # (form, operand shapes, operand dtypes) of every step below, in order
    DIGEST = "e69934b638a3b818c8bd8d79377d4dc5ab048bc643d46b06f64b60f74a529c63"
    # (form, operand dtypes) alone: the plans, keys and arithmetic, which
    # a change to how a step is evaluated leaves as they are
    SPEC_DIGEST = "305c90cd11d834c5e132c39ca94d839f6573d03c6edd55a34692c6d68f0c8f5b"

    def test_call_sequence_is_pinned(self, contraction_log):
        patterns = [path(4), CONDITIONS_TWICE] + [_random_pattern(seed) for seed in range(40)]
        k23 = complete_bipartite(2, 3)
        hosts = [sample_gnm(12, 30, 5), split_graph(3, 24), complete(6), complete(12)]
        hosts.append(join(join(empty_graph(2), empty_graph(3)), empty_graph(3)))
        for g in hosts:
            for t in (3, 4, 5):
                count_c2t(g, t)
            hom_contract(6, complete_bipartite(3, 3).edges, g).value
            hom_contract(k23.n, k23.edges, g)
            for length in (8, 24, 30):  # K_6 reruns L = 24 on int64, L = 30 on Python ints
                closed_walk_count(g, length)
            for h in patterns:
                inj_count(h, g)
        for h in patterns:
            aut_order(h)
        log = [(spec, shapes, dtypes) for spec, shapes, dtypes, _ in contraction_log]
        assert {dtype for *_, dtypes in log for dtype in dtypes} == {"float64", "int64", "object"}
        specs = [(spec, dtypes) for spec, _, dtypes in log]
        assert {spec for spec, *_ in log} == set(SUM_FORMS)
        digests = {
            "SPEC_DIGEST": hashlib.sha256(repr(specs).encode()).hexdigest(),
            "DIGEST": hashlib.sha256(repr(log).encode()).hexdigest(),
        }
        pinned = {name: getattr(self, name) for name in digests}
        # a declared re-pin copies the observed values from the message
        assert digests == pinned, "observed: " + ", ".join(
            f'{name} = "{value}"' for name, value in digests.items()
        )


# every form of sum step (`TestContractionCalls` logs each): i summed out,
# its weight last, one matrix per output axis before it
SUM_FORMS = ["i->", "ij,i->j", "ij,ik,i->jk"]


@st.composite
def sum_steps(draw):
    """A sum step in one of `SUM_FORMS` as `_execute` hands it over: a
    weight, and one matrix per output axis with the summed axis first,
    each drawn as it is or as the transposed view of its transpose.  The
    entries are nonnegative integers of one dtype: float64 and int64 below
    2^16, so every sum is exact, object up to 2^80, with zeros frequent.
    Each axis has 0 to 12 entries, and the step may be sliced to the rows
    where the weight is nonzero, as a step on a weight's support is."""
    form = draw(st.sampled_from(SUM_FORMS))
    dtype = draw(st.sampled_from(["float64", "int64", "object"]))
    entry = st.one_of(st.just(0), st.integers(0, 2**80 if dtype == "object" else 2**16))

    def array(*shape):
        size = math.prod(shape)
        entries = draw(st.lists(entry, min_size=size, max_size=size))
        return np.array(entries, dtype=object).reshape(shape).astype(dtype)

    n = draw(st.integers(0, 12))
    w, mats = array(n), []
    for _ in form.split("->")[1]:
        cols = draw(st.integers(0, 12))
        mats.append(array(cols, n).T if draw(st.booleans()) else array(n, cols))
    if draw(st.booleans()):
        support = np.flatnonzero(w)
        w, mats = w[support], [m[support] for m in mats]
    return form, w, mats


class TestSumOut:
    """`_sum_out` evaluates each sum step as one weighted product;
    `np.einsum` is the oracle, in value, dtype and type."""

    @settings(max_examples=300, deadline=None)
    @given(sum_steps())
    def test_matches_einsum(self, step):
        form, w, mats = step
        got, want = _sum_out(w, mats), np.einsum(form, *mats, w)
        assert type(got) is type(want)
        assert np.asarray(got).dtype == np.asarray(want).dtype
        assert np.shape(got) == np.shape(want) and np.array_equal(got, want)

    @pytest.mark.parametrize(
        "scopes, others",
        [
            ([(0, 1)], (1,)),  # no weight on the summed vertex
            ([(0,), (0, 1), (0, 2), (0, 3)], (1, 2, 3)),  # three result axes
            ([(0,), (0, 1, 2)], (1, 2)),  # a factor on three vertices
            ([(0,), (0, 1), (0, 2), (0, 1, 2)], (1, 2)),  # and beside the matrices
            ([(0,), (0, 1)], ()),  # a matrix toward no result axis
            ([(0,), (0, 1)], (1, 2)),  # a result axis with no matrix
        ],
    )
    def test_execute_refuses_other_steps(self, scopes, others):
        factors = {s: np.ones((3,) * len(s)) for s in scopes}
        plan = (("sum", 0, others, None),)
        with pytest.raises(CountError, match="no one-product form"):
            _execute(plan, factors, 3, _Shared({}))


@st.composite
def c4_hosts(draw, n_max=40):
    """Hosts for the degree-ordered C4 kernel: edgeless, stars, split
    graphs, split graphs with one edge between independent vertices, and
    G(n,m) up to complete, each padded with a drawn number of isolated
    vertices."""
    kind = draw(st.sampled_from(["edgeless", "star", "split", "perturbed", "gnm"]))
    if kind == "edgeless":
        g = Graph.from_edges(0, [])
    elif kind == "star":
        g = star(draw(st.integers(1, n_max)))
    elif kind in ("split", "perturbed"):
        k = draw(st.integers(1, 4))
        m = draw(st.integers(k * (k - 1) // 2 + 1, 6 * n_max))
        g = split_graph(k, m)
        spec = SplitSpec(k, m)
        if kind == "perturbed" and g.n - spec.indep_start >= 2:
            u, v = draw(st.lists(st.integers(spec.indep_start, g.n - 1), min_size=2,
                                 max_size=2, unique=True))
            g = Graph.from_edges(g.n, list(g.edges) + [(u, v)])
    else:
        n = draw(st.integers(2, n_max))
        m = draw(st.integers(0, n * (n - 1) // 2))
        g = sample_gnm(n, m, draw(st.integers(0, 2**32)))
    pad = draw(st.integers(0, 3))
    return Graph.from_edges(g.n + pad, g.edges)


def networkx_c4(g: Graph) -> int:
    ref = nx.Graph()
    ref.add_nodes_from(range(g.n))
    ref.add_edges_from(g.edges)
    return sum(len(c) == 4 for c in nx.simple_cycles(ref, length_bound=4))


class TestC4Kernel:
    """`count_ktt(g, 2)` and `count_c2t(g, 2)` run Chiba-Nishizeki's
    degree-ordered wedge count."""

    @settings(max_examples=60, deadline=None)
    @given(c4_hosts())
    def test_matches_networkx(self, g):
        value = networkx_c4(g)
        assert count_c2t(g, 2).value == value
        assert count_ktt(g, 2).value == value

    @settings(max_examples=40, deadline=None)
    @given(c4_hosts(n_max=9))
    def test_matches_backtracking(self, g):
        assert count_ktt(g, 2).value == inj_backtrack(cycle(4), g) // 8

    @settings(max_examples=60, deadline=None)
    @given(c4_hosts())
    def test_sweep_bound_covers_the_wedge_work(self, g):
        assert wedge_work(g) <= wedge_bound(g.n, g.edge_count)

    def test_pair_counts_do_not_bound_dense_work(self):
        g = sample_gnm(61, 1000, 0)
        assert math.comb(61, 2) < wedge_work(g) <= wedge_bound(61, 1000)

    def test_split_host_past_the_old_pair_scan(self):
        # S_{2,200001}: K_2 joined to 100000 independent vertices, about
        # 5 * 10^9 vertex pairs, 500001 wedge steps
        g = split_graph(2, 200001)
        assert wedge_work(g) == 500001
        assert count_c2t(g, 2).value == math.comb(100000, 2)

    def test_pair_total_guards_the_int64_range(self):
        assert _pair_total(np.array([])) == 0
        assert _pair_total(np.array([0.0, 1.0, 2.0, 5.0])) == 11
        assert _pair_total(np.array([2.0**31])) == math.comb(2**31, 2)
        with pytest.raises(CountError, match="int64"):
            _pair_total(np.array([2.0**32]))
        with pytest.raises(CountError, match="int64"):
            _pair_total(np.full(2**12, 2.0**26))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_counters_agree_property(seed):
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    m = rng.randint(3, n * (n - 1) // 2)
    g = sample_gnm(n, m, seed)
    t = rng.choice([2, 3])
    inj_k = inj_backtrack(complete_bipartite(t, t), g)
    assert count_ktt(g, t).value == inj_k // (2 * math.factorial(t) ** 2)
    inj_c = inj_backtrack(cycle(2 * t), g)
    assert count_c2t(g, t).value == inj_c // (4 * t)
    assert closed_walk_count(g, 2 * t).value == hom_count(cycle(2 * t), g).value


@pytest.mark.parametrize(
    "count",
    [
        lambda g: hom_count(cycle(4), g),
        lambda g: inj_count(cycle(4), g),
        lambda g: hom_contract(3, [(0, 1), (1, 2), (2, 0)], g),
        lambda g: closed_walk_count(g, 6),
        lambda g: count_ktt(g, 2),
        lambda g: count_ktt(g, 3),
        lambda g: count_c2t(g, 2),
        lambda g: count_c2t(g, 3),
        lambda g: count_c2t(g, 8),  # too few vertices: 0 without counting
    ],
    ids=["hom", "inj", "contract", "walks", "ktt2", "ktt3", "c4", "c6", "c16"],
)
def test_counts_are_values(count):
    g = sample_gnm(12, 30, 5)
    first, second = count(g), count(g)
    assert first == second and hash(first) == hash(second)
