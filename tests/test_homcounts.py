"""Exact counting: backtracking hom counts, the contraction engine and its
Moebius sums for inj, closed walks, fast counters."""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sslab
from sslab import (
    aut_order,
    closed_walk_count,
    count_c2t,
    count_ktt,
    hom_complete_bipartite,
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
)
from sslab.homcounts import (
    BudgetExceededError,
    CountError,
    PatternTooLargeError,
    _canonical,
    _pair_total,
    _plan,
    _put,
    _quotients,
    codegree_work,
    wedge_work,
)
from conftest import csr_rows, dense_adjacency, inj_backtrack, random_graph


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
            plan = _plan(variables, scopes)
            assert plan == reference_plan(variables, scopes)
            conditioned += any(step[0] == "condition" for step in plan)
        assert conditioned > 100  # both branches are exercised

    def test_matches_the_reference_on_a_long_cycle(self):
        # `closed_walk_count(g, 200)` plans this chain
        scopes = frozenset(tuple(sorted((i, (i + 1) % 200))) for i in range(200))
        assert _plan(frozenset(range(200)), scopes) == reference_plan(frozenset(range(200)), scopes)


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
            assert any(step[0] == "condition" for step in _plan(frozenset(range(h.n)), scopes))

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

    def test_loops_and_repeated_edges(self):
        g = random_graph(11, 8)
        assert hom_contract(1, [(0, 0)], g).value == 0
        assert hom_contract(2, [(0, 1), (1, 0), (0, 1)], g).value == g.big_m
        assert hom_contract(3, [], g).value == g.n**3

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
            "    def sparse_adjacency(self):\n"
            "        return csr_matrix(np.full((3, 3), 0.5))\n"
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
        # 5^L crosses 2^52 at L=23, so L >= 23 runs on Python ints; at even
        # L >= 24 the count is not even a float64 value
        n = 6
        want = (n - 1) ** length + (n - 1) * (-1) ** length
        assert closed_walk_count(complete(n), length).value == want
        assert (int(float(want)) != want) == (length in (24, 30))

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
                    hom_complete_bipartite(g, t)
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

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            count_ktt(complete(30), 5, budget=10)

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

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_budget_is_the_total_work(self, t):
        # random hosts, and twin-rich ones whose classes give several of
        # the t chosen vertices; at t >= 3 a budget below the up-front
        # estimate is refused before the recursion starts
        hosts = [random_graph(8100 + s, 12) for s in range(12)]
        hosts += [split_graph(3, 40), split_graph(4, 30), complete_bipartite(3, 6)]
        hosts += [join(complete_bipartite(2, 5), complete_bipartite(4, 3))]
        hosts += [join(empty_graph(5), join(empty_graph(3), complete(4)))]
        for g in hosts:
            if t == 2:
                work = self._wedge_work(g)
            else:
                k, work = self._subset_work(g, t)
                work = max(work, math.comb(min(k + t - 1, g.n), t))
            assert count_ktt(g, t, budget=work).value == count_ktt(g, t).value
            with pytest.raises(BudgetExceededError):
                count_ktt(g, t, budget=work - 1)

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

    def test_budget_caps_the_bigint_rerun(self):
        # on K_410 the float run of C_6 itself (the 6-vertex quotient) passes
        # 2^52, and its Python-int rerun is estimated at
        # 4 * 410^3 + 410^2 + 410 operations, past the caller's 10^6
        with pytest.raises(BudgetExceededError) as err:
            count_c2t(complete(410), 3, budget=10**6)
        assert err.value.estimate == 275852510

    def test_zero_small_hosts(self):
        assert count_c2t(path(3), 2).value == 0
        assert count_c2t(complete(5), 3).value == 0  # needs 6 distinct vertices
        assert count_c2t(cycle(5), 3).value == 0

    def test_cycle_hosts(self):
        assert count_c2t(cycle(6), 3).value == 1
        assert count_c2t(cycle(8), 4).value == 1
        assert count_c2t(cycle(8), 2).value == 0


def _einsum_log(monkeypatch) -> list:
    """Record every `np.einsum` call as (its result, the operands' dtype)."""
    log, einsum = [], np.einsum

    def logged(*args, **kwargs):
        out = einsum(*args, **kwargs)
        log.append((out, args[1].dtype))
        return out

    monkeypatch.setattr(np, "einsum", logged)
    return log


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

    def test_one_product_per_distinct_factor(self, monkeypatch):
        # C6's quotients build A^2 eight times, A^3 three times and A^4, A^5
        # once each; shared, each n x n result is computed once
        g = sample_gnm(40, 160, 11)
        a = dense_adjacency(g)
        want = count_c2t(g, 3).value
        log = _einsum_log(monkeypatch)
        assert count_c2t(g, 3).value == want
        squares = [out for out, _ in log if np.ndim(out) == 2]
        powers = [np.linalg.matrix_power(a, k) for k in (2, 3, 4, 5)]
        assert len(squares) == len(powers)
        for out, power in zip(squares, powers):
            assert np.array_equal(out, power)

    def test_only_the_c6_term_reruns_on_int64(self, monkeypatch):
        # on K_410 only hom(C_6) itself passes 2^52 (tr A^6 ~ 410^6): its
        # plan alone reruns, six steps, while the other nine quotients keep
        # their float run and their shared factors.  410^6 < 2^63 bounds
        # every entry of the rerun, so it runs on int64, not Python ints.
        # #C_6(K_n) = n! / ((n - 6)! * 12)
        log = _einsum_log(monkeypatch)
        assert count_c2t(complete(410), 3).value == math.perm(410, 6) // 12
        assert sum(dtype == np.int64 for _, dtype in log) == 6
        assert not any(dtype == object for _, dtype in log)

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
        assert wedge_work(g) <= codegree_work(g.n, g.edge_count, 2)

    def test_pair_counts_do_not_bound_dense_work(self):
        g = sample_gnm(61, 1000, 0)
        assert math.comb(61, 2) < wedge_work(g) <= codegree_work(61, 1000, 2)

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
