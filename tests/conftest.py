"""Shared helpers for the test suite."""

import random
import re

import numpy as np
import pytest

from sslab import Graph, sample_gnm

_CRITERION = re.compile(r"test_(criterion_\d+)\w*")
_results: dict = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    m = _CRITERION.match(item.name)
    if m and rep.when == "call":
        _results[item.name.replace("test_", "")] = rep.outcome


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_results):
        verdict = "PASS" if _results[name] == "passed" else "FAIL"
        terminalreporter.write_line(f"{name}: {verdict}")


def csr_rows(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Each vertex's neighbours, read off the rows of the CSR adjacency."""
    a = g.sparse_adjacency()
    ptr, idx = a.indptr.tolist(), a.indices.tolist()
    return tuple(tuple(idx[ptr[v] : ptr[v + 1]]) for v in range(g.n))


def blow_up(base: Graph, w) -> Graph:
    """Each vertex i of `base` replaced by w[i] pairwise non-adjacent copies,
    copies of adjacent vertices adjacent."""
    start = np.concatenate([[0], np.cumsum(w)]).tolist()
    edges = [
        (x, y)
        for i, j in base.edges
        for x in range(start[i], start[i + 1])
        for y in range(start[j], start[j + 1])
    ]
    return Graph.from_edges(start[-1], edges)


def dense_adjacency(g: Graph) -> np.ndarray:
    """The n x n 0/1 float64 adjacency, for references that index it."""
    return g.sparse_adjacency().toarray()


def random_graph(seed: int, n_max: int, allow_empty: bool = False) -> Graph:
    """Seeded random graph with 2 <= n <= n_max and uniform edge count."""
    rng = random.Random(seed)
    n = rng.randint(2, n_max)
    big_n = n * (n - 1) // 2
    lo = 0 if allow_empty else 1
    m = rng.randint(min(lo, big_n), big_n)
    return sample_gnm(n, m, rng.randrange(2**32))


def random_connected_graph(seed: int, n_max: int) -> Graph:
    """Seeded random connected graph (rejection sampling)."""
    s = seed
    while True:
        g = random_graph(s, n_max)
        if g.edge_count >= g.n - 1 and len(g.components) == 1:
            return g
        s += 10_000_019


def inj_backtrack(h: Graph, g: Graph) -> int:
    """inj(h, g) by plain enumeration, sharing no code with the package's
    counters: the pattern vertices are placed greedily (most placed
    neighbours, then highest degree, then lowest id), each onto an unused
    common host neighbour of its placed pattern neighbours."""
    hn = [set() for _ in range(h.n)]
    for u, v in h.edges:
        hn[u].add(v)
        hn[v].add(u)
    gn = [set() for _ in range(g.n)]
    for u, v in g.edges:
        gn[u].add(v)
        gn[v].add(u)
    order, remaining = [], set(range(h.n))
    while remaining:
        v = max(remaining, key=lambda v: (len(hn[v] - remaining), len(hn[v]), -v))
        order.append(v)
        remaining.discard(v)
    pos = {v: i for i, v in enumerate(order)}
    back = [[pos[w] for w in hn[v] if pos[w] < i] for i, v in enumerate(order)]
    image = [0] * h.n
    used = set()

    def extend(i):
        if i == h.n:
            return 1
        if back[i]:
            cands = set.intersection(*(gn[image[a]] for a in back[i]))
        else:
            cands = range(g.n)
        total = 0
        for c in cands:
            if c not in used:
                image[i] = c
                used.add(c)
                total += extend(i + 1)
                used.discard(c)
        return total

    return extend(0)
