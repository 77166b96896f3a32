"""Shared helpers for the test suite."""

import random
import re
from dataclasses import is_dataclass

import numpy as np
import pytest

from sslab import Graph, cli, homcounts, sample_gnm
from sslab.graphs import GraphError
from sslab.spectra import incidence_matrix, top_singular
from sslab.supersat import _aligned

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


@pytest.fixture
def contraction_log(monkeypatch) -> list:
    """Every sum step the contraction engine evaluates, logged as (form,
    operand shapes, operand dtypes as strings, result) by a hook on
    `homcounts._sum_out`.  The form is the step's einsum label, the summed
    axis `i`: `i->`, `ij,i->j` or `ij,ik,i->jk`, with the operands in its
    order, the matrices first and the weight last."""
    log, sum_out = [], homcounts._sum_out

    def logged(w, mats):
        out = sum_out(w, mats)
        ops = (*mats, w)
        form = ("i->", "ij,i->j", "ij,ik,i->jk")[len(mats)]
        log.append((form, tuple(op.shape for op in ops), tuple(str(op.dtype) for op in ops), out))
        return out

    monkeypatch.setattr(homcounts, "_sum_out", logged)
    return log


def plain_report(x):
    """JSON-ready copy of a report value, for `json.dumps(..., indent=2,
    sort_keys=True)` to write as the reference for `cli._render`:
    dataclasses through `cli._shape`, floats rounded by `cli._f`, tuples
    and arrays as lists, dict keys as str."""
    if is_dataclass(x):
        x = cli._shape(x)
    if isinstance(x, np.ndarray):
        if x.dtype.kind in "biu":  # no floats inside: nothing to round
            return x.tolist()
        x = x.tolist()
    if isinstance(x, dict):
        return {str(k): plain_report(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain_report(v) for v in x]
    if isinstance(x, float):
        return cli._f(x)
    return x


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


def delete_edge(g: Graph, u: int, v: int) -> Graph:
    """g less the edge {u, v}; `GraphError` if it has no such edge."""
    i = g._find(u, v)
    if i < 0:
        raise GraphError(f"no such edge {(u, v) if u < v else (v, u)}")
    return Graph(g.n, np.delete(g.edge_array, i, axis=0))


def tensor_power(g: Graph, k: int) -> Graph:
    """The k-th tensor (categorical) power: k-tuples adjacent iff adjacent in
    every coordinate.  Vertex i encodes its tuple as base-n digits, most
    significant first."""
    power = g
    for _ in range(k - 1):
        # extend each edge (a, b) of the power by each edge (u, v) of g, both ways
        ab = power.edge_array[:, None, :] * g.n
        uv = g.edge_array[None, :, :]
        both = np.concatenate([ab + uv, ab + uv[..., ::-1]])
        power = Graph.from_edges(power.n * g.n, both.reshape(-1, 2))
    return power


def aligned_rows(h: Graph, a_set, d_set, theta: float):
    """The rows a of the A x D incidence matrix M with deg_a > 0 and
    (Mv)_a^2 / deg_a >= 1 - theta, v the top right singular vector, picked as
    the row cover picks them.  Returns (R, (sigma1, v_right, u_left))."""
    a_sorted = sorted(set(a_set))
    m = incidence_matrix(a_sorted, d_set, h)
    sigma1, v_right, u_left = top_singular(m)
    return [a_sorted[i] for i in _aligned(m, theta, v_right)], (sigma1, v_right, u_left)


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
