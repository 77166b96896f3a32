"""Exact counting: homomorphisms, injective homomorphisms, automorphisms,
closed walks, and fast exact counters for complete-bipartite and even-cycle
patterns.

All counts are exact arbitrary-precision integers.  The generic counters are
backtracking enumerators; the large-host counters use codegree formulas (t=2)
and a partition-Moebius reduction (2t-cycles, t >= 3): hom counts of every
loop-free quotient of the cycle are computed by treewidth-2 factor elimination
on the adjacency matrix and inverted to an injective count.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .graphs import Graph, cycle


class CountError(ValueError):
    pass


class PatternTooLargeError(CountError):
    pass


class BudgetExceededError(CountError):
    def __init__(self, message: str, estimate: int):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class CountResult:
    value: int
    method: str
    elapsed: float


# -- generic backtracking --------------------------------------------------


def _connected_order(h: Graph) -> list[int]:
    """Greedy order: start at a max-degree vertex, then repeatedly take the
    vertex with the most already-placed neighbors (degree as tie-break)."""
    if h.n == 0:
        return []
    placed: list[int] = []
    remaining = set(range(h.n))
    while remaining:
        if placed:
            start = max(
                remaining,
                key=lambda v: (
                    sum(1 for w in h.adjacency[v] if w not in remaining),
                    h.degree(v),
                    -v,
                ),
            )
        else:
            start = max(remaining, key=lambda v: (h.degree(v), -v))
        placed.append(start)
        remaining.discard(start)
    return placed


def _count_maps(h: Graph, g: Graph, injective: bool, limit: int) -> int:
    if h.n > limit:
        raise PatternTooLargeError(f"pattern has {h.n} > {limit} vertices")
    if h.n == 0:
        return 1
    order = _connected_order(h)
    pos = {v: i for i, v in enumerate(order)}
    # for each step, the pattern neighbors already placed
    back = [[pos[w] for w in h.adjacency[v] if pos[w] < i] for i, v in enumerate(order)]
    gsets = g.adjacency_sets
    n = g.n
    total = 0
    image = [0] * h.n
    used = set()

    def extend(i: int):
        nonlocal total
        if i == h.n:
            total += 1
            return
        anchors = back[i]
        if anchors:
            cands = set(gsets[image[anchors[0]]])
            for a in anchors[1:]:
                cands &= gsets[image[a]]
        else:
            cands = range(n)
        for c in cands:
            if injective and c in used:
                continue
            image[i] = c
            if injective:
                used.add(c)
            extend(i + 1)
            if injective:
                used.discard(c)

    extend(0)
    return total


def hom_count(h: Graph, g: Graph, limit: int = 10) -> CountResult:
    t0 = time.perf_counter()
    value = _count_maps(h, g, injective=False, limit=limit)
    return CountResult(value, "backtracking", time.perf_counter() - t0)


def inj_count(h: Graph, g: Graph, limit: int = 10) -> CountResult:
    t0 = time.perf_counter()
    value = _count_maps(h, g, injective=True, limit=limit)
    return CountResult(value, "backtracking", time.perf_counter() - t0)


def aut_order(h: Graph, limit: int = 10) -> int:
    return inj_count(h, h, limit=limit).value


# -- closed walks ----------------------------------------------------------


def _int_matpow_trace(rows: list[list[int]], power: int) -> int:
    """Trace of an exact integer matrix power (binary exponentiation)."""
    n = len(rows)

    def mul(a, b):
        bt = list(zip(*b))
        return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]

    result = None
    base = rows
    e = power
    while e:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return sum(result[i][i] for i in range(n))


def closed_walk_count(g: Graph, length: int) -> CountResult:
    """Exact number of closed walks of the given length (trace of A^L)."""
    if length < 1:
        raise CountError("walk length must be >= 1")
    t0 = time.perf_counter()
    if g.edge_count == 0:
        return CountResult(0, "trace-power", time.perf_counter() - t0)
    # float64 is exact while every entry of A^L stays below 2^52;
    # |(A^L)_uv| <= lambda^L <= (2m)^{L/2} bounds all intermediates.
    lam_bound = math.sqrt(2 * g.edge_count)
    if lam_bound**length < 2**52:
        a = g.adjacency_matrix()
        tr = float(np.trace(np.linalg.matrix_power(a, length)))
        value = int(round(tr))
        assert abs(tr - value) < 0.25
    else:
        rows = [[0] * g.n for _ in range(g.n)]
        for u, v in g.edges:
            rows[u][v] = 1
            rows[v][u] = 1
        value = _int_matpow_trace(rows, length)
    return CountResult(value, "trace-power", time.perf_counter() - t0)


# -- complete bipartite ----------------------------------------------------


def hom_complete_bipartite(g: Graph, t: int) -> int:
    """Exact hom(K_{t,t}, g) = sum over ordered t-tuples u of c(u)^t where
    c(u) = |N(u_1) cap ... cap N(u_t)| (tuples may repeat vertices)."""
    if t < 1:
        raise CountError("t must be >= 1")
    bits = g.adjacency_bits
    total = 0

    def rec(depth: int, common: int):
        nonlocal total
        if depth == t:
            total += common.bit_count() ** t
            return
        for v in range(g.n):
            c = common & bits[v] if depth else bits[v]
            if c:
                rec(depth + 1, c)

    rec(0, 0)
    return total


def count_ktt(g: Graph, t: int, budget: int = 10**9) -> CountResult:
    """Exact number of unlabeled K_{t,t} copies.

    Codegree formula (1/2) * sum over t-subsets S of C(codeg(S), t), with
    codeg(S) the common-neighborhood size.  Each copy is counted once per
    side; loops are impossible, so a subset is always disjoint from its
    common neighborhood and the two sides of a copy are distinct subsets,
    giving exactly the factor 2.  Subsets are enumerated in colex-style
    recursive order with early termination once the running common
    neighborhood drops below t.
    """
    if t < 2:
        raise CountError("count_ktt needs t >= 2")
    t0 = time.perf_counter()
    estimate = math.comb(g.n, min(t, g.n)) if g.n >= t else 0
    if estimate > budget:
        raise BudgetExceededError(
            f"count_ktt would enumerate ~{estimate} subsets", estimate
        )
    bits = g.adjacency_bits
    doubled = 0
    work = 0

    def rec(start: int, depth: int, common: int):
        nonlocal doubled, work
        if depth == t:
            doubled += math.comb(common.bit_count(), t)
            return
        for v in range(start, g.n):
            work += 1
            if work > budget:
                raise BudgetExceededError("count_ktt budget exceeded", work)
            c = common & bits[v] if depth else bits[v]
            if c.bit_count() >= t:
                rec(v + 1, depth + 1, c)

    rec(0, 0, 0)
    assert doubled % 2 == 0
    return CountResult(doubled // 2, "codegree", time.perf_counter() - t0)


# -- pattern quotient machinery for even cycles ----------------------------


def _canonical(n: int, edges: frozenset) -> tuple:
    best = None
    for perm in permutations(range(n)):
        relabeled = tuple(
            sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
        )
        if best is None or relabeled < best:
            best = relabeled
    return (n, best)


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


class _EliminationError(CountError):
    pass


def _hom_by_elimination(n_pat: int, edges: frozenset, mats: dict) -> float:
    """hom(pattern, G) by variable elimination over adjacency factors.

    `mats` carries 'A' (float64 adjacency) plus a cache.  Works whenever a
    min-degree elimination order keeps every intermediate factor on at most 2
    variables (true for all quotients of cycles); raises otherwise.
    """
    a = mats["A"]
    n = a.shape[0]
    # factors: dict key -> (vars tuple, ndarray); start with one per edge
    factors: list[tuple[tuple[int, ...], np.ndarray]] = [
        ((u, v), a) for u, v in sorted(edges)
    ]
    alive = set(range(n_pat))
    const = 1.0
    while alive:
        # pick the variable entangled with the fewest other variables
        def cost(v):
            nbrs = set()
            for vs, _ in factors:
                if v in vs:
                    nbrs |= set(vs)
            nbrs.discard(v)
            return (len(nbrs), v)

        v = min(alive, key=cost)
        inc = [(vs, f) for vs, f in factors if v in vs]
        factors = [(vs, f) for vs, f in factors if v not in vs]
        others = sorted({u for vs, _ in inc for u in vs if u != v})
        if len(others) > 2:
            raise _EliminationError("intermediate factor exceeds 2 variables")
        if not inc:
            const *= n
            alive.discard(v)
            continue
        if len(others) == 0:
            # all incident factors are vectors over v
            vec = np.ones(n)
            for vs, f in inc:
                vec = vec * f
            const *= float(vec.sum())
        elif len(others) == 1:
            u = others[0]
            vec = np.ones(n)  # over v
            mat = np.ones((n, n))  # over (u, v), may stay all-ones
            matted = False
            for vs, f in inc:
                if vs == (v,):
                    vec = vec * f
                else:
                    fm = f if vs == (u, v) else f.T
                    mat = mat * fm if matted else fm.copy()
                    matted = True
            res = mat @ vec if matted else np.full(n, vec.sum())
            factors.append(((u,), res))
        else:
            u, w = others
            # multiply everything into a (u,v) and a (v,w) block, contract v
            left = None  # (u, v)
            right = None  # (v, w)
            vec = None  # (v,)
            for vs, f in inc:
                if vs == (v,):
                    vec = f if vec is None else vec * f
                elif set(vs) == {u, v}:
                    fm = f if vs == (u, v) else f.T
                    left = fm if left is None else left * fm
                elif set(vs) == {v, w}:
                    fm = f if vs == (v, w) else f.T
                    right = fm if right is None else right * fm
                else:
                    raise _EliminationError("unexpected factor scope")
            if left is None:
                left = np.ones((n, n))
            if right is None:
                right = np.ones((n, n))
            if vec is not None:
                right = vec[:, None] * right
            factors.append(((u, w), left @ right))
        alive.discard(v)
        # merge duplicate-scope factors to keep widths small
        merged: dict[tuple[int, ...], np.ndarray] = {}
        for vs, f in factors:
            key = tuple(sorted(vs))
            fm = f if vs == key else f.T
            merged[key] = merged[key] * fm if key in merged else fm
        factors = list(merged.items())
    return const


def _inj_by_moebius(n_pat: int, edges: frozenset, mats: dict, memo: dict) -> float:
    """inj(pattern, G) = hom(pattern) - sum of inj over proper quotients.

    Only loop-free quotients (no block containing an adjacent pair) can carry
    homomorphisms into a simple graph.
    """
    key = _canonical(n_pat, edges)
    if key in memo:
        return memo[key]
    total = _hom_by_elimination(n_pat, edges, mats)
    assert abs(total - round(total)) < 0.25, "inexact hom contraction"
    adj = {frozenset(e) for e in edges}
    for part in _set_partitions(list(range(n_pat))):
        if len(part) == n_pat:
            continue  # the discrete partition is the pattern itself
        block_of = {}
        for i, block in enumerate(part):
            for v in block:
                block_of[v] = i
        if any(
            block_of[u] == block_of[v] for e in adj for u, v in [tuple(e)]
        ):
            continue
        q_edges = frozenset(
            tuple(sorted((block_of[u], block_of[v]))) for u, v in edges
        )
        total -= _inj_by_moebius(len(part), q_edges, mats, memo)
    memo[key] = total
    return total


def _enumerate_c2t(g: Graph, t: int, budget: int) -> int:
    """Rooted injective closed-walk enumeration: each cycle is walked from its
    minimum-index vertex in both orientations, so the count is halved."""
    length = 2 * t
    adj = g.adjacency
    work = 0
    total = 0

    def rec(root: int, walk: list[int], used: set):
        nonlocal total, work
        v = walk[-1]
        if len(walk) == length:
            if root in adj[v]:
                total += 1
            return
        for w in adj[v]:
            work += 1
            if work > budget:
                raise BudgetExceededError("count_c2t budget exceeded", work)
            if w > root and w not in used:
                used.add(w)
                walk.append(w)
                rec(root, walk, used)
                walk.pop()
                used.discard(w)

    for root in range(g.n):
        rec(root, [root], {root})
    assert total % 2 == 0
    return total // 2


def _c2t_moebius(g: Graph, t: int) -> int:
    pat = cycle(2 * t)
    edges = frozenset(pat.edges)
    a = g.adjacency_matrix()
    # exactness guard: every intermediate is an integer bounded by hom(C_2t)
    lam_bound = math.sqrt(2 * g.edge_count)
    hom_bound = g.n * lam_bound ** (2 * t)
    if hom_bound >= 2**52:
        raise BudgetExceededError(
            "count_c2t: host too large for exact float64 contraction",
            int(hom_bound),
        )
    memo: dict = {}
    inj = _inj_by_moebius(pat.n, edges, {"A": a}, memo)
    inj_int = int(round(inj))
    assert abs(inj - inj_int) < 0.25
    aut = 4 * t  # |Aut(C_2t)|
    assert inj_int % aut == 0
    return inj_int // aut


def count_c2t(g: Graph, t: int, budget: int = 10**9) -> CountResult:
    """Exact number of unlabeled 2t-cycles.

    t=2: codegree formula (1/2) sum over vertex pairs of C(codeg, 2) (each
    4-cycle is counted once per diagonal pair).  t>=3: partition-Moebius
    inversion of closed-walk counts over cycle quotients (exact, integer
    checked).
    """
    if t < 2:
        raise CountError("count_c2t needs t >= 2")
    t0 = time.perf_counter()
    if g.n < 2 * t or g.edge_count < 2 * t:
        return CountResult(0, "codegree" if t == 2 else "walk-moebius", 0.0)
    if t == 2:
        estimate = g.n * (g.n - 1) // 2
        if estimate > budget:
            raise BudgetExceededError(
                f"count_c2t would scan {estimate} pairs", estimate
            )
        bits = g.adjacency_bits
        doubled = 0
        for u in range(g.n):
            bu = bits[u]
            for v in range(u + 1, g.n):
                c = (bu & bits[v]).bit_count()
                if c >= 2:
                    doubled += c * (c - 1) // 2
        assert doubled % 2 == 0
        return CountResult(doubled // 2, "codegree", time.perf_counter() - t0)
    try:
        value = _c2t_moebius(g, t)
        method = "walk-moebius"
    except _EliminationError:
        # some quotients of long cycles exceed the width-2 engine (e.g. the
        # complete graph on 4 vertices for the 8-cycle); enumerate instead
        value = _enumerate_c2t(g, t, budget)
        method = "cycle-enum"
    return CountResult(value, method, time.perf_counter() - t0)
