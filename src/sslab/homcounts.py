"""Exact counting: homomorphisms, one-to-one homomorphisms, automorphisms,
closed walks, and copies of complete-bipartite and even-cycle patterns.

Three engines, every result an exact Python int:

- contraction (`hom_contract`): hom(H, G) is a sum over the pattern's
  vertices of a product of adjacency factors, one per pattern edge, and the
  engine sums the pattern vertices out one at a time with `np.einsum`.
  Closed walks, hom(K_{t,t}), the inequality suite and every inj count
  run on it: `inj_count`, `aut_order` (inj(H, H)) and the 2t-cycle counter
  (t >= 3) use the spasm identity inj(H, G) = sum_q mu_q hom(q, G) over
  the loop-free quotients q of H (`_quotients`; Lovasz 2012, section 5.2;
  Curticapean-Dell-Marx), with integer Moebius coefficients mu_q.  Every
  caller goes through one entry point for a signed sum of patterns over one
  host (`_contract_sum`).  Within the sum, a step whose summed-out
  sub-pattern is isomorphic to an earlier step's (boundary vertices in
  scope order) takes that step's stored array instead of a new `np.einsum`,
  and the store drops each array at its last use.  So C_6's ten quotients
  make four k x k products (A^2 to A^5) instead of thirteen.
- codegree (`count_ktt`): common-neighbourhood counts, which need no dense
  matrix.  At t=2 (and `count_c2t` at t=2, since C_4 = K_{2,2}) this is
  Chiba-Nishizeki's degree-ordered wedge count, one sparse product over the
  CSR adjacency; at t>=3 a bitset recursion over twin classes.
- backtracking (`hom_count`): plain enumeration, which `sslab hom` reports;
  the tests enumerate inj themselves as the oracle for the Moebius sums.

The first two count on the host's false-twin quotient (`_twins`):
non-adjacent vertices with one neighbourhood form a class, the host is the
blow-up of the quotient W by the class sizes w, and hom(H, G) is the
vertex-weighted hom(H, (W, w)) (Lovasz 2012, ch. 5).  So k above is the
class count: the engine contracts W's k x k adjacency with w on every
pattern vertex, and the recursion weighs each choice of classes by the
subsets it stands for.  A twin-free host (k = n) runs on its own adjacency
with no weights.

Exactness rule: float arithmetic is trusted only where the data certify it
(see `hom_contract`); otherwise the same contraction reruns on int64 where
a range bound allows it, else on Python ints, within a work budget.
Every parity, divisibility and float-to-int step raises `CountError` when it
fails, so no result depends on `assert`.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .graphs import Graph


# elementary steps a count may take: count_ktt's and count_c2t's default
# budget, the exact contraction rerun's cap, a sweep's limit without --force
WORK_BUDGET = 10**9


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


def _rows(a) -> list[list[int]]:
    """The column indices of each row of the CSR matrix `a`."""
    ptr, idx = a.indptr.tolist(), a.indices.tolist()
    return [idx[ptr[v] : ptr[v + 1]] for v in range(a.shape[0])]


# -- false twins -------------------------------------------------------------

# odd multiplier of the vertex keys that `_twins` sums over each row
_TWIN_SEED = 0x9E3779B97F4A7C15


def _twins(a) -> tuple[np.ndarray, np.ndarray]:
    """The false-twin classes of the symmetric CSR matrix `a`, the sets of
    vertices with equal rows, as (reps, w): the least vertex of each class,
    ascending, and the class sizes.  On a simple graph twins have the same
    neighbours and are never adjacent.

    Each row is keyed by its length and the sum, modulo 2^64, of mixed
    uint64 keys of its columns.  Rows that share a key are then compared
    entry by entry with their group's least vertex, and a group where one
    differs is regrouped by its exact rows.  So a key collision costs time
    but never merges two classes.
    """
    n = a.shape[0]
    ptr, idx, data = a.indptr, a.indices, a.data
    deg = np.diff(ptr)
    x = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_TWIN_SEED)
    x ^= x >> np.uint64(31)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(29)
    run = np.zeros(len(idx) + 1, dtype=np.uint64)
    np.cumsum(x[idx], out=run[1:])
    key = run[ptr[1:]] - run[ptr[:-1]]  # each row's sum, wrapping like the run
    order = np.lexsort((key, deg))  # stable, so each group starts at its least vertex
    first = np.ones(n, dtype=bool)
    first[1:] = (deg[order[1:]] != deg[order[:-1]]) | (key[order[1:]] != key[order[:-1]])
    lead = np.empty(n, dtype=np.intp)
    lead[order] = order[first][np.cumsum(first) - 1]
    v = np.flatnonzero(lead != np.arange(n))
    if v.size:
        d = deg[v]
        offset = np.arange(d.sum()) - np.repeat(np.cumsum(d) - d, d)
        pv, pu = np.repeat(ptr[v], d) + offset, np.repeat(ptr[lead[v]], d) + offset
        differs = (idx[pv] != idx[pu]) | (data[pv] != data[pu])
        for group in sorted(set(lead[np.repeat(v, d)[differs]].tolist())):
            seen: dict = {}
            for y in np.flatnonzero(lead == group).tolist():
                row = idx[ptr[y] : ptr[y + 1]].tobytes(), data[ptr[y] : ptr[y + 1]].tobytes()
                lead[y] = seen.setdefault(row, y)
    reps = np.flatnonzero(lead == np.arange(n))
    return reps, np.bincount(np.searchsorted(reps, lead), minlength=len(reps))


# -- backtracking hom counts -----------------------------------------------


def _connected_order(rows: list[list[int]]) -> list[int]:
    """Greedy order: repeatedly take the vertex with the most already-placed
    neighbors (degree as tie-break), so the first is a max-degree vertex."""
    placed: list[int] = []
    remaining = set(range(len(rows)))
    while remaining:
        start = max(
            remaining, key=lambda v: (sum(w not in remaining for w in rows[v]), len(rows[v]), -v)
        )
        placed.append(start)
        remaining.discard(start)
    return placed


# most pattern vertices `hom_count` and `inj_count` take
PATTERN_LIMIT = 10


def hom_count(h: Graph, g: Graph) -> CountResult:
    """hom(h, g) by backtracking: each pattern vertex in `_connected_order`
    goes to the common host neighbours of its placed pattern neighbours."""
    if h.n > PATTERN_LIMIT:
        raise PatternTooLargeError(f"pattern has {h.n} > {PATTERN_LIMIT} vertices")
    rows = _rows(h.sparse_adjacency())
    order = _connected_order(rows)
    pos = {v: i for i, v in enumerate(order)}
    # for each step, the pattern neighbors already placed
    back = [[pos[w] for w in rows[v] if pos[w] < i] for i, v in enumerate(order)]
    gsets = [set(r) for r in _rows(g.sparse_adjacency())]
    total = 0
    image = [0] * h.n

    def extend(i: int):
        nonlocal total
        if i == h.n:
            total += 1
            return
        anchors = back[i]
        if anchors:
            cands = gsets[image[anchors[0]]].copy()
            for a in anchors[1:]:
                cands &= gsets[image[a]]
        else:
            cands = range(g.n)
        for c in cands:
            image[i] = c
            extend(i + 1)

    extend(0)
    return CountResult(total, "backtracking")


# -- the contraction engine ------------------------------------------------

_EXACT = 2.0**52  # float64 holds every integer up to 2^53


@lru_cache(maxsize=1024)
def _plan(variables: frozenset, scopes: frozenset) -> tuple:
    """Elimination steps for factors on `scopes` (sorted variable tuples).

    Each step sums out the variable whose result has the fewest variables,
    lowest index on ties: ("sum", v, result scope).  When every result would
    have three or more variables, the plan conditions instead, on the
    variable of that scope found in the most factors, and the rest of the
    plan runs once per host vertex: ("condition", c, subplan).
    """
    variables, scopes = set(variables), set(scopes)
    # each variable's neighbours: the others that share a factor with it
    nbrs = {v: {u for s in scopes if v in s for u in s} - {v} for v in variables}
    steps = []
    while variables:
        v = min(variables, key=lambda v: (len(nbrs[v]), v))
        others = tuple(sorted(nbrs[v]))
        if len(others) > 2:
            c = max(others, key=lambda u: (sum(u in s for s in scopes), -u))
            rest = {tuple(u for u in s if u != c) for s in scopes} - {()}
            steps.append(("condition", c, _plan(frozenset(variables - {c}), frozenset(rest))))
            break
        variables.discard(v)
        for u in others:  # v's factors become one on `others`
            nbrs[u] = (nbrs[u] | nbrs[v]) - {u, v}
        scopes = {s for s in scopes if v not in s} | ({others} if others else set())
        steps.append(("sum", v, others))
    return tuple(steps)


def _sub_patterns(plan: tuple, scopes: frozenset) -> list:
    """One entry per step of `plan`, a plan for factors on `scopes`.  A sum
    step before any conditioning whose result has axes gets the sub-pattern
    it has summed out, as `(n, edges, colours)` on 0..n-1: the pattern edges
    multiplied into its inputs, with the i-th vertex of the result scope
    coloured 2(i+1) and a looped vertex's colour raised by 1.  Every other
    step gets None.

    On one 0/1 host, steps with isomorphic sub-patterns give equal arrays:
    a factor is the sum, over its summed-out vertices, of the product of
    its pattern edges, and a repeated edge changes nothing, since A∘A = A.
    On a twin quotient the sum also weighs each summed-out vertex by its
    class size.  Every pattern vertex carries exactly one such weight
    factor, so the weights are left out of the sub-pattern: they are no
    loops, and isomorphic sub-patterns still give equal arrays.
    """
    held = {s: frozenset([s]) for s in scopes}  # factor scope -> its pattern edges
    subs: list = []
    for step in plan:
        if step[0] == "condition":
            return subs + [None]
        _, v, others = step
        inc = [s for s in held if v in s]
        edges = frozenset().union(*(held.pop(s) for s in inc))
        if not others:
            subs.append(None)
            continue
        held[others] = held.get(others, frozenset()) | edges
        verts = sorted({u for s in edges for u in s})
        label = {u: i for i, u in enumerate(verts)}
        color = [2 * (others.index(u) + 1) if u in others else 0 for u in verts]
        for s in edges:
            if len(s) == 1:
                color[label[s[0]]] += 1
        pairs = frozenset((label[s[0]], label[s[1]]) for s in edges if len(s) == 2)
        subs.append((len(verts), pairs, tuple(color)))
    return subs


def _invariant(sub: tuple) -> tuple:
    """A cheap isomorphism invariant of a sub-pattern: its edge count and
    the sorted (colour, degree) pairs of its vertices."""
    _, pairs, color = sub
    degree = Counter(u for pair in pairs for u in pair)
    return len(pairs), tuple(sorted((c, degree[u]) for u, c in enumerate(color)))


@lru_cache(maxsize=256)
def _schedule(terms: tuple) -> tuple:
    """The terms (n_vars, edges, mu) of a signed sum as (n_vars, plan, keys,
    edges, mu) in evaluation order, and the number of steps that take each
    key.

    A step's key is the `_canonical` form of its sub-pattern
    (`_sub_patterns`) when another step of the sum has a sub-pattern with
    the same `_invariant`, and only when that form recurs; the other steps
    get None.  Terms run in ascending order of the largest sub-pattern
    behind a 2-axis step, so the k x k results that later terms reuse are
    built as late as possible and few are held at once.
    """
    planned = []
    for n_vars, edges, mu in terms:
        scopes = frozenset(tuple(sorted({u, v})) for u, v in edges)
        plan = _plan(frozenset(range(n_vars)), scopes)
        planned.append((n_vars, plan, _sub_patterns(plan, scopes), edges, mu))
    subs = [sub for term in planned for sub in term[2] if sub]
    seen = Counter(map(_invariant, subs))
    forms = {sub: _canonical(*sub) for sub in subs if seen[_invariant(sub)] > 1}
    uses = Counter(forms[sub] for sub in subs if sub in forms)

    def key(sub):
        form = forms.get(sub)
        return form if uses[form] > 1 else None

    def widest(term):
        plan, subs = term[1], term[2]
        sizes = [sub[0] for step, sub in zip(plan, subs) if sub and len(step[2]) == 2]
        return max(sizes, default=0)

    order = tuple(
        (n_vars, plan, tuple(map(key, subs)), edges, mu)
        for n_vars, plan, subs, edges, mu in sorted(planned, key=widest)
    )
    return order, {k: c for k, c in uses.items() if c > 1}


class _Shared:
    """The keyed step results of one signed sum over one host, each
    dropped at its last use."""

    def __init__(self, uses: dict):
        self.left = dict(uses)
        self.arrays: dict = {}

    def used(self, key, f=None):
        """One step with `key` has run (holding its result `f`) or was
        skipped (`f` None)."""
        self.left[key] -= 1
        if not self.left[key]:
            self.arrays.pop(key, None)
        elif f is not None:
            self.arrays[key] = f


def _put(factors: dict, scope: tuple, f: np.ndarray) -> bool:
    """Multiply `f` into the factor on `scope`; False if a float entry of the
    product lies past 2^52 (or is NaN).  Integer factors always pass."""
    if scope in factors:
        f = factors[scope] * f
    factors[scope] = f
    return f.dtype.kind != "f" or not f.size or bool(f.max() <= _EXACT)


def _to_int(x) -> Optional[int]:
    """The integer a contraction scalar holds; None if it is a float past
    2^52, which may have been rounded."""
    x = np.asarray(x).item()
    if isinstance(x, int):
        return x
    if not x <= _EXACT:
        return None
    if not x.is_integer():
        raise CountError(f"contraction produced the non-integer {x!r}")
    return int(x)


def _execute(plan: tuple, factors: dict, n: int, shared=None, keys=()) -> Optional[int]:
    """Run `plan` over `factors` (scope -> array on n host vertices or
    twin classes per axis; a vertex with no factor, which only an
    unweighted run has, contributes a factor n).  Returns the exact value,
    or None as soon as a float factor or scalar leaves the certified range.
    `keys` yields one `_schedule` key per step; a keyed step takes its
    result from `shared` when an earlier step with that key computed it,
    and passes it through `_put` like a fresh one."""
    factors = dict(factors)
    keys = iter(keys)
    value = 1
    for step in plan:
        key = next(keys, None)
        if step[0] == "condition":
            _, c, subplan = step
            total = 0
            for x in range(n):
                weight, sliced = 1, {s: f for s, f in factors.items() if c not in s}
                for s, f in factors.items():
                    if s == (c,):
                        weight = _to_int(f[x])
                    elif c in s:
                        rest = tuple(u for u in s if u != c)
                        if not _put(sliced, rest, f[x] if s[0] == c else f[:, x]):
                            return None
                if weight == 0:
                    continue
                sub = _execute(subplan, sliced, n)
                if sub is None:
                    return None
                total += weight * sub
            return value * total
        _, v, others = step
        inc = [s for s in factors if v in s]
        if not inc:
            value *= n
            continue
        f = None if key is None else shared.arrays.get(key)
        if f is None:
            letters = dict(zip((v, *others), "ijk"))
            spec = ",".join("".join(letters[u] for u in s) for s in inc)
            spec += "->" + "".join(letters[u] for u in others)
            f = np.einsum(spec, *(factors.pop(s) for s in inc), optimize=True)
        else:
            for s in inc:
                del factors[s]
        if key is not None:
            shared.used(key, f)
        if others:
            if not _put(factors, others, f):
                return None
        else:
            r = _to_int(f)
            if r is None:
                return None
            value *= r
    return value


def _plan_work(plan: tuple, n: int) -> int:
    """Operations `_execute` spends on `plan` over n host vertices (twin
    classes, on a quotient): n^(j+1) for a sum step whose result has j
    axes, and the rest of the plan n times over for a conditioning."""
    work = 0
    for step in plan:
        if step[0] == "condition":
            return work + n * _plan_work(step[2], n)
        work += n ** (len(step[2]) + 1)
    return work


def _edge_factors(n_vars: int, edges, a: np.ndarray, w: Optional[np.ndarray]) -> dict:
    """One factor per pattern edge: `a` on the edge's two vertices, or the
    diagonal of `a` on a loop; and, unless `w` is None, the class sizes `w`
    on each of the n_vars pattern vertices.  Repeated scopes are multiplied
    together."""
    factors: dict = {} if w is None else {(v,): w for v in range(n_vars)}
    for u, v in edges:
        scope = tuple(sorted({u, v}))
        f = np.diagonal(a) if u == v else a
        factors[scope] = factors[scope] * f if scope in factors else f
    return factors


def _contract_sum(terms: tuple, g: Graph, budget: int) -> int:
    """Sum of mu * hom(pattern, g) over `terms`, each (n_vars, edges, mu)
    for a pattern on vertices 0..n_vars-1, on the false-twin quotient of g
    (`_twins`): its k x k 0/1 adjacency, densified once (the one dense host
    matrix in the package), with the class sizes w as a factor on every
    pattern vertex.  g is the blow-up of the quotient, so this is hom(H, g)
    (Lovasz 2012, ch. 5).  A twin-free host is its own quotient: it runs on
    its adjacency with no weight factors.

    Each term is the float64 run when certified.  Otherwise the same plan
    reruns on exact integers, refused when estimated past `budget`
    operations: on int64 when n^n_vars < 2^63, since the weights sum to n
    and every factor entry, product and partial sum counts weighted maps
    of at most n_vars pattern vertices into the k classes; else on Python
    ints.  The float runs share their keyed step results: the first step
    with a key computes it, the later ones take the stored array, and the
    store drops it at its last use, counted over the whole sum by
    `_schedule`.  A term that falls back to integers reruns alone; the
    steps its float run did not reach count as used, so later terms find
    the arrays or recompute them.
    """
    order, uses = _schedule(terms)
    shared = _Shared(uses)
    a = g.sparse_adjacency()
    n = a.shape[0]
    reps, w = _twins(a)
    if len(reps) == n:
        w = None
    else:
        a, w = a[reps][:, reps], w.astype(np.float64)
    a = a.toarray()
    k = a.shape[0]
    total = 0
    for n_vars, plan, keys, edges, mu in order:
        pending = iter(keys)
        value = _execute(plan, _edge_factors(n_vars, edges, a, w), k, shared, pending)
        for key in pending:  # the keyed steps an early exit did not reach
            if key is not None:
                shared.used(key)
        if value is None:  # some float factor passed 2^52
            work = _plan_work(plan, k)
            if work > budget:
                raise BudgetExceededError(
                    f"exact-integer contraction would take ~{work} operations", work
                )
            exact = a.astype(np.int64), None if w is None else w.astype(np.int64)
            if n**n_vars >= 2**63:
                exact = tuple(None if f is None else f.astype(object) for f in exact)
            value = _execute(plan, _edge_factors(n_vars, edges, *exact), k)
        total += mu * value
    return total


def hom_contract(n_vars: int, edges, g: Graph) -> CountResult:
    """Exact hom(H, g) for the pattern H on vertices 0..n_vars-1 with the
    given edge list ((u, u) is a loop; repeated edges are allowed).

    Pattern vertices are summed out one at a time, lowest resulting width
    first, with `np.einsum` over float64 factors: the adjacency of g's twin
    quotient on each pattern edge and the class sizes on each pattern
    vertex (`_contract_sum`).  No factor ever has more than two class axes:
    where every elimination would need three, the engine conditions on one
    pattern vertex instead, loops over its k classes and adds up the exact
    integer results, each times the class size.

    Exactness is certified by the data, not by an a-priori bound.  Inputs,
    class sizes included, are nonnegative integers, so every partial sum
    or product that reaches an output entry is at most that entry.  Float64
    computes each partial exactly while it stays at most 2^52; rounding is
    monotone and 2^52 + 1 is a float, so the first partial past 2^52 leaves
    its output entry past 2^52 as well.  Hence if every factor the engine keeps, and every scalar,
    is at most 2^52, every float step was exact.  (A partial that reaches no
    output was multiplied by 0, and is finite because each step's inputs are
    at most 2^52.)  Otherwise the same plan is rerun once on int64 when
    n^n_vars < 2^63, else on object arrays of Python ints; a rerun
    estimated past `WORK_BUDGET` operations (about k^3 per step, k times
    that under each conditioning) raises `BudgetExceededError` before it
    starts.
    """
    if n_vars < 0:
        raise CountError(f"pattern vertex count {n_vars} < 0")
    for u, v in edges:
        if not (0 <= u < n_vars and 0 <= v < n_vars):
            raise CountError(f"pattern edge ({u}, {v}) outside 0..{n_vars - 1}")
    term = (n_vars, tuple((u, v) for u, v in edges), 1)
    return CountResult(_contract_sum((term,), g, WORK_BUDGET), "contraction")


def closed_walk_count(g: Graph, length: int) -> CountResult:
    """Exact number of closed walks of the given length: hom(C_L, g), with
    C_1 a loop and C_2 a double edge."""
    if length < 1:
        raise CountError("walk length must be >= 1")
    term = (length, tuple((i, (i + 1) % length) for i in range(length)), 1)
    return CountResult(_contract_sum((term,), g, WORK_BUDGET), "trace-power")


def hom_complete_bipartite(g: Graph, t: int) -> int:
    """Exact hom(K_{t,t}, g)."""
    if t < 1:
        raise CountError("t must be >= 1")
    term = (2 * t, tuple((i, t + j) for i in range(t) for j in range(t)), 1)
    return _contract_sum((term,), g, WORK_BUDGET)


# -- codegree counters -----------------------------------------------------


def codegree_work(n: int, m: int, t: int, classes: Optional[int] = None) -> int:
    """Up-front bound on `count_ktt`'s work on a host with n vertices, m
    edges and `classes` false-twin classes (n by default).  t = 2:
    Chiba-Nishizeki's 2m * ceil(sqrt(2m + n) / 2), which bounds the wedge
    steps, the sum over edges uv of min(d_u, d_v), since that sum is at most
    2m times the arboricity and the arboricity is at most
    ceil(sqrt(2m + n) / 2).  t >= 3: the t-multisets of the classes, and at
    most the t-subsets of the vertices, C(min(classes + t - 1, n), t)."""
    if t == 2:
        root = math.isqrt(2 * m + n)
        root += root * root < 2 * m + n  # ceil(sqrt(2m + n))
        return 2 * m * ((root + 1) // 2)
    top = min(n if classes is None else classes + t - 1, n)
    return math.comb(top, t) if top >= t else 0


def wedge_work(g: Graph) -> int:
    """The C4 kernel's work, known from the degrees: the sum over edges uv
    of min(d_u, d_v), one step per wedge v-u-w with u ranked below v."""
    deg = np.diff(g.sparse_adjacency().indptr)
    e = g.edge_array
    return int(np.minimum(deg[e[:, 0]], deg[e[:, 1]]).sum())


def _pair_total(codegrees: np.ndarray) -> int:
    """Exact sum of C(c, 2) over float64 codegrees.  The int64 arithmetic
    runs only after a range guard: with k codegrees up to c, every term and
    the sum are at most k * C(c, 2), kept below 2^62 (so every c is below
    2^32 and held exactly), else `CountError`."""
    if not codegrees.size:
        return 0
    top = float(codegrees.max())
    if codegrees.size * top * (top - 1) / 2 >= 2.0**62:
        raise CountError(
            f"{codegrees.size} codegrees up to {top:.0f} may pass the int64 range"
        )
    c = codegrees.astype(np.int64)
    return int((c * (c - 1) // 2).sum())


def _count_c4(g: Graph) -> int:
    """Chiba-Nishizeki's degree-ordered C4 count.  Rank the vertices by
    (degree, id) and let L hold the edges from each vertex to its lower-ranked
    neighbours.  (L @ A)[v, w] counts the u ranked below v adjacent to both,
    so summing C((L @ A)[v, w], 2) over w ranked below v counts each C4 once,
    at its top-ranked vertex v with w opposite it."""
    a = g.sparse_adjacency()
    deg = np.diff(a.indptr)
    rank = np.empty(g.n, dtype=np.intp)
    rank[np.lexsort((np.arange(g.n), deg))] = np.arange(g.n)
    rows = np.repeat(rank, deg)  # the rank of each entry's row vertex
    lower = a.copy()
    lower.data = (rank[a.indices] < rows).astype(np.float64)
    lower.eliminate_zeros()
    w = (lower @ a).tocoo()
    # entries are sums of 0/1 products, integers at most n, exact in float64
    return _pair_total(w.data[rank[w.col] < rank[w.row]])


def count_ktt(g: Graph, t: int, budget: int = WORK_BUDGET) -> CountResult:
    """Exact number of unlabeled K_{t,t} copies, by codegrees.

    t = 2: `_count_c4`, which takes `wedge_work(g)` steps; the count is
    refused up front when that exceeds `budget`.

    t >= 3: (1/2) * sum over t-subsets S of C(codeg(S), t), with codeg(S)
    the common-neighborhood size.  Each copy is counted once per side; loops
    are impossible, so a subset is always disjoint from its common
    neighborhood and the two sides of a copy are distinct subsets, giving
    exactly the factor 2.  Twins have one neighbourhood, and a common
    neighbourhood is a union of twin classes (`_twins`), so the sum runs
    over the classes: a choice of k_i >= 1 vertices from classes i stands
    for prod C(w_i, k_i) subsets, and codeg is the total size w of the
    classes adjacent to every chosen one.  The choices are enumerated over
    the quotient's neighbourhood bitmasks (bit j of class i's mask set iff
    the classes are adjacent) in colex-style recursive order, with early
    termination once the running common neighborhood drops below t; the
    last vertex is one pass over a table of C(c, t).  On a twin-free host
    every w_i is 1 and this is the subset recursion over vertices.
    `budget` bounds the classes tried over all levels, and the count is
    refused up front when `codegree_work` exceeds it.
    """
    if t < 2:
        raise CountError("count_ktt needs t >= 2")
    if t == 2:
        work = wedge_work(g)
        if work > budget:
            raise BudgetExceededError(f"count_ktt would take {work} wedge steps", work)
        return CountResult(_count_c4(g), "codegree")
    a = g.sparse_adjacency()
    reps, w = _twins(a)
    k = len(reps)
    estimate = codegree_work(g.n, g.edge_count, t, k)
    if estimate > budget:
        raise BudgetExceededError(
            f"count_ktt would enumerate ~{estimate} subsets", estimate
        )
    bits = [sum(1 << j for j in row) for row in _rows(a[reps][:, reps] if k < g.n else a)]
    w = w.tolist()
    # the size of a set of classes, summed over the bit planes of w
    planes = [
        sum(1 << i for i in range(k) if w[i] >> b & 1)
        for b in range(max(w, default=1).bit_length())
    ]
    size = int.bit_count if len(planes) == 1 else (
        lambda mask: sum((mask & p).bit_count() << b for b, p in enumerate(planes))
    )
    choose = [math.comb(c, t) for c in range(max(g.degrees, default=0) + 1)]
    last = list(zip(w, bits))
    # the ways to take j >= 1 of the t vertices from class i
    takes = [[(j, math.comb(wi, j)) for j in range(1, min(wi, t) + 1)] for wi in w]
    doubled = 0
    work = 0

    def rec(start: int, need: int, common: int, ways: int):
        # `need` more vertices to choose from classes start.., after choices
        # that stand for `ways` subsets with common neighbourhood `common`
        nonlocal doubled, work
        if need == 1:
            work += k - start
            if work > budget:
                raise BudgetExceededError("count_ktt budget exceeded", work)
            doubled += ways * sum(wi * choose[size(common & b)] for wi, b in last[start:])
            return
        for i in range(start, k):
            work += 1
            if work > budget:
                raise BudgetExceededError("count_ktt budget exceeded", work)
            c = common & bits[i] if need < t else bits[i]
            s = size(c)
            if s < t:
                continue
            for j, subsets in takes[i]:
                if j == need:
                    doubled += ways * subsets * choose[s]
                    break
                rec(i + 1, need - j, c, ways * subsets)

    rec(0, t, 0, 1)
    if doubled % 2:
        raise CountError(f"odd doubled K_{{t,t}} count {doubled}")
    return CountResult(doubled // 2, "codegree")


# -- inj counts by partition-Moebius inversion -----------------------------


def _refine(nbrs: list, color: list) -> list:
    """Colour refinement: split colour classes by the multiset of neighbour
    colours until stable.  Colours come out as ranks of sorted signatures,
    so any relabelling of the graph relabels the result the same way."""
    while True:
        sig = [(c, tuple(sorted(color[w] for w in nb))) for c, nb in zip(color, nbrs)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        refined = [rank[s] for s in sig]
        if len(rank) == len(set(color)):
            return refined
        color = refined


def _canonical(n: int, edges: frozenset, color: Optional[tuple] = None) -> tuple:
    """Isomorphism-invariant form of the graph on 0..n-1 with vertex colours
    `color` (all 0 by default): the sorted colours, and the least sorted
    edge list over the labelings reached by individualization-refinement,
    which branches on every vertex of the first colour class that is not
    yet a single vertex.  Refinement keeps the colour order, so label i
    carries the i-th least colour.

    A branch is skipped when its first labeling equals one under an
    earlier branch of the same node, the individualized vertices included:
    an automorphism then maps that earlier branch onto it, with the same
    edge lists.  So twins cost a polynomial search, not a factorial one.
    """
    color = [0] * n if color is None else list(color)
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)

    def leaf(color, path):
        form = tuple(sorted(tuple(sorted((color[u], color[v]))) for u, v in edges))
        return form, tuple(color[v] for v in path)

    def child(color, v):
        return _refine(nbrs, [2 * c + (u == v) for u, c in enumerate(color)])

    def cell(color):
        target = min(c for c in color if color.count(c) > 1)
        return [v for v in range(n) if color[v] == target]

    def first_leaf(color, path):
        while len(set(color)) < n:
            v = cell(color)[0]
            color, path = child(color, v), path + (v,)
        return leaf(color, path)

    def search(color, path) -> set:
        if len(set(color)) == n:
            return {leaf(color, path)}
        found: set = set()
        for v in cell(color):
            below = child(color, v)
            if not found or first_leaf(below, path + (v,)) not in found:
                found |= search(below, path + (v,))
        return found

    return tuple(sorted(color)), min(search(_refine(nbrs, color), ()))[0]


@lru_cache(maxsize=256)
def _quotients(n_vars: int, edges: tuple) -> tuple:
    """(vertices, edges, mu) for each loop-free quotient class q of the
    pattern H on 0..n_vars-1 with mu != 0, so that inj(H, G) = sum of
    mu * hom(q, G) for simple G.

    Moebius inversion over the partition lattice: a partition with blocks B
    adds prod (-1)^(|B|-1) (|B|-1)! to the class of its quotient.  Only
    partitions into independent sets are built (a block holding an edge
    gives a loop, which maps into no simple graph): vertex i joins each
    earlier block that holds none of its neighbours, which multiplies the
    coefficient by minus that block's size, or opens a new block.
    """
    earlier = [{min(e) for e in edges if max(e) == v} for v in range(n_vars)]
    labelled: Counter = Counter()  # summed per labelled quotient: one `_canonical` each

    def extend(block_of: tuple, sizes: tuple, sign: int):
        if len(block_of) == n_vars:
            quotient = frozenset(tuple(sorted((block_of[u], block_of[v]))) for u, v in edges)
            labelled[len(sizes), quotient] += sign
            return
        taken = {block_of[u] for u in earlier[len(block_of)]}
        for b, size in enumerate(sizes):
            if b not in taken:
                extend(block_of + (b,), sizes[:b] + (size + 1,) + sizes[b + 1 :], -size * sign)
        extend(block_of + (len(sizes),), sizes + (1,), sign)

    extend((), (), 1)
    mu: Counter = Counter()
    for key, sign in labelled.items():
        mu[_canonical(*key)] += sign
    return tuple((len(colours), es, c) for (colours, es), c in sorted(mu.items()) if c)


def inj_count(h: Graph, g: Graph) -> CountResult:
    """Exact inj(h, g), the one-to-one homomorphisms: the hom counts of the
    `_quotients` of h as one `_contract_sum` on g, with
    `WORK_BUDGET` capping each exact-integer rerun."""
    if h.n > PATTERN_LIMIT:
        raise PatternTooLargeError(f"pattern has {h.n} > {PATTERN_LIMIT} vertices")
    terms = _quotients(h.n, h.edges)
    return CountResult(_contract_sum(terms, g, WORK_BUDGET), "walk-moebius")


def aut_order(h: Graph) -> int:
    return inj_count(h, h).value


def count_c2t(g: Graph, t: int, budget: int = WORK_BUDGET) -> CountResult:
    """Exact number of unlabeled 2t-cycles.

    t=2: C_4 = K_{2,2}, so `count_ktt`'s degree-ordered codegree count:
    the sum, over vertices v and lower-ranked w, of C(c, 2) with c the
    common neighbours of v and w ranked below v.  t>=3: inj(C_2t), as
    `inj_count` computes it from the cycle's `_quotients`, divided by
    |Aut(C_2t)| = 4t.
    `budget` is passed to `count_ktt` at t=2, which refuses hosts whose
    wedge work exceeds it; at t>=3 it caps each quotient's exact-integer
    rerun.

    The quotients are one `_contract_sum` on g's twin quotient, k classes:
    their plans share every k x k (and k-vector) step result whose
    summed-out sub-pattern repeats, such
    as the A^2 that six of C_6's quotients build eight times in all, and
    each shared array is dropped at its last use.  The terms run in
    ascending order of the largest sub-pattern behind a 2-axis step, so
    few shared k x k arrays are alive at once.  A quotient whose float run
    leaves the certified range reruns alone on exact integers.
    """
    if t < 2:
        raise CountError("count_c2t needs t >= 2")
    if g.n < 2 * t or g.edge_count < 2 * t:
        return CountResult(0, "codegree" if t == 2 else "walk-moebius")
    if t == 2:
        return count_ktt(g, 2, budget=budget)
    edges = tuple((i, (i + 1) % (2 * t)) for i in range(2 * t))
    inj = _contract_sum(_quotients(2 * t, edges), g, budget)
    if inj % (4 * t):
        raise CountError(f"inj(C_{2 * t}) = {inj} is not divisible by {4 * t}")
    return CountResult(inj // (4 * t), "walk-moebius")
