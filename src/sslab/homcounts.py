"""Exact counting: homomorphisms, one-to-one homomorphisms, automorphisms,
closed walks, and copies of complete-bipartite and even-cycle patterns.

Three engines, every result an exact Python int:

- contraction (`hom_contract`): hom(H, G) is a sum over the pattern's
  vertices of a product of adjacency factors, one per pattern edge, and a
  weight per pattern vertex, and the engine sums the pattern vertices out
  one at a time, each step one weighted product (`_sum_out`): w.sum(),
  w @ M or (M1 * w)^T @ M2.  Closed walks, hom(K_{t,t}), the inequality
  suite and every inj count run on it: `inj_count`, `aut_order` (inj(H, H)) and
  the 2t-cycle counter (t >= 3) use the spasm identity inj(H, G) = sum_q
  mu_q hom(q, G) over the loop-free quotients q of H (`_quotients`; Lovasz
  2012, section 5.2; Curticapean-Dell-Marx), with integer Moebius
  coefficients mu_q.  Every
  caller goes through one entry point for a signed sum of patterns over one
  host (`_contract_sum`).  Within the sum, a step whose summed-out
  sub-pattern is isomorphic to an earlier step's (boundary vertices in
  scope order) takes that step's stored array instead of a new product,
  and the store drops each array at its last use.  So C_6's ten quotients
  make four k x k products (A^2 to A^5) instead of thirteen.  A plan that
  conditions on a pattern vertex shares in the same way inside the loop
  over that vertex's classes, with a store of its own for each class and
  the conditioned vertices held in place.  A sum step whose vertex's
  weight is zero on at least half the classes sums over the nonzero ones
  alone, so class x reaches only its neighbours N(x):
  K_{3,3} makes A[N(x)]^T diag(w[N(x)]) A[N(x)] once per class x (w the
  class sizes below), not A diag(w A[x]) A three times.  One walk of the
  pattern (`_plan`) orders the eliminations and records the sub-pattern
  each step sums out, so the keys ride on the plan's steps, and an exact
  rerun runs the same plan with a store of its own.
- codegree (`count_ktt`): common-neighbourhood counts, which need no dense
  matrix.  At t=2 (and `count_c2t` at t=2, since C_4 = K_{2,2}) this is
  Chiba-Nishizeki's degree-ordered wedge count, one sparse product over the
  CSR adjacency; at t>=3 a bitset recursion over twin classes.
- backtracking (`hom_count`), which `sslab hom` reports: breadth-first
  enumeration of every map of all but the last pattern vertex, over numpy
  blocks of partial maps that grow through the host's CSR rows; the last
  vertex is counted by the size of its candidate set, not placed.  The
  tests enumerate inj themselves as the oracle for the Moebius sums.

The first two count on the host's false-twin quotient, which they read
from `Graph.twin_quotient`, built once per host: non-adjacent vertices
with one neighbourhood form a class, the host is the blow-up of the
quotient W by the class sizes w, and hom(H, G) is the vertex-weighted
hom(H, (W, w)) (Lovasz 2012, ch. 5).  So k above is the class count: the
engine contracts W's k x k adjacency with w on every pattern vertex, and
the recursion weighs each choice of classes by the subsets it stands for.
A twin-free host (k = n) is its own quotient, with all-ones class sizes,
and the engine runs the same steps on it.

Exactness rule: float arithmetic is trusted only where the data certify it
(see `hom_contract`); otherwise the same contraction reruns on int64 where
a range bound allows it, else on Python ints, within a work budget.
Every parity, divisibility and float-to-int step raises `CountError` when it
fails, so no result depends on `assert`.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .graphs import Graph, SslabError, cycle


# elementary steps a count may take: count_ktt's, the exact contraction
# rerun's and a sweep's limit, read by every guard when it runs
WORK_BUDGET = 10**9


class CountError(SslabError):
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


# most pattern vertices `hom_count` and `inj_count` take, so C_2t stops at
# t = 5: `_quotients` builds C_10's table in about 0.5 s and C_12's in 13-15 s
PATTERN_LIMIT = 10


def check_pattern_size(n: int) -> None:
    """Refuse a pattern on more than `PATTERN_LIMIT` vertices."""
    if n > PATTERN_LIMIT:
        raise PatternTooLargeError(f"pattern has {n} > {PATTERN_LIMIT} vertices")


# most candidates `hom_count` builds at once (one row's at least), so each
# level of its enumeration holds at most this many partial maps.  1 << 13
# counts C_6 on G(60, 180) as fast as 1 << 14 or 1 << 15 do, at a peak of
# 1.0 MB against 1.9 and 3.1 MB
HOM_BLOCK = 1 << 13


def hom_count(h: Graph, g: Graph) -> CountResult:
    """hom(h, g) by breadth-first backtracking over numpy blocks.

    The pattern vertices are placed in `_connected_order`.  A frontier
    holds one partial map per row, the images of the placed vertices.  The
    next vertex extends each row through the host neighbours of its first
    placed pattern neighbour (its first anchor), every host vertex if it has
    none, and keeps the candidates adjacent to the images of its other
    anchors, each looked up by one `searchsorted` on the sorted keys
    row * n + column of the host's CSR.  Each extension runs in blocks of
    at most `HOM_BLOCK` candidates, recursing block by block, so memory is
    bounded whatever the count.  The last vertex is not placed: its
    candidates are counted by the size of their set, once per distinct
    tuple of anchor images, times the rows that share it."""
    check_pattern_size(h.n)
    if not h.n:
        return CountResult(1, "backtracking")  # the one empty map
    rows = _rows(h.sparse_adjacency())
    order = _connected_order(rows)
    pos = {v: i for i, v in enumerate(order)}
    # for each step, the pattern neighbors already placed
    back = [[pos[w] for w in rows[v] if pos[w] < i] for i, v in enumerate(order)]
    n = g.n
    if n * n >= 1 << 63:
        raise CountError(f"host of {n} vertices past the int64 key range")
    a = g.sparse_adjacency()
    ptr, idx = a.indptr, a.indices
    # every entry's key, ascending, then one past every key: a lookup's
    # insertion point is always a valid index
    keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(ptr)) * n + idx
    keys = np.append(keys, np.iinfo(np.int64).max)
    last = h.n - 1

    def count(f: np.ndarray, i: int, mult: Optional[np.ndarray] = None) -> int:
        """The maps of the pattern vertices up to `last` that extend the
        rows of `f`, the images of the first i; at the last vertex, each
        row stands for `mult` of them."""
        anchors = back[i]
        if i == last and mult is None:
            if not anchors:
                return len(f) * n
            x = f[:, anchors[0]]
            if len(anchors) == 1:
                return int((ptr[x + 1] - ptr[x]).sum())
            # one row per distinct tuple of anchor images.  Before the third
            # anchor and each one after, the key becomes its rank among the
            # keys, so it stays below len(f) * n <= max(HOM_BLOCK, n) * n
            key = x.astype(np.int64)
            for j, b in enumerate(anchors[1:]):
                if j:
                    key = np.unique(key, return_inverse=True)[1].astype(np.int64, copy=False)
                key = key * n + f[:, b]
            _, first, mult = np.unique(key, return_index=True, return_counts=True)
            return count(f[first], i, mult)
        if anchors:
            x = f[:, anchors[0]]
            shift, d = ptr[x], ptr[x + 1] - ptr[x]
        else:
            shift, d = np.zeros(len(f), dtype=np.int64), np.full(len(f), n, dtype=np.int64)
        cum = np.cumsum(d)
        shift = shift - cum + d  # a candidate's CSR place minus its index
        total = lo = 0
        while lo < len(f):
            base = int(cum[lo - 1]) if lo else 0
            hi = max(lo + 1, int(np.searchsorted(cum, base + HOM_BLOCK, side="right")))
            r = np.repeat(np.arange(lo, hi), d[lo:hi])
            c = np.arange(base, base + len(r)) + shift[r]
            if anchors:
                c = idx[c]
            for b in anchors[1:]:
                k = f[r, b].astype(np.int64) * n + c
                keep = keys[np.searchsorted(keys, k)] == k
                r, c = r[keep], c[keep]
            lo = hi
            if i == last:
                total += int(mult[r].sum())
            elif len(r):
                grown = np.column_stack((f[r], c.astype(f.dtype)))
                del r, c  # only the grown block lives on through the recursion
                total += count(grown, i + 1)
        return total

    return CountResult(count(np.zeros((1, 0), dtype=idx.dtype), 0), "backtracking")


# -- the contraction engine ------------------------------------------------

_EXACT = 2.0**52  # float64 holds every integer up to 2^53


def _sub_pattern(edges: frozenset, others: tuple, fixed: tuple) -> tuple:
    """The sub-pattern a sum step sums out, as `(n, edges, colours)` on
    0..n-1: the pattern `edges` multiplied into the step's inputs, with the
    i-th vertex of the result scope `others` coloured 2(i+1), the j-th
    vertex of `fixed` (the vertices conditioned on so far, each held at one
    host vertex or class) coloured 2(j+3), and a looped vertex's colour
    raised by 1."""
    verts = sorted({u for s in edges for u in s})
    label = {u: i for i, u in enumerate(verts)}
    color = [
        2 * (others.index(u) + 1) if u in others
        else 2 * (fixed.index(u) + 3) if u in fixed
        else 0
        for u in verts
    ]
    for s in edges:
        if len(s) == 1:
            color[label[s[0]]] += 1
    pairs = frozenset((label[s[0]], label[s[1]]) for s in edges if len(s) == 2)
    return len(verts), pairs, tuple(color)


def _plan(variables: frozenset, held: dict, fixed: tuple = ()) -> tuple:
    """Elimination steps for factors on the scopes (sorted variable tuples)
    that `held` maps to the pattern edges multiplied into each.

    Each step sums out the variable whose result has the fewest variables,
    lowest index on ties: ("sum", v, result scope, sub), with `sub` the
    `_sub_pattern` it sums out when the result has axes, else None.  When
    every result would have three or more variables, the plan conditions
    instead, on the variable of that scope found in the most factors, and
    the rest of the plan runs once per host vertex: ("condition", c,
    subplan, uses), with the subplan's factors holding the edges of the
    factors they are sliced from, `fixed` extended by c, and its sum steps
    keyed among themselves (`_keyed`), since each class it runs for has a
    store of its own; `uses` counts the steps that take each key.

    On one 0/1 host, with the fixed vertices held at the same places,
    steps with isomorphic sub-patterns give equal arrays: a factor is the
    sum, over its summed-out vertices, of the product of its pattern edges,
    and a repeated edge changes nothing, since A∘A = A.  The sum also
    weighs each summed-out vertex by its class size (1 on a twin-free
    host).  Every pattern vertex carries exactly one such weight factor,
    so the weights are left out of the sub-pattern: they are no loops,
    and isomorphic sub-patterns still give equal arrays.  The edges come
    from the pattern, not from the factors' scopes: two factors on one
    scope may hold different summed-out sub-patterns.
    """
    variables, held = set(variables), dict(held)
    # each variable's neighbours: the others that share a factor with it
    nbrs = {v: {u for s in held if v in s for u in s} - {v} for v in variables}
    steps = []
    while variables:
        v = min(variables, key=lambda v: (len(nbrs[v]), v))
        others = tuple(sorted(nbrs[v]))
        if len(others) > 2:
            c = max(others, key=lambda u: (sum(u in s for s in held), -u))
            sliced: dict = {}
            for s, edges in held.items():
                rest = tuple(u for u in s if u != c)
                if rest:  # the factor on (c,) is the class's scalar weight
                    sliced[rest] = sliced.get(rest, frozenset()) | edges
            subplan = _plan(variables - {c}, sliced, fixed + (c,))
            keys, uses = _keyed(step[3] for step in subplan if step[0] == "sum")
            steps.append(("condition", c, _key(subplan, keys), uses))
            break
        variables.discard(v)
        for u in others:  # v's factors become one on `others`
            nbrs[u] = (nbrs[u] | nbrs[v]) - {u, v}
        edges = frozenset().union(*[held.pop(s) for s in list(held) if v in s])
        if others:
            held[others] = held.get(others, frozenset()) | edges
        steps.append(("sum", v, others, _sub_pattern(edges, others, fixed) if others else None))
    return tuple(steps)


def _keyed(subs) -> tuple:
    """(keys, uses) for the sub-patterns `subs` (None entries skipped):
    the `_canonical` form of each sub-pattern whose form recurs, and the
    number of entries with each such form."""
    found = [sub for sub in subs if sub]
    forms = {sub: _canonical(*sub) for sub in set(found)}
    uses = Counter(forms[sub] for sub in found)
    uses = {form: c for form, c in uses.items() if c > 1}
    return {sub: form for sub, form in forms.items() if form in uses}, uses


def _key(plan: tuple, keys: dict) -> tuple:
    """`plan` with each sum step's sub-pattern replaced by its key in
    `keys`, None if it has none."""
    return tuple((*step[:3], keys.get(step[3])) if step[0] == "sum" else step for step in plan)


@lru_cache(maxsize=256)
def _schedule(terms: tuple) -> tuple:
    """The terms (n_vars, edges, mu) of a signed sum as (n_vars, plan,
    edges, mu) in evaluation order, each plan keyed, and the number of
    top-level steps that take each key.

    A top-level sum step's key is the `_canonical` form of its sub-pattern
    (`_plan`) when another step of the sum has the same form (`_keyed`);
    the other steps get None.  A condition step's sub-plan comes from
    `_plan` keyed in the same way, among its own steps.  Terms run in ascending order of
    the largest sub-pattern behind a 2-axis step, so the k x k results
    that later terms reuse are built as late as possible and few are held
    at once.
    """
    planned = []
    for n_vars, edges, mu in terms:
        held = {s: frozenset([s]) for s in {tuple(sorted({u, v})) for u, v in edges}}
        planned.append((n_vars, _plan(frozenset(range(n_vars)), held), edges, mu))
    keys, uses = _keyed(step[3] for term in planned for step in term[1] if step[0] == "sum")

    def widest(term):
        sums = [step for step in term[1] if step[0] == "sum" and len(step[2]) == 2]
        return max((step[3][0] for step in sums), default=0)

    order = tuple(
        (n_vars, _key(plan, keys), edges, mu)
        for n_vars, plan, edges, mu in sorted(planned, key=widest)
    )
    return order, uses


class _Shared:
    """The keyed step results of one run of keyed plans, each dropped at
    its last use."""

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


def _sum_out(w: np.ndarray, mats: list):
    """One sum step as one weighted product: `w` the summed-out vertex's
    weight, and `mats` its factors toward the 0 to 2 result axes, each
    with the summed axis first.  `i->` is w.sum(), `ij,i->j` is w @ M and
    `ij,ik,i->jk` is (M1 * w[:, None]).T @ M2."""
    if not mats:
        return w.sum()
    if len(mats) == 1:
        return w @ mats[0]
    return (mats[0] * w[:, None]).T @ mats[1]


def _execute(plan: tuple, factors: dict, n: int, shared: _Shared) -> Optional[int]:
    """Run the keyed `plan` (`_schedule`) over `factors` (scope -> array on n
    host vertices or twin classes per axis, with a weight on every pattern
    vertex).  Returns the exact value, or None as soon as a float factor
    or scalar leaves the certified range, after marking the keyed steps it
    did not reach as used.  A keyed step takes its result from `shared`
    when an earlier step with that key computed it, and passes it through
    `_put` like a fresh one.  A fresh sum over v takes v's weight and its
    factors toward `others`, oriented with v's axis first, as one
    `_sum_out`; when that weight is zero on at least half of the n classes,
    every operand is taken at its nonzero classes only (on a conditioned
    step, w * A[x]: the neighbours of x).  A step that is not of that form
    raises `CountError`.  A condition step's sub-plan runs for each class
    with a store of its own."""
    factors = dict(factors)
    value = 1
    for i, step in enumerate(plan):
        if step[0] == "condition":
            _, c, subplan, uses = step
            total = 0
            for x in range(n):
                sliced = {s: f for s, f in factors.items() if c not in s}
                for s, f in factors.items():
                    if c in s and s != (c,):
                        rest = tuple(u for u in s if u != c)
                        if not _put(sliced, rest, f[x] if s[0] == c else f[:, x]):
                            return None
                weight = _to_int(factors[(c,)][x])
                if weight == 0:
                    continue
                sub = _execute(subplan, sliced, n, _Shared(uses))
                if sub is None:
                    return None
                total += weight * sub
            return value * total
        _, v, others, key = step
        f = None if key is None else shared.arrays.get(key)
        if f is None:
            w = factors.pop((v,), None)
            mats = [factors.pop((v, u) if v < u else (u, v), None) for u in others]
            stray = [s for s in factors if v in s]
            if w is None or len(others) > 2 or any(m is None for m in mats) or stray:
                raise CountError(f"no one-product form for the sum over {v} onto {others}")
            mats = [m if v < u else m.T for m, u in zip(mats, others)]
            if mats:  # sum only over the classes where v's weight is nonzero, if at most half
                support = np.flatnonzero(w)
                if 2 * len(support) <= n:
                    w, mats = w[support], [m[support] for m in mats]
            f = _sum_out(w, mats)
        else:
            for s in [s for s in factors if v in s]:
                del factors[s]
        if key is not None:
            shared.used(key, f)
        if others:
            r = 1 if _put(factors, others, f) else None
        else:
            r = _to_int(f)
        if r is None:  # the steps after this one count as used
            for later in plan[i + 1 :]:
                if later[0] == "sum" and later[3] is not None:
                    shared.used(later[3])
            return None
        value *= r
    return value


def _plan_work(plan: tuple, n: int) -> int:
    """Operations `_execute` spends on the keyed `plan` run alone over n
    host vertices (twin classes, on a quotient): n^(j+1) for a sum step
    whose result has j axes, once per key, since one store serves the
    steps that take it, and the rest of the plan n times over for a
    conditioning, whose sub-plan has a store of its own for each class.
    The count is exact where no step sums over the support of a weight
    alone (`_execute`), and an upper bound where one does, since that
    step's summed axis is shorter than n."""
    work, seen = 0, set()
    for step in plan:
        if step[0] == "condition":
            return work + n * _plan_work(step[2], n)
        key = step[3]
        if key is None or key not in seen:
            work += n ** (len(step[2]) + 1)
        seen.add(key)
    return work


def _edge_factors(n_vars: int, edges, a: np.ndarray, w: np.ndarray) -> dict:
    """The class sizes `w` on each of the n_vars pattern vertices, and one
    factor per pattern edge: `a` on the edge's two vertices, or the
    diagonal of `a` on a loop.  Repeated scopes are multiplied together."""
    factors: dict = {(v,): w for v in range(n_vars)}
    for u, v in edges:
        scope = tuple(sorted({u, v}))
        f = np.diagonal(a) if u == v else a
        factors[scope] = factors[scope] * f if scope in factors else f
    return factors


def _contract_sum(terms: tuple, g: Graph) -> int:
    """Sum of mu * hom(pattern, g) over `terms`, each (n_vars, edges, mu)
    for a pattern on vertices 0..n_vars-1, on the false-twin quotient of g
    (`g.twin_quotient`): its k x k 0/1 adjacency, densified once per call
    (the one dense host matrix in the package), with the class sizes w,
    cast like the adjacency, as a factor on every pattern vertex.  g is
    the blow-up of the quotient, so this is hom(H, g) (Lovasz 2012,
    ch. 5).  A twin-free host is its own quotient, with all-ones class
    sizes, and runs the same steps.

    Each term is the float64 run when certified.  Otherwise the same plan
    reruns on exact integers, refused when estimated past `WORK_BUDGET`
    operations: on int64 when n^n_vars < 2^63, since the weights sum to n
    and every factor entry, product and partial sum counts weighted maps
    of at most n_vars pattern vertices into the k classes; else on Python
    ints.  Each run is one `_execute` of the keyed plan with a store
    (`_Shared`): the first step with a key computes it, the later ones
    take the stored array, and the store drops it at its last use.  The
    float runs of all terms share one store, whose uses `_schedule` counts
    over the whole sum; a float run that exits early marks the keyed steps
    it did not reach as used.  A rerun has a store of its own, and its
    estimate (`_plan_work`) counts each key once at every level, as the
    rerun makes it.
    """
    order, uses = _schedule(terms)
    shared = _Shared(uses)
    _, w, a = g.twin_quotient
    a = a.toarray()
    k = a.shape[0]
    w = w.astype(np.float64)
    total = 0
    for n_vars, plan, edges, mu in order:
        value = _execute(plan, _edge_factors(n_vars, edges, a, w), k, shared)
        if value is None:  # some float factor passed 2^52
            work = _plan_work(plan, k)
            if work > WORK_BUDGET:
                raise BudgetExceededError(
                    f"exact-integer contraction would take ~{work} operations", work
                )
            exact = a.astype(np.int64), w.astype(np.int64)
            if g.n**n_vars >= 2**63:
                exact = tuple(f.astype(object) for f in exact)
            value = _execute(plan, _edge_factors(n_vars, edges, *exact), k, _Shared(uses))
        total += mu * value
    return total


def hom_contract(n_vars: int, edges, g: Graph) -> CountResult:
    """Exact hom(H, g) for the pattern H on vertices 0..n_vars-1 with the
    given edge list ((u, u) is a loop; repeated edges are allowed).

    Pattern vertices are summed out one at a time, lowest resulting width
    first, each step one weighted product (`_sum_out`) over float64
    factors: the adjacency of g's twin quotient on each pattern edge and
    the class sizes on each pattern vertex, all ones on a twin-free host
    (`_contract_sum`).  A step sums its vertex's weight, or its weighted
    factors toward one or two result axes.  No factor ever has
    more than two class axes: where every elimination would need three,
    the engine conditions on one pattern vertex instead, loops over its k
    classes and adds up the exact integer results, each times the class
    size.  Within one class, steps that sum out isomorphic sub-patterns
    compute one array (`_schedule`).

    Exactness is certified by the data, not by an a-priori bound.  Inputs,
    class sizes included, are nonnegative integers, so every partial sum
    or product that reaches an output entry is at most that entry.  Float64
    computes each partial exactly while it stays at most 2^52; rounding is
    monotone and 2^52 + 1 is a float, so the first partial past 2^52 leaves
    its output entry past 2^52 as well.  Hence if every factor the engine
    keeps, and every scalar, is at most 2^52, every float step was exact.
    (A partial that reaches no output was multiplied by 0, and is finite
    because each step's inputs are at most 2^52.)  The argument holds for
    any association of a step's products and sums, so `_sum_out` may fold
    the weight into either matrix and the product may sum in any order; the
    integer reruns are exact in any order.  A step that sums only
    over the classes where its vertex's weight is nonzero (`_execute`) drops
    terms that are exact zeros: it gives the same output entries, and its
    partial sums are still at most their entry, so the argument holds.
    Otherwise the same plan is rerun once on int64 when
    n^n_vars < 2^63, else on object arrays of Python ints; a rerun
    estimated past `WORK_BUDGET` operations (about k^3 per step, k times
    that under each conditioning) raises `BudgetExceededError` before it
    starts.  The edges are read once, so any iterable will do; an end
    that is not an integer (`operator.index`) raises `CountError`.
    """
    if n_vars < 0:
        raise CountError(f"pattern vertex count {n_vars} < 0")
    pairs = []
    for u, v in edges:
        try:
            u, v = operator.index(u), operator.index(v)
        except TypeError:
            raise CountError(f"pattern edge ({u!r}, {v!r}) has a non-integer end") from None
        if not (0 <= u < n_vars and 0 <= v < n_vars):
            raise CountError(f"pattern edge ({u}, {v}) outside 0..{n_vars - 1}")
        pairs.append((u, v))
    term = (n_vars, tuple(pairs), 1)
    return CountResult(_contract_sum((term,), g), "contraction")


def closed_walk_count(g: Graph, length: int) -> CountResult:
    """Exact number of closed walks of the given length: hom(C_L, g), with
    C_1 a loop and C_2 a double edge."""
    if length < 1:
        raise CountError("walk length must be >= 1")
    term = (length, tuple((i, (i + 1) % length) for i in range(length)), 1)
    return CountResult(_contract_sum((term,), g), "trace-power")


# -- codegree counters -----------------------------------------------------


def wedge_bound(n: int, m: int) -> int:
    """Chiba-Nishizeki's 2m * ceil(sqrt(2m + n) / 2) on a host with n
    vertices and m edges, which bounds `wedge_work`, the sum over edges uv
    of min(d_u, d_v), since that sum is at most 2m times the arboricity and
    the arboricity is at most ceil(sqrt(2m + n) / 2)."""
    root = math.isqrt(2 * m + n)
    root += root * root < 2 * m + n  # ceil(sqrt(2m + n))
    return 2 * m * ((root + 1) // 2)


def codegree_work(n: int, t: int, classes: int) -> int:
    """Up-front bound on the classes `count_ktt` tries at t >= 3 on a host
    with n vertices and `classes` false-twin classes: the sum over d = 1..t
    of C(min(classes + d - 1, n), d).  A try adds one class past every class
    chosen so far, so distinct tries are distinct multisets of 1..t classes,
    C(classes + d - 1, d) of size d; a class occurs in one at most as often
    as it has vertices, so those of size d are at most the d-subsets of the
    vertices."""
    return sum(math.comb(min(classes + d - 1, n), d) for d in range(1, t + 1))


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


def count_ktt(g: Graph, t: int) -> CountResult:
    """Exact number of unlabeled K_{t,t} copies, by codegrees.

    t = 2: `_count_c4`, which takes `wedge_work(g)` steps; the count is
    refused up front when that exceeds `WORK_BUDGET`.

    t >= 3: (1/2) * sum over t-subsets S of C(codeg(S), t), with codeg(S)
    the common-neighborhood size.  Each copy is counted once per side; loops
    are impossible, so a subset is always disjoint from its common
    neighborhood and the two sides of a copy are distinct subsets, giving
    exactly the factor 2.  Twins have one neighbourhood, and a common
    neighbourhood is a union of twin classes (`g.twin_quotient`), so the
    sum runs over the classes: a choice of k_i >= 1 vertices from classes
    i stands for prod C(w_i, k_i) subsets, and codeg is the total size w
    of the classes adjacent to every chosen one.  The choices are
    enumerated over the quotient's neighbourhood bitmasks (bit j of class
    i's mask set iff the classes are adjacent) in colex-style recursive
    order, with early termination once the running common neighborhood
    drops below t; the last vertex is one pass over a table of C(c, t).  On a twin-free host
    every w_i is 1 and this is the subset recursion over vertices.  It is
    refused up front when `codegree_work`, its tries, exceeds `WORK_BUDGET`.
    """
    if t < 2:
        raise CountError("count_ktt needs t >= 2")
    if t == 2:
        work = wedge_work(g)
        if work > WORK_BUDGET:
            raise BudgetExceededError(f"count_ktt would take {work} wedge steps", work)
        return CountResult(_count_c4(g), "codegree")
    _, w, a = g.twin_quotient
    k = len(w)
    estimate = codegree_work(g.n, t, k)
    if estimate > WORK_BUDGET:
        raise BudgetExceededError(f"count_ktt would try ~{estimate} classes", estimate)
    bits = [sum(1 << j for j in row) for row in _rows(a)]
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

    def rec(start: int, need: int, common: int, ways: int):
        # `need` more vertices to choose from classes start.., after choices
        # that stand for `ways` subsets with common neighbourhood `common`
        nonlocal doubled
        if need == 1:
            doubled += ways * sum(wi * choose[size(common & b)] for wi, b in last[start:])
            return
        for i in range(start, k):
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
    check_pattern_size(h.n)
    terms = _quotients(h.n, h.edges)
    return CountResult(_contract_sum(terms, g), "walk-moebius")


def aut_order(h: Graph) -> int:
    return inj_count(h, h).value


# the C_2t patterns, built once each; a `Graph` is read-only
_cycle = lru_cache(maxsize=8)(cycle)


def count_c2t(g: Graph, t: int) -> CountResult:
    """Exact number of unlabeled 2t-cycles.

    A host with fewer than 2t vertices or edges has none, at any t.
    t=2: C_4 = K_{2,2}, so `count_ktt`'s degree-ordered codegree count:
    the sum, over vertices v and lower-ranked w, of C(c, 2) with c the
    common neighbours of v and w ranked below v.  t>=3: `inj_count` of
    C_2t divided by |Aut(C_2t)| = 4t, so `PATTERN_LIMIT` refuses t >= 6
    before the quotient table is built.
    `WORK_BUDGET` caps `count_ktt`'s wedge work at t=2 and each
    quotient's exact-integer rerun at t>=3.

    The cycle's quotients are one `_contract_sum` on g's twin quotient, k
    classes: their plans share every k x k (and k-vector) step result whose
    summed-out sub-pattern repeats, such as the A^2 that six of C_6's
    quotients build eight times in all, and each shared array is dropped at
    its last use.  The terms run in ascending order of the largest
    sub-pattern behind a 2-axis step, so few shared k x k arrays are alive
    at once.  A quotient whose float run leaves the certified range reruns
    alone on exact integers.
    """
    if t < 2:
        raise CountError("count_c2t needs t >= 2")
    if g.n < 2 * t or g.edge_count < 2 * t:
        return CountResult(0, "codegree" if t == 2 else "walk-moebius")
    if t == 2:
        return count_ktt(g, 2)
    inj = inj_count(_cycle(2 * t), g).value
    if inj % (4 * t):
        raise CountError(f"inj(C_{2 * t}) = {inj} is not divisible by {4 * t}")
    return CountResult(inj // (4 * t), "walk-moebius")
