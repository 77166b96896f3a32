"""Eigen and operator-norm computation.

Perron data (spectral radius + unit nonnegative eigenvector), exact split-graph
spectral radii, p->q operator norms by nonlinear power iteration, bipartite
top-singular data, and vertex-cut diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .graphs import Graph, GraphError, SplitSpec, SslabError, component_groups


class SpectraError(SslabError):
    pass


class NoEdgesError(SpectraError):
    pass


class ConvergenceError(SpectraError):
    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class RegimeError(SpectraError):
    pass


# the default relative residual of every Perron solve (perron, opnorm,
# check_suite, the CLI's --tol), the iteration cap of every solver here,
# and opnorm's starts after the all-ones one: the Perron one, then random
TOL = 1e-10
_MAX_ITER = 100000
_RESTARTS = 3

# perron prefers a later component only when its lam is larger by more than
# 1e-12, so `PerronBlocks.delete_edge`'s fast path needs the winner ahead by
# far more than that plus the solver's noise in lam
_TIE_MARGIN = 1e-9


@dataclass(frozen=True)
class PerronData:
    """Spectral radius and Perron vector of a graph.

    `x` is supported on `component`, the sorted vertex tuple of the component
    that attains `lam`.  `iterations` counts the solver iterations spent
    producing this data; a block whose memo answered adds 0, since no
    solver ran.  `margin` is lam minus the largest spectral radius among the
    other components that have an edge (inf when there is none); deleting an
    edge outside this component can only lower the others, so it cannot
    shrink.  Two solves are equal when every field but `iterations` is, `x`
    compared by its bytes.  `iterations` is a work counter, not part of the
    result: ARPACK's matvec count on one CSR can differ between two runs in
    one process (OpenBLAS picks its kernels at run time) while lam, x and
    the residual keep their bits.
    """

    lam: float
    x: np.ndarray  # unit nonnegative, supported on one component
    component: tuple[int, ...]
    residual: float  # relative: ||Ax - lam x|| / max(1, lam)
    iterations: int
    margin: float = math.inf

    def _identity(self) -> tuple:
        x = self.x
        return (self.lam, x.dtype.str, x.shape, x.tobytes(), self.component,
                self.residual, self.margin)

    def __eq__(self, other):
        if not isinstance(other, PerronData):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self):
        return hash(self._identity())


def _power_iterate(adj, x, tol: float):
    """Power iteration on A + I (the shift removes bipartite oscillation)
    from the unit nonnegative start x.

    `adj` is anything supporting `adj @ x`: a dense block, or a CSR when
    the Lanczos solve falls back.  Each step makes one product, A x of the
    new iterate, which gives lam and the residual and starts the next
    step.  Returns (lam, x, residual, iters).
    """
    lam = 0.0
    residual = math.inf
    ax = adj @ x
    for it in range(1, _MAX_ITER + 1):
        y = ax + x
        ny = math.sqrt(y @ y)  # np.linalg.norm's sum for a real vector
        if ny == 0:
            break
        x = y / ny
        ax = adj @ x  # for lam and the residual here, and the next step
        lam = float(x @ ax)
        # relative residual: the absolute one bottoms out at the float
        # summation noise floor (~ n * eps * lam) on large hosts
        r = ax - lam * x
        residual = math.sqrt(r @ r) / max(1.0, lam)
        if residual <= tol:
            return lam, x, residual, it
    raise ConvergenceError(
        f"power iteration did not reach tol={tol} in {_MAX_ITER} iterations",
        residual,
    )


@cache
def _csr_operator():
    """The `LinearOperator` type `_lanczos_top` hands to `eigsh`, made on
    first use so that importing this module leaves `scipy.sparse.linalg`
    unloaded, and made once: a class per solve costs memory in every
    pruning step."""
    from scipy.sparse import _sparsetools
    from scipy.sparse.linalg import LinearOperator

    class CsrOperator(LinearOperator):
        """A float64 CSR matrix `a` as an operator whose `matvec` counts its
        products in `matvecs`.  ARPACK calls `matvec` directly, so each
        product skips `LinearOperator.matvec`'s shape checks and the
        `csr_matrix.dot` dispatch and runs the kernel that `dot` ends in,
        `_sparsetools.csr_matvec`, into a zeroed vector: the bits of
        `a.dot(v)`.  That kernel is private scipy API;
        `test_lanczos_counts_matvecs_and_keeps_the_csr_solve_bits` holds
        the solve to `eigsh` on the CSR itself."""

        def __init__(self, a):
            super().__init__(dtype=np.dtype(float), shape=a.shape)
            self.csr = (*a.shape, a.indptr, a.indices, a.data)
            self.matvecs = 0

        def matvec(self, v):
            self.matvecs += 1
            y = np.zeros(self.shape[0])
            _sparsetools.csr_matvec(*self.csr, v, y)
            return y

        _matvec = matvec  # LinearOperator warns on a subclass without one

    return CsrOperator


def _lanczos_top(adj, v0, tol: float):
    """Top eigenpair of a large sparse component via Lanczos iteration from
    the unit nonnegative start v0; the iteration count is the solver's
    matvecs.

    Power iteration stagnates at a rounding floor amplified by 1/gap on big
    hosts; the Lanczos solve reaches machine-precision residuals.  Falls back
    to plain power iteration if the solver does not converge, and then
    counts the solver's matvecs plus the power iterations.
    """
    from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, eigsh

    op = _csr_operator()(adj)

    def fall_back(start):
        lam, x, residual, iters = _power_iterate(adj, start, tol)
        return lam, x, residual, op.matvecs + iters

    try:
        vals, vecs = eigsh(op, k=1, which="LA", v0=v0, tol=0)
    except (ArpackError, ArpackNoConvergence):
        return fall_back(v0)
    x = vecs[:, 0]
    if x.sum() < 0:
        x = -x
    np.clip(x, 0.0, None, out=x)
    nx = np.linalg.norm(x)
    if nx == 0:
        return fall_back(v0)
    x /= nx
    ax = adj @ x
    lam = float(x @ ax)
    residual = float(np.linalg.norm(ax - lam * x)) / max(1.0, lam)
    if residual > tol:
        return fall_back(x / np.linalg.norm(x))
    return lam, x, residual, op.matvecs


class _Block:
    """One component of a graph: its sorted vertex array `idx` and its block
    `a` of the CSR adjacency, `sparse_adjacency()[idx][:, idx]`, or the CSR
    itself when the component holds every vertex.  Each solve
    picks its solver by the block's current size: dense power iteration up
    to 64 vertices, Lanczos above.

    The block remembers its last solve: the exact bytes of the start vector,
    tol and the result.  The solve is a pure function of those and the
    block, so a call that builds the same start bytes gets a copy of the
    stored result, with 0 iterations, and no solver runs.  Warm re-solves
    from the previous x reach a bitwise fixed point on star-like blocks, so
    `heavy_prune` deleting edges outside such a component hits this memo on
    almost every step.  `delete` forgets it."""

    def __init__(self, a, comp: Sequence[int]):
        self.idx = np.asarray(comp, dtype=np.intp)
        # a connected graph's block is its CSR, shared: `delete` builds new
        # arrays and writes none of a's
        self.a = a if len(self.idx) == a.shape[0] else a[self.idx][:, self.idx]
        self._last = None  # ((start bytes, tol), solver result)

    @property
    def component(self) -> tuple[int, ...]:
        return tuple(self.idx.tolist())

    def _solve(self, start, tol: float):
        if len(self.idx) > 64:
            return _lanczos_top(self.a, start, tol)
        return _power_iterate(self.a.toarray(), start, tol)

    def solve(self, x0, tol: float):
        """(lam, xs, residual, iterations), warm-started from x0 restricted
        to the component when that slice is nonnegative and not ~0, else
        started from the uniform vector."""
        start = np.full(len(self.idx), 1.0 / math.sqrt(len(self.idx)))
        if x0 is not None:
            cand = np.asarray(x0, dtype=float)[self.idx]
            if np.all(cand >= 0) and np.linalg.norm(cand) > 1e-8:
                start = cand / np.linalg.norm(cand)
        key = (start.tobytes(), tol)
        hit = self._last is not None and self._last[0] == key
        if not hit:
            self._last = (key, self._solve(start, tol))
        lam, xs, res, iters = self._last[1]
        return lam, xs.copy(), res, 0 if hit else iters

    def unit_vector(self, n: int, xs: np.ndarray) -> np.ndarray:
        """xs clipped at 0 and normalized, on this component of an n-vector."""
        xs = np.maximum(xs, 0.0)
        x = np.zeros(n)
        x[self.idx] = xs / np.linalg.norm(xs)
        return x

    def find(self, u: int, v: int) -> tuple[int, int, list[int]]:
        """(i, j, positions of the CSR entries (i, j) and (j, i)) for the
        edge uv of this block, else `SpectraError`."""
        idx, ptr, ind = self.idx, self.a.indptr, self.a.indices
        # Python ints and array methods: every deletion pays this lookup
        i, j = (min(k, len(idx) - 1) for k in idx.searchsorted((u, v)).tolist())
        at = []
        for row, col in ((i, j), (j, i)):
            lo, hi = ptr[row : row + 2].tolist()
            at.append(lo + int(ind[lo:hi].searchsorted(col)))
            if at[-1] == hi or ind[at[-1]] != col:
                at.pop()
        if len(at) < 2 or idx[i] != u or idx[j] != v:
            raise SpectraError(f"no edge {(u, v)} in this component")
        return i, j, at

    def delete(self, u: int, v: int) -> list[_Block]:
        """The blocks of this component less the edge uv: this block, with
        the edge's two CSR entries masked out and a vertex the deletion
        isolates dropped, or else the pieces it splits into, each sliced
        from it.  Each is `sparse_adjacency()[idx][:, idx]` of the graph
        without uv, bit for bit."""
        i, j, at = self.find(u, v)
        idx, ptr, ind = self.idx, self.a.indptr, self.a.indices
        keep = np.ones(len(ind), dtype=bool)
        keep[at] = False
        ind, data, ptr = ind[keep], self.a.data[keep], ptr.copy()
        ptr[i + 1:] -= 1
        ptr[j + 1:] -= 1
        lone = [k for k in (i, j) if ptr[k] == ptr[k + 1]]
        if len(lone) == 2:  # the component was the edge alone
            return []
        if lone:  # a pendant: drop its empty row and column
            k = lone[0]
            idx = np.delete(idx, k)
            ind[ind > k] -= 1
            ptr = np.delete(ptr, k + 1)
        self.idx, self._last = idx, None
        self.a = csr_matrix((data, ind, ptr), shape=(len(idx), len(idx)))
        if lone:  # a graph less a pendant vertex stays connected
            return [self]
        groups = component_groups(self.a)
        if len(groups) == 1:
            return [self]
        # no piece is an isolated vertex: neither endpoint was left without an edge
        pieces = [_Block(self.a, local) for local in groups]
        for piece in pieces:
            piece.idx = idx[piece.idx]
        return pieces


class PerronBlocks:
    """The Perron data `pd` of a graph that loses one edge at a time.  Each
    component with an edge is one `_Block`, kept across deletions, so a
    component that no deletion touched answers a repeated start from its
    memo.

    `PerronBlocks(g, tol, x0).pd` is `perron(g, tol, x0)`.  After
    `delete_edge(u, v)`, `pd` is what `perron` of the graph less uv returns
    from x0 = the previous pd.x.  When the edge lies outside pd's component
    and that component leads every other by more than _TIE_MARGIN relative
    to lam, the deletion is only recorded and pd's block alone is re-solved
    from pd.x: the deletion cannot raise another component's lam, so
    `perron` would choose the same component, compute the same lam and x on
    it and see the same rival.  Recorded deletions are applied when a full
    solve next needs the blocks.
    """

    def __init__(self, g: Graph, tol: float = TOL, x0: Optional[np.ndarray] = None):
        a = g.sparse_adjacency()
        self.n, self.tol = g.n, tol
        self._blocks = [_Block(a, comp) for comp in g.components if len(comp) > 1]
        # the block of each vertex with an edge, as its position in _blocks;
        # a block that is replaced stays in the list as None
        self._owner = np.full(g.n, -1, dtype=np.intp)
        for k, block in enumerate(self._blocks):
            self._owner[block.idx] = k
        self._pending: dict[tuple[int, int], None] = {}  # recorded, in order
        self._solve(x0)

    def blocks(self) -> list[_Block]:
        """The live blocks, every recorded deletion applied, in the order
        of their smallest vertex (the order of `Graph.components`)."""
        for u, v in self._pending:
            k = self._owner[u]
            block = self._blocks[k]
            pieces = block.delete(u, v)
            if pieces == [block]:
                continue
            self._blocks[k] = None
            for piece in pieces:
                self._owner[piece.idx] = len(self._blocks)
                self._blocks.append(piece)
        self._pending.clear()
        return sorted(filter(None, self._blocks), key=lambda b: b.idx[0])

    def _solve(self, x0) -> PerronData:
        """Every block solved from x0, and the largest lam chosen, ties to
        the first block."""
        best, lams, total_iters = None, [], 0
        for block in self.blocks():
            lam, xs, res, iters = block.solve(x0, self.tol)
            lams.append(lam)
            total_iters += iters
            if best is None or lam > best[0] + 1e-12:
                best = (lam, block, xs, res)
        if best is None:  # no component has an edge
            raise NoEdgesError("perron requires at least one edge")
        lam, block, xs, res = best
        lams.remove(lam)
        margin = lam - max(lams, default=-math.inf)
        self._best = block
        self.pd = PerronData(lam, block.unit_vector(self.n, xs), block.component,
                             res, total_iters, margin)
        return self.pd

    def delete_edge(self, u: int, v: int) -> PerronData:
        """Delete the edge uv and return the new `pd`.  uv must be an edge
        now: in its block's CSR and not already recorded, else
        `SpectraError` and nothing changes."""
        u, v = min(u, v), max(u, v)
        k = self._owner[u] if 0 <= u and v < self.n else -1
        block = self._blocks[k] if k >= 0 else None
        if block is None or (u, v) in self._pending:
            raise SpectraError(f"no edge {(u, v)} in the graph")
        block.find(u, v)  # raises unless v is u's neighbour in the block
        self._pending[u, v] = None
        pd = self.pd
        if block is self._best or pd.margin <= _TIE_MARGIN * max(1.0, pd.lam):
            return self._solve(pd.x)
        lam, xs, res, iters = self._best.solve(pd.x, self.tol)
        rival = pd.lam - pd.margin
        self.pd = PerronData(lam, self._best.unit_vector(self.n, xs), pd.component,
                             res, iters, lam - rival)
        return self.pd


def perron(g: Graph, tol: float = TOL, x0: Optional[np.ndarray] = None) -> PerronData:
    """Spectral radius and unit nonnegative Perron vector.

    On disconnected input the component attaining the maximum spectral radius
    is chosen (ties broken by smallest component id) and x is zero elsewhere.
    Each component is solved on its block of the CSR adjacency, warm-started
    from x0 restricted to it when that slice is usable, and x is normalized
    on the chosen component, so lam and x there are the same as for that
    component alone.  This is the first solve of `PerronBlocks`, which
    `heavy_prune` keeps for the deletions that follow.
    """
    return PerronBlocks(g, tol, x0).pd


# -- split graphs ----------------------------------------------------------


def split_lambda(k: int, m: int) -> float:
    """Exact spectral radius of the split graph S_{k,m}.

    Divisible case (r=0): closed form (k-1+sqrt(4m-k^2+1))/2.  Otherwise the
    largest eigenvalue of the equitable-quotient matrix for the classes
    {r attached clique vertices, k-r other clique vertices, extra vertex,
    q independent vertices}.
    """
    if m < 1:
        raise GraphError("split_lambda needs m >= 1")
    spec = SplitSpec(k, m)
    q, r = spec.q, spec.r
    if r == 0:
        if q == 0:
            return float(k - 1)
        return (k - 1 + math.sqrt(4 * m - k * k + 1)) / 2
    # class sizes: r, k-r, 1, q; entry [i][j] = neighbors in class j of a
    # vertex in class i.  Drop the independent class when q = 0.
    rows = [
        [r - 1, k - r, 1, q],
        [r, k - r - 1, 0, q],
        [r, 0, 0, 0],
        [r, k - r, 0, 0],
    ]
    keep = [0, 1, 2] + ([3] if q > 0 else [])
    b = np.array([[rows[i][j] for j in keep] for i in keep], dtype=float)
    eig = np.linalg.eigvals(b)
    return float(np.max(eig.real))


# -- p -> q operator norms -------------------------------------------------


@dataclass(frozen=True)
class OpNormEstimate:
    p: float
    q: float
    value: float
    witness: np.ndarray  # ||witness||_p = 1
    converged: bool
    restarts_used: int


def _dual_power(y: np.ndarray, s: float) -> np.ndarray:
    return np.sign(y) * np.abs(y) ** (s - 1)


def opnorm(g: Graph, p: float, q: float, pd: PerronData, tol: float = TOL) -> OpNormEstimate:
    """Certified lower bound on the p->q operator norm of the adjacency matrix.

    Regime 1 < p <= 2 <= q < infinity.  Nonlinear power iteration with
    alternating dual-exponent sign-power maps from strictly positive starts
    (all-ones, g's Perron vector from the caller's solve `pd`, and random
    ones); for nonnegative matrices in this regime the iterate values are
    monotone nondecreasing, so the best witness over all restarts is
    returned.  At p = q = 2 the norm is `pd`'s spectral radius.
    """
    if not (1 < p <= 2 <= q < math.inf):
        raise RegimeError(f"(p,q)=({p},{q}) outside 1 < p <= 2 <= q < inf")
    if g.edge_count == 0:
        raise NoEdgesError("opnorm requires at least one edge")
    if p == 2 and q == 2:
        return OpNormEstimate(p, q, pd.lam, pd.x.copy(), True, 0)
    a, n, p_conj = g.sparse_adjacency(), g.n, p / (p - 1)
    rng = np.random.default_rng(12345)
    best_val, best_x, converged = -1.0, None, False
    starts = [np.ones(n), pd.x + 1e-6]
    starts += [rng.uniform(0.5, 1.5, size=n) for _ in range(_RESTARTS - 1)]
    for x in starts:
        x = np.abs(x)
        x /= np.linalg.norm(x, ord=p)
        prev = -1.0
        ok = False
        for _ in range(_MAX_ITER):
            y = a @ x
            val = float(np.linalg.norm(y, ord=q))
            # monotone by construction; a drift below that by a relative
            # 1e-12 is roundoff, which grows with the value
            if val < prev - 1e-12 * max(1.0, prev):
                raise SpectraError("opnorm iterate value decreased")
            if prev >= 0 and val - prev < tol:
                ok = True
                break
            prev = val
            z = a @ _dual_power(y, q)
            x = _dual_power(z, p_conj)
            nx = np.linalg.norm(x, ord=p)
            if nx == 0:
                break
            x /= nx
        val = float(np.linalg.norm(a @ x, ord=q))
        if val > best_val:
            best_val, best_x, converged = val, x.copy(), ok
    return OpNormEstimate(p, q, best_val, best_x, converged, len(starts))


# -- bipartite incidence singular data -------------------------------------


def incidence_matrix(rows: Sequence[int], cols: Sequence[int], g: Graph):
    """The rows x cols 0/1 incidence matrix of g (the row cover's A x D): a
    slice of its CSR on the sorted, distinct, range-checked sides, which
    must be disjoint."""
    rows, cols = g.vertex_list(set(rows)), g.vertex_list(set(cols))
    both = set(rows) & set(cols)
    if both:
        raise SpectraError(f"A and D sides must be disjoint: vertex {min(both)} is in both")
    return g.sparse_adjacency()[rows][:, cols]


def top_singular(m):
    """Top singular triple (sigma1, v_right, u_left) of the incidence matrix
    m: power iteration on the exact integer Gram M^T M from the all-ones
    start, which picks a nonnegative vector even with a tied top value."""
    n_rows, n_cols = m.shape
    if not n_rows or not n_cols:
        raise SpectraError("top_singular: empty rows or cols")
    v = np.full(n_cols, 1.0 / math.sqrt(n_cols))
    if m.nnz == 0:
        return 0.0, v, np.full(n_rows, 1.0 / math.sqrt(n_rows))
    dense = m.toarray()
    mt_m = dense.T @ dense
    sig2 = 0.0
    for _ in range(_MAX_ITER):
        w = mt_m @ v  # not 0: v >= 0 is positive on a column of M with an entry
        v_new = w / np.linalg.norm(w)
        sig2_new = float(v_new @ (mt_m @ v_new))
        step = abs(sig2_new - sig2)
        v, sig2 = v_new, sig2_new
        if step <= 1e-14 * max(1.0, sig2):
            break
    else:
        raise ConvergenceError(
            f"top_singular: power iteration did not settle in {_MAX_ITER} iterations",
            step / max(1.0, sig2),
        )
    sigma1 = math.sqrt(max(sig2, 0.0))
    mv = dense @ v  # not 0 either, for the same reason
    return sigma1, v, mv / np.linalg.norm(mv)


# -- vertex-cut diagnostics ------------------------------------------------


@dataclass(frozen=True)
class CutDiagnostics:
    lam: float
    lam_u: float
    lam_w: float
    rho: float
    m_uw: int
    mu_u: float
    slack_a: float
    slack_b: float
    slack_c: Optional[float]  # None when the denominator vanishes


def _sub_lambda(g: Graph, vertices: Sequence[int]) -> float:
    sub = g.induced_subgraph(vertices)
    if sub.edge_count == 0:
        return 0.0
    return perron(sub).lam


def cut_diagnostics(g: Graph, u_set: Sequence[int], pd: PerronData) -> CutDiagnostics:
    """Diagnostics for the vertex cut (U, W): slacks of
    (a) lam <= max(lam_U, lam_W) + rho,
    (b) (lam - lam_U)(lam - lam_W) <= rho^2  (and rho^2 <= m_UW),
    (c) mu(U) <= rho^2 / ((lam - lam_U)^2 + rho^2) when the denominator > 0.
    """
    u = sorted(set(u_set))
    w = sorted(set(range(g.n)).difference(u))
    if not u or not w:
        raise SpectraError("cut_diagnostics: trivial partition")
    lam = pd.lam
    lam_u = _sub_lambda(g, u)
    lam_w = _sub_lambda(g, w)
    m = incidence_matrix(u, w, g)
    m_uw = m.nnz
    rho = top_singular(m)[0]
    mu_u = float(sum(pd.x[v] ** 2 for v in u))
    slack_a = max(lam_u, lam_w) + rho - lam
    slack_b = rho * rho - (lam - lam_u) * (lam - lam_w)
    denom = (lam - lam_u) ** 2 + rho * rho
    slack_c = rho * rho / denom - mu_u if denom > 1e-300 else None
    return CutDiagnostics(lam, lam_u, lam_w, rho, m_uw, mu_u, slack_a, slack_b, slack_c)
