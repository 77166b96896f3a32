"""The supersaturation pipeline: heavy-edge pruning with a gap trace,
localization diagnostics, the level-set A/C/D partition, aligned-row and
row-cover analysis, and the branch-dispatching counting driver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .graphs import Graph, SslabError, SplitSpec, complete_bipartite, cycle
from .homcounts import (
    CountResult,
    check_pattern_size,
    codegree_work,
    count_c2t,
    count_ktt,
    wedge_bound,
)
from .sidorenko import c2t_copy_lower, constants, gnm_expected_ktt, ktt_copy_lower
from .spectra import PerronBlocks, PerronData, incidence_matrix, split_lambda, top_singular


class SupersatError(SslabError):
    pass


class NotHeavyError(SupersatError):
    def __init__(self, message: str, violations: list):
        super().__init__(message)
        self.violations = violations


class TooDelocalizedError(SupersatError):
    def __init__(self, message: str, k_levels: int, index_set: list):
        super().__init__(message)
        self.k_levels = k_levels
        self.index_set = index_set


# -- heavy-edge pruning ----------------------------------------------------

@dataclass(frozen=True)
class PruneStep:
    edge: tuple[int, int]
    m_i: int  # edges before this deletion
    lambda_i: float
    split_ref: float  # split_lambda(t-1, m_i)
    delta_i: float  # lambda_i - split_ref
    product: float  # x_u x_v of the deleted edge


@dataclass(frozen=True)
class PruneTrace:
    eta: float
    t: int
    steps: tuple[PruneStep, ...]
    initial_m: int
    initial_lambda: float
    final_graph: Graph
    final_perron: Optional[PerronData]
    alpha: float  # m' / m
    gap_ratio: Optional[float]  # lambda(H) / sqrt(m')
    emptied: bool


def _prune_eta(t: int, eta: Optional[float]) -> float:
    """The pruning threshold `eta`, 1/(16t) when None; `SupersatError`
    unless it lies in (0, 1/4)."""
    if eta is None:
        eta = 1.0 / (16 * t)
    if not (0 < eta < 0.25):
        raise SupersatError("eta must lie in (0, 1/4)")
    return eta


def heavy_prune(
    g: Graph, t: int, eta: Optional[float] = None, *, _blocks: Optional[PerronBlocks] = None
) -> PruneTrace:
    """Delete light edges one at a time until every surviving edge uv has
    Perron product x_u x_v >= eta / sqrt(m).

    Among violating edges the one with the smallest float product is
    deleted: the first minimum in edge (lexicographic) order.  Products
    that tie in exact arithmetic may differ in their last bits after a warm
    re-solve, so rounding, not edge order, may pick among them.  The loop
    runs on g's edge array with an alive mask, and builds the final graph
    once.  After every deletion `spectra.PerronBlocks` gives the same
    Perron data as a full `perron` warm started from the previous x: it
    keeps each component's block
    across deletions, changes only the block that lost the edge, and
    re-solves the Perron component's block alone while the deletions stay
    outside it.  `supersat_count` passes the fresh `PerronBlocks(g)` it read
    the split threshold off as `_blocks`, so a pipeline solves g once.
    """
    if t < 2:
        raise SupersatError("t must be >= 2")
    eta = _prune_eta(t, eta)
    if g.edge_count < 1:
        raise SupersatError("input graph has no edges")
    m0 = g.edge_count
    e = g.edge_array
    alive = np.ones(m0, dtype=bool)
    steps: list[PruneStep] = []
    blocks = PerronBlocks(g) if _blocks is None else _blocks
    pd = blocks.pd
    lam0 = pd.lam
    while True:
        m_i = m0 - len(steps)
        prods = _products(e, pd.x)
        prods[~alive] = np.inf
        i = int(np.argmin(prods))  # the first minimum in edge order
        if not prods[i] < eta / math.sqrt(m_i):
            break
        (u, v), prod = e[i].tolist(), float(prods[i])
        ref = split_lambda(t - 1, m_i) if SplitSpec.exists(t - 1, m_i) else 0.0
        steps.append(
            PruneStep(
                edge=(u, v),
                m_i=m_i,
                lambda_i=pd.lam,
                split_ref=ref,
                delta_i=pd.lam - ref,
                product=prod,
            )
        )
        alive[i] = False
        if m_i == 1:
            pd = None
            break
        pd = blocks.delete_edge(u, v)
    m_prime = m0 - len(steps)
    gap_ratio = pd.lam / math.sqrt(m_prime) if pd else None
    return PruneTrace(
        eta=eta,
        t=t,
        steps=tuple(steps),
        initial_m=m0,
        initial_lambda=lam0,
        final_graph=Graph(g.n, e[alive]) if steps else g,
        final_perron=pd,
        alpha=m_prime / m0,
        gap_ratio=gap_ratio,
        emptied=m_prime == 0,
    )


def _products(e: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The Perron product x_u x_v of each edge of the edge array e."""
    return x[e[:, 0]] * x[e[:, 1]]


def heavy_violations(g: Graph, pd: PerronData, eta: float) -> list:
    e = g.edge_array
    prod = _products(e, pd.x)
    bad = np.flatnonzero(prod < eta / math.sqrt(g.edge_count))
    return [(u, v, p) for (u, v), p in zip(e[bad].tolist(), prod[bad].tolist())]


# -- localization diagnostics ----------------------------------------------


def localization_g(pd: PerronData, m: int) -> float:
    if m < 1:
        raise SupersatError("m must be >= 1")
    return float(np.max(pd.x)) * m**0.25


# -- level-set A/C/D partition ---------------------------------------------


@dataclass(frozen=True)
class AcdPartition:
    a_set: tuple[int, ...]
    c_set: tuple[int, ...]
    d_set: tuple[int, ...]
    sup_norm: float  # L = ||x||_inf
    g_loc: float  # L m^{1/4}
    g_tilde: float  # g / sqrt(eta)
    k_levels: int  # K = ceil(2 log2 g_tilde) + 1
    ell: int  # ceil(log2 K)
    index_set: tuple[int, ...]  # I
    s_sums: dict  # i -> S_i
    i_star: int
    s_threshold: float  # theta_{i*}
    r_threshold: float  # theta_{K - i*}
    e_ac: int  # edges between A and C
    e_core: int  # edges inside C
    t1_ok: bool
    t2_ok: bool
    t3_ok: bool


def _pair_table(h: Graph, label: np.ndarray, k: int) -> np.ndarray:
    """Entry [i, j], i <= j, of this (k, k) table counts the edges of h whose
    ends carry the labels i and j (`label`: one of 0..k-1 per vertex)."""
    u, v = label[h.edge_array].T
    return np.bincount(np.minimum(u, v) * k + np.maximum(u, v),
                       minlength=k * k).reshape(k, k)


def _t_checks(table: np.ndarray) -> tuple[bool, bool, bool]:
    """(T1, T2, T3) from the pair table of the labels A, C, D = 0, 1, 2.  The
    edges neither inside C nor incident to A are the C-D and D-D edges."""
    t1, t2 = bool(table[2, 2] == 0), bool(table[1, 2] == 0)
    return t1, t2, t1 and t2


def verify_T(
    h: Graph, a_set: Sequence[int], c_set: Sequence[int], d_set: Sequence[int]
) -> tuple[bool, bool, bool]:
    """(T1) D independent; (T2) no C-D edges; (T3) every edge lies inside C
    or is incident to A.  One pair table over the edges."""
    label = np.full(h.n, 3, dtype=np.intp)  # 3: on no side yet
    for cls, part in enumerate((a_set, c_set, d_set)):
        vs = np.fromiter(part, dtype=np.intp)
        if vs.size and not (0 <= vs.min() and vs.max() < h.n and (label[vs] == 3).all()):
            raise SupersatError("A, C, D must partition the vertex set")
        label[vs] = cls
    if (label == 3).any():
        raise SupersatError("A, C, D must partition the vertex set")
    return _t_checks(_pair_table(h, label, 3))


def acd_partition(h: Graph, eta: float, pd: PerronData) -> AcdPartition:
    """Dyadic level-set partition of h's Perron vector (pd.x) into A / C / D.

    Thresholds theta_h = 2^{-h} L for 0 <= h <= K; the window index i* is
    chosen from I = {floor(K/2)-floor(sqrt(K)), ..., floor(K/2)-ceil(sqrt(K)/2)}
    minimizing S_i = sum_{j<ell} |F_{i-j}| with F_i the edges between the
    middle band C_i and the boundary shell B_i.  Requires the input to satisfy
    the eta-heavy condition and the index window to clear ell (otherwise a
    too-delocalized error).

    With level(v) = #{h <= K : x_v <= theta_h}, B_i is level i, C_i is levels
    i+1..K-i and A is levels <= i*; every edge count comes from one table of
    edges by level pair.
    """
    if h.edge_count < 1:
        raise SupersatError("input graph has no edges")
    m = h.edge_count
    bad = heavy_violations(h, pd, eta)
    if bad:
        raise NotHeavyError(f"{len(bad)} edges below the eta-heavy threshold", bad)
    x = pd.x
    sup = float(np.max(x))
    g_loc = sup * m**0.25
    g_tilde = g_loc / math.sqrt(eta)
    k_levels = math.ceil(2 * math.log2(g_tilde)) + 1 if g_tilde > 1 else 1
    ell = math.ceil(math.log2(k_levels)) if k_levels > 1 else 1
    lo = k_levels // 2 - math.isqrt(k_levels)
    hi = k_levels // 2 - math.ceil(math.sqrt(k_levels) / 2)
    index_set = list(range(lo, hi + 1))
    if not index_set or min(index_set) < max(ell, 1):
        raise TooDelocalizedError(
            f"index window {index_set} does not clear ell={ell} (K={k_levels})",
            k_levels,
            index_set,
        )
    theta = np.ldexp(sup, -np.arange(k_levels + 1))  # theta_h, exactly
    # #{h : theta_h >= x_v} = K + 1 - #{h : theta_h < x_v}, on ascending theta
    level = k_levels + 1 - np.searchsorted(theta[::-1], x)
    table = _pair_table(h, level, k_levels + 2)
    needed = range(min(index_set) - ell + 1, max(index_set) + 1)
    f_sizes = {i: int(table[i, i + 1:k_levels - i + 1].sum()) for i in needed}
    s_sums = {i: sum(f_sizes[i - j] for j in range(ell)) for i in index_set}
    i_star = min(index_set, key=lambda i: (s_sums[i], i))
    s_thr = float(theta[i_star])
    r_thr = float(theta[k_levels - i_star])
    if s_thr * r_thr >= eta / math.sqrt(m) + 1e-15:
        raise SupersatError("threshold product theta_i* theta_(K-i*) too large")
    # A, C, D = 0, 1, 2 for each level; fold the level table into theirs
    cls = np.searchsorted([i_star, k_levels - i_star], np.arange(k_levels + 2))
    fold = np.eye(3, dtype=table.dtype)[cls]
    acd = fold.T @ table @ fold
    vclass = cls[level]
    a_set, c_set, d_set = (tuple(np.flatnonzero(vclass == c).tolist()) for c in range(3))
    t1, t2, t3 = _t_checks(acd)
    return AcdPartition(
        a_set=a_set,
        c_set=c_set,
        d_set=d_set,
        sup_norm=sup,
        g_loc=g_loc,
        g_tilde=g_tilde,
        k_levels=k_levels,
        ell=ell,
        index_set=tuple(index_set),
        s_sums=s_sums,
        i_star=i_star,
        s_threshold=s_thr,
        r_threshold=r_thr,
        e_ac=int(acd[0, 1]),
        e_core=int(acd[1, 1]),
        t1_ok=t1,
        t2_ok=t2,
        t3_ok=t3,
    )


def partition_pruned(trace: PruneTrace) -> AcdPartition:
    """The A/C/D partition of a non-empty pruned graph, at the eta it was
    pruned with and from the Perron data pruning ended on."""
    if trace.emptied:
        raise SupersatError("pruning removed every edge")
    return acd_partition(trace.final_graph, trace.eta, pd=trace.final_perron)


# -- aligned rows and row cover --------------------------------------------


def _aligned(m, theta: float, v_right) -> np.ndarray:
    """Indices of the rows a of the incidence matrix M aligned with v =
    `v_right`: deg_a > 0 and (Mv)_a^2 / deg_a >= 1 - theta."""
    deg = m.getnnz(axis=1)
    mv = m @ v_right
    aligned = (deg > 0) & (mv * mv / np.maximum(deg, 1) >= 1 - theta - 1e-12)
    return np.flatnonzero(aligned)


@dataclass(frozen=True)
class RowCoverOutcome:
    variant: str  # "many-copies" | "cover"
    r_set: tuple[int, ...]
    theta: float
    epsilon: float
    sigma1: float
    e_ad: int
    e_uncovered: int  # e(A \ R, D)
    degenerate: bool = False  # always False (R is never empty), kept in reports
    # many-copies fields
    d_star: Optional[int] = None
    floor_l: Optional[int] = None
    copy_bound: Optional[int] = None
    # cover fields
    b_set: Optional[tuple[int, ...]] = None
    e_ar_b: Optional[int] = None  # e(A \ R, B)
    e_r_dnb: Optional[int] = None  # e(R, D \ B)


def row_cover_analyze(
    h: Graph, a_set: Sequence[int], d_set: Sequence[int], t: int
) -> RowCoverOutcome:
    """Aligned-row dichotomy on the A-D incidence structure.

    epsilon = 1 - sigma1^2/e(A,D), theta = sqrt(epsilon).  With R the
    theta-aligned rows: |R| >= t gives the many-copies bound
    C(|R|,t) * C(L,t) with L = floor((1-2(t-1)theta) * min_R deg_D);
    1 <= |R| < t gives the cover B = intersection of row neighborhoods with
    its two exception-edge counts.  R is never empty (see below), so the
    `degenerate` flag is always false.
    """
    if t < 2:
        raise SupersatError("t must be >= 2")
    a_sorted, d_sorted = sorted(set(a_set)), sorted(set(d_set))
    m = incidence_matrix(a_sorted, d_sorted, h)
    deg = m.getnnz(axis=1)  # each row's D-degree
    e_ad = m.nnz
    if e_ad < 1:
        raise SupersatError("no A-D edges")
    sigma1, v_right, _ = top_singular(m)
    eps = max(0.0, 1.0 - sigma1 * sigma1 / e_ad)
    theta = math.sqrt(eps)
    rows = _aligned(m, theta, v_right)
    # With M the A x D incidence matrix, v = v_right and r_a row a of M
    # normalized, sum_a deg_a (r_a . v)^2 = |Mv|^2 = sigma1^2, and
    # sum_a deg_a = e_ad.  So some row has (r_a . v)^2 at least the weighted
    # mean sigma1^2 / e_ad = 1 - theta^2 >= 1 - theta, and R is not empty.
    if rows.size == 0:
        raise SupersatError("no aligned row: the top singular vector is wrong")
    r_set = tuple(a_sorted[i] for i in rows)
    e_uncovered = e_ad - int(deg[rows].sum())
    # the aligned rows carry almost all A-D edges
    if e_uncovered > theta * e_ad + 1e-9:
        raise SupersatError(f"aligned rows miss {e_uncovered} of {e_ad} A-D edges")
    found = dict(r_set=r_set, theta=theta, epsilon=eps, sigma1=sigma1,
                 e_ad=e_ad, e_uncovered=e_uncovered)
    if len(r_set) >= t:
        d_star = int(deg[rows].min())
        floor_l = max(0, math.floor((1 - 2 * (t - 1) * theta) * d_star))
        bound = math.comb(len(r_set), t) * math.comb(floor_l, t)
        return RowCoverOutcome(
            "many-copies", **found, d_star=d_star, floor_l=floor_l, copy_bound=bound
        )
    # B: the vertices of D adjacent to every row of R
    m_r = m[rows]
    in_b = m_r.getnnz(axis=0) == rows.size
    others = np.delete(np.arange(len(a_sorted)), rows)
    return RowCoverOutcome(
        "cover",
        **found,
        b_set=tuple(np.asarray(d_sorted)[in_b].tolist()),
        e_ar_b=m[others][:, in_b].nnz,
        e_r_dnb=m_r[:, ~in_b].nnz,
    )


# -- the counting driver ---------------------------------------------------


# the driver's branch cut-offs, read when it runs: g_loc <= G_CUT is the
# finite-m proxy for "g = O(1)", and e_core >= FRAC_CUT * m' a dense core
G_CUT = 10.0
FRAC_CUT = 0.1


@dataclass(frozen=True)
class PipelineReport:
    t: int
    pattern: str
    n: int
    m: int
    lam: float
    split_threshold: float  # split_lambda(t-1, m)
    above_threshold: bool
    trace: Optional[PruneTrace]
    branch: str
    g_loc: Optional[float]
    acd: Optional[AcdPartition]
    rowcover: Optional[RowCoverOutcome]
    count: Optional[int]
    count_method: Optional[str]
    copy_lower_bound: Optional[float]
    sharp_constant: float
    ratio: Optional[float]  # count / m^t
    notes: tuple[str, ...] = ()


class Pattern(NamedTuple):
    """What the CLI, the pipeline and the sweep know about one pattern."""

    graph: Callable[[int], Graph]  # t -> the pattern itself
    refuse: Callable[[int], None]  # t -> raises if `count` cannot count it on any host
    count: Callable[[Graph, int], CountResult]  # (host, t) -> exact copies
    # (n, m, t, twin classes) -> bound on `count`'s work
    work: Callable[[int, int, int, int], int]
    sharp: Callable[[int], float]  # t -> the paper's sharp constant
    copy_lower: Callable[[int, float, int, int], float]  # (t, lam, m, n) -> bound
    gnm_expected: Optional[Callable[[int, int, int], float]]  # (n, m, t) -> mean


# K_{t,t} with constant b_t, C_2t with c_t.  C_4 = K_{2,2} runs count_ktt,
# whose t = 2 work wedge_bound bounds from n and m; at t >= 3 both count
# on the k twin classes, and the c2t estimate k^2 understates the
# contraction's k^3 steps.
PATTERNS = {
    "ktt": Pattern(lambda t: complete_bipartite(t, t), lambda t: None, count_ktt,
                   lambda n, m, t, k: wedge_bound(n, m) if t == 2 else codegree_work(n, t, k),
                   lambda t: constants(t).b_t, ktt_copy_lower, gnm_expected_ktt),
    "c2t": Pattern(lambda t: cycle(2 * t), lambda t: check_pattern_size(2 * t), count_c2t,
                   lambda n, m, t, k: wedge_bound(n, m) if t == 2 else k * k,
                   lambda t: constants(t).c_t,
                   lambda t, lam, m, n: c2t_copy_lower(t, lam, n), None),
}


def split_threshold(g: Graph, pd: PerronData, t: int) -> tuple[float, bool]:
    """The split threshold lambda(S_{t-1,m}) of the m-edge host g with Perron
    data pd, and whether pd.lam lies above it by more than 1e-12."""
    thr = split_lambda(t - 1, g.edge_count)
    return thr, bool(pd.lam > thr + 1e-12)


def supersat_count(
    g: Graph, t: int, pattern: str, eta: Optional[float] = None
) -> PipelineReport:
    """Prune at `eta` (1/(16t) when None), branch on localization, and
    count.  A refusal of t, the pattern or `eta` needs no host: it comes
    before the edge check and the Perron solve, so on every host.

    Reports every intermediate quantity; the branch thresholds `G_CUT` and
    `FRAC_CUT` are explicit finite-size heuristics and the driver never
    claims an asymptotic verdict.
    """
    if t < 2:
        raise SupersatError("t must be >= 2")
    if pattern not in PATTERNS:
        raise SupersatError(f"unknown pattern {pattern!r}")
    rules = PATTERNS[pattern]
    rules.refuse(t)
    eta = _prune_eta(t, eta)
    if g.edge_count < 1:
        raise SupersatError("input graph has no edges")
    m = g.edge_count
    blocks = PerronBlocks(g)  # one Perron solve, for the threshold and the pruning
    pd = blocks.pd
    thr, above = split_threshold(g, pd, t)
    trace = heavy_prune(g, t, eta, _blocks=blocks) if above else None
    g_loc = acd = rowcover = count = method = lower = ratio = None
    notes: list[str] = []
    if not above:
        branch = "below-threshold"
        notes.append("spectral radius not above the split threshold")
    elif trace.emptied:
        branch, count, ratio = "emptied", 0, 0.0
        notes.append("pruning removed every edge")
    else:
        pruned, fpd = trace.final_graph, trace.final_perron
        m_prime = pruned.edge_count
        g_loc = localization_g(fpd, m_prime)
        nonisolated = np.flatnonzero(pruned.degrees).tolist()
        core = pruned.induced_subgraph(nonisolated)
        cr = rules.count(core, t)
        count, method, ratio = cr.value, cr.method, cr.value / float(m) ** t
        if g_loc <= G_CUT:
            branch = "delocalized"
            notes.append("g_loc within g_cut: delocalized counting branch")
        else:
            try:
                acd = partition_pruned(trace)
            except TooDelocalizedError:
                branch = "delocalized-fallback"
                notes.append("level-set window too small; fell back to direct count")
            else:
                if acd.e_core >= FRAC_CUT * m_prime:
                    branch = "dense-core"
                    notes.append("core carries a dense fraction of the pruned edges")
                else:
                    branch = "sparse-core"
                    if acd.a_set and acd.d_set:
                        try:
                            rowcover = row_cover_analyze(
                                pruned, acd.a_set, acd.d_set, t
                            )
                        except SupersatError as exc:
                            notes.append(f"row-cover not applicable: {exc}")
                    else:
                        notes.append("row-cover skipped: empty A or D class")
        if acd is None:  # delocalized branches: bound copies from the spectrum
            lower = rules.copy_lower(t, fpd.lam, m_prime, core.n)
    return PipelineReport(
        t=t,
        pattern=pattern,
        n=g.n,
        m=m,
        lam=pd.lam,
        split_threshold=thr,
        above_threshold=above,
        trace=trace,
        branch=branch,
        g_loc=g_loc,
        acd=acd,
        rowcover=rowcover,
        count=count,
        count_method=method,
        copy_lower_bound=lower,
        sharp_constant=rules.sharp(t),
        ratio=ratio,
        notes=tuple(notes),
    )
