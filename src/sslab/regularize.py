"""Perron edge distribution, entropy identity, integer rounding of edge
counts, the type-class regular subgraph of even tensor powers, and its
explicit materialization.

For the max-spectral-radius component G0 with Perron vector x, the ordered
edge distribution is p_ij = a_ij x_i x_j / lambda with marginals pi_i = x_i^2.
For even k = 2s, rounding s * (2 p_ij) per unordered edge gives coordinate
pair counts N_ij whose type class T_k (tuples with n_i coordinates equal to i)
carries a d_k-regular subgraph of the k-th tensor power, with
d_k = prod_i n_i! / prod_j N_ij! and |T_k| = k! / prod_i n_i!.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from .graphs import CapExceededError, Graph, SslabError
from .spectra import perron


class RegularizeError(SslabError):
    pass


@dataclass(frozen=True)
class EdgeDistribution:
    vertices: tuple[int, ...]  # component vertex labels in g, sorted
    p: csr_matrix  # the component's CSR slice, x_i x_j / lambda on each edge ij
    pi: np.ndarray  # marginals, pi_i = x_i^2
    lam: float


def edge_distribution(g: Graph) -> EdgeDistribution:
    pd = perron(g, tol=1e-12)
    comp = pd.component
    idx = list(comp)
    x = pd.x[idx]
    x /= np.linalg.norm(x)
    p = g.sparse_adjacency()[idx][:, idx]
    rows = np.repeat(np.arange(len(idx)), np.diff(p.indptr))
    p.data = x[rows] * x[p.indices] / pd.lam
    return EdgeDistribution(vertices=tuple(comp), p=p, pi=x * x, lam=pd.lam)


def entropy_gap(d: EdgeDistribution) -> float:
    """H(p) - H(pi) in nats; equals log(lambda) exactly in theory."""

    def ent(a: np.ndarray) -> float:
        vals = a[a > 0]
        return float(-(vals * np.log(vals)).sum())

    return ent(d.p.data) - ent(d.pi)


def round_counts(q: Sequence[float], s: int) -> list[int]:
    """Largest-remainder rounding of s*q to integers summing to s.

    floor(s q_e) everywhere, then +1 on the largest remainders (ties broken by
    lower index) until the sum is s.  Guarantees |m_e - s q_e| < 1.
    """
    if s < 1:
        raise RegularizeError("s must be >= 1")
    scaled = [s * float(x) for x in q]
    m = [math.floor(x) for x in scaled]
    deficit = s - sum(m)
    order = sorted(range(len(q)), key=lambda i: (-(scaled[i] - m[i]), i))
    for i in order[:deficit]:
        m[i] += 1
    return m


@dataclass(frozen=True)
class RegularBundle:
    k: int
    vertices: tuple[int, ...]  # component vertex labels (tuple coordinates)
    n_mat: np.ndarray  # symmetric integer coordinate-pair counts N_ij
    n_vec: tuple[int, ...]  # n_i = sum_j N_ij
    d_k: int
    t_k_size: int
    lambda_k: float


def build_regular(g: Graph, k: int, d: Optional[EdgeDistribution] = None) -> RegularBundle:
    """The type-class regular subgraph bundle of g's k-th tensor power, from
    `d`, g's `edge_distribution`, solved here when not given."""
    if k < 2 or k % 2:
        raise RegularizeError("k must be even and >= 2")
    if d is None:
        d = edge_distribution(g)
    try:
        lam_k = d.lam**k
    except OverflowError:
        raise RegularizeError(f"lambda^k = {d.lam!r}^{k} leaves the float64 range") from None
    comp = d.vertices
    n0 = len(comp)
    p = d.p.tocoo()
    upper = p.row < p.col  # the component's edges, in edge-array order
    i, j = p.row[upper], p.col[upper]
    n_mat = np.zeros((n0, n0), dtype=np.int64)
    n_mat[i, j] = n_mat[j, i] = round_counts(2.0 * p.data[upper], k // 2)
    n_vec = tuple(int(x) for x in n_mat.sum(axis=1))
    if sum(n_vec) != k:
        raise RegularizeError(f"rounded pair counts sum to {sum(n_vec)}, not k={k}")
    # d_k = prod_i n_i! / prod_ij N_ij!, and 0! = 1 for the zero N_ij
    d_k = math.prod(math.factorial(ni) for ni in n_vec)
    for nij in n_mat[n_mat > 0].tolist():
        d_k //= math.factorial(nij)
    t_k = math.factorial(k)
    for ni in n_vec:
        t_k //= math.factorial(ni)
    # degree can never exceed the tensor-power spectral radius
    if d_k > lam_k * (1 + 1e-9):
        raise RegularizeError(f"degree d_k={d_k} exceeds lambda^k={lam_k}")
    return RegularBundle(k, comp, n_mat, n_vec, d_k, t_k, lam_k)


def _multiset_perms(counts: list[int]):
    """All sequences using exactly counts[i] copies of symbol i."""
    total = sum(counts)
    seq: list[int] = []

    def rec():
        if len(seq) == total:
            yield tuple(seq)
            return
        for sym, c in enumerate(counts):
            if c > 0:
                counts[sym] -= 1
                seq.append(sym)
                yield from rec()
                seq.pop()
                counts[sym] += 1

    yield from rec()


# most type-class tuples `materialize_fk` builds
FK_CAP = 5000


def materialize_fk(bundle: RegularBundle, g: Graph) -> Graph:
    """Explicit regular subgraph on the type-class tuples.

    Vertices are the tuples with n_i coordinates equal to component vertex i;
    tuples a, b are adjacent iff for every ordered pair (i, j) the number of
    coordinates r with (a_r, b_r) = (i, j) is exactly N_ij.  Verified
    d_k-regular and contained in the tensor power coordinatewise.
    """
    if bundle.t_k_size > FK_CAP:
        raise CapExceededError(
            f"type class has {bundle.t_k_size} tuples > cap {FK_CAP}", bundle.t_k_size
        )
    comp = bundle.vertices
    n0 = len(comp)
    k = bundle.k
    support = [i for i in range(n0) if bundle.n_vec[i] > 0]
    tuples = fk_tuples(bundle)
    if len(tuples) != bundle.t_k_size:
        raise RegularizeError(
            f"type class has {len(tuples)} tuples, bundle says {bundle.t_k_size}"
        )
    index = {t: i for i, t in enumerate(tuples)}
    # per symbol i, every assignment of values j to its positions with
    # multiplicities N_ij
    opts = [list(_multiset_perms(bundle.n_mat[i].tolist())) for i in support]
    edges = set()
    for a in tuples:
        positions = [[r for r in range(k) if a[r] == i] for i in support]
        for choice in itertools.product(*opts):
            b = [0] * k
            for pos, opt in zip(positions, choice):
                for r, j in zip(pos, opt):
                    b[r] = j
            ia, ib = index[a], index[tuple(b)]
            if ia != ib:
                edges.add((min(ia, ib), max(ia, ib)))
    fk = Graph.from_edges(len(tuples), sorted(edges))
    # audits: exact regularity and containment in the tensor power
    if any(d != bundle.d_k for d in fk.degrees):
        raise RegularizeError(f"materialized graph is not {bundle.d_k}-regular")
    for ia, ib in fk.edges:
        a, b = tuples[ia], tuples[ib]
        for ai, bi in zip(a, b):
            if not g.has_edge(comp[ai], comp[bi]):
                raise RegularizeError("materialized edge leaves the tensor power")
    return fk


def fk_tuples(bundle: RegularBundle) -> list[tuple[int, ...]]:
    """The type-class tuples (component-local symbols) in generation order."""
    return list(_multiset_perms(list(bundle.n_vec)))
