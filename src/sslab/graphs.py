"""Graph representation, family constructors, graph algebra, and edge-list I/O.

A graph is immutable: a vertex count n (dense 0-based labels) and one
read-only, lexicographically sorted (m, 2) array of edges (u < v).  Every
other view (the edge tuple, the CSR adjacency, degrees, components) is
derived from that array once per graph, and every family is built as such an
array.  Construction validates no loops, no duplicate edges, and endpoint
range.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix, kron


# the largest vertex count: the CSR's row pointer has n + 1 np.intp entries,
# and numpy cannot address an array of more than the np.intp maximum in bytes
MAX_VERTICES = np.iinfo(np.intp).max // np.dtype(np.intp).itemsize - 1


class GraphError(ValueError):
    def __init__(self, message: str, position: Optional[int] = None):
        super().__init__(message)
        self.position = position  # input index of the offending edge, if any


class CapExceededError(GraphError):
    def __init__(self, message: str, size: int):
        super().__init__(message)
        self.size = size


class ParseError(GraphError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Graph:
    n: int
    edge_array: np.ndarray  # (m, 2) np.intp, rows (u, v) with u < v, sorted

    def __post_init__(self):
        self.edge_array.flags.writeable = False

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.edge_array, other.edge_array)

    def __hash__(self):
        return hash((self.n, self.edge_array.tobytes()))

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Edges in any order and orientation.  The first loop or
        out-of-range edge in input order is reported before any repeat, and
        the error's `position` is the offending edge's index in the input."""
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        if n > MAX_VERTICES:
            raise GraphError(f"vertex count {n} past the index range")
        pairs = edges if isinstance(edges, np.ndarray) else list(edges)
        try:
            e = np.array(pairs, dtype=np.intp).reshape(-1, 2)
            ok = bool(np.all(e[:, 0] != e[:, 1]) and np.all((e >= 0) & (e < n)))
        except OverflowError:  # an endpoint past the index range, so past n
            ok = False
        if not ok:
            for i, (u, v) in enumerate(pairs):
                if u == v:
                    raise GraphError(f"loop at vertex {u}", i)
                if not (0 <= u < n and 0 <= v < n):
                    raise GraphError(f"edge ({u},{v}) out of range for n={n}", i)
        e = np.sort(e, axis=1)
        order = np.lexsort((e[:, 1], e[:, 0]))  # stable: a repeat sorts after its first
        e = e[order]
        repeats = np.flatnonzero((e[1:, 0] == e[:-1, 0]) & (e[1:, 1] == e[:-1, 1])) + 1
        if len(repeats):
            raise GraphError("duplicate edge", int(order[repeats].min()))
        return Graph(n, e)

    # -- derived views -----------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edge_array)

    @property
    def big_m(self) -> int:
        # twice the edge count
        return 2 * len(self.edge_array)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(map(tuple, self.edge_array.tolist()))

    @cached_property
    def _csr(self) -> csr_matrix:
        e = self.edge_array
        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        return csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(self.n, self.n))

    def sparse_adjacency(self) -> csr_matrix:
        """Symmetric 0/1 float64 CSR adjacency with sorted indices, built
        once: every matrix view slices it, and no caller may modify it."""
        return self._csr

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(np.diff(self._csr.indptr).tolist())

    def _find(self, u: int, v: int) -> int:
        """Row of the edge {u, v} in `edge_array`, or -1, by bisection."""
        a, b = (u, v) if u < v else (v, u)
        e = self.edge_array
        lo, hi = np.searchsorted(e[:, 0], [a, a + 1])
        i = lo + int(np.searchsorted(e[lo:hi, 1], b))
        return i if i < hi and e[i, 1] == b else -1

    def has_edge(self, u: int, v: int) -> bool:
        return self._find(u, v) >= 0

    def vertex_list(self, vertices: Iterable[int]) -> list[int]:
        """`vertices` sorted, after checking each is a vertex of this graph
        (numpy indexing would wrap a negative id around)."""
        vs = sorted(vertices)
        if vs and (vs[0] < 0 or vs[-1] >= self.n):
            bad = vs[0] if vs[0] < 0 else vs[-1]
            raise GraphError(f"vertex {bad} out of range for n={self.n}")
        return vs

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Connected components as sorted vertex tuples, ordered by minimum vertex."""
        from scipy.sparse.csgraph import connected_components

        _, labels = connected_components(self._csr, directed=False)
        # labels are assigned in order of each component's smallest vertex
        order = np.argsort(labels, kind="stable")
        ends = np.cumsum(np.bincount(labels))
        return tuple(tuple(c.tolist()) for c in np.split(order, ends)[:-1])

    def induced_subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph on `vertices`, relabeled 0..len-1 in sorted order."""
        vs = self.vertex_list(set(vertices))
        pos = np.full(self.n, -1, dtype=np.intp)
        pos[vs] = np.arange(len(vs))
        sub = pos[self.edge_array]  # relabeling keeps the rows sorted
        keep = (sub[:, 0] >= 0) & (sub[:, 1] >= 0)
        return Graph(len(vs), sub[keep])

    def delete_edge(self, u: int, v: int) -> "Graph":
        i = self._find(u, v)
        if i < 0:
            raise GraphError(f"no such edge {(u, v) if u < v else (v, u)}")
        return Graph(self.n, np.delete(self.edge_array, i, axis=0))

    def is_bipartite(self) -> bool:
        """No odd cycle: the bipartite double cover A (x) K_2 splits a
        component in two exactly when that component has no odd cycle."""
        from scipy.sparse.csgraph import connected_components

        cover = kron(self._csr, [[0, 1], [1, 0]], format="csr")
        return connected_components(cover, directed=False)[0] == 2 * len(self.components)


# -- split graphs ----------------------------------------------------------


@dataclass(frozen=True)
class SplitSpec:
    """Parameters of the split graph S_{k,m}: clique K_k joined to q independent
    vertices, plus (when r > 0) one extra vertex adjacent to r clique vertices,
    where m - k(k-1)/2 = k*q + r with 0 <= r <= k-1."""

    k: int
    m: int
    q: int = field(init=False)
    r: int = field(init=False)

    def __post_init__(self):
        if self.k < 1:
            raise GraphError("split: clique size k must be >= 1")
        base = self.k * (self.k - 1) // 2
        if self.m < base:
            raise GraphError(
                f"split: m={self.m} below clique edge count {base} for k={self.k}"
            )
        q, r = divmod(self.m - base, self.k)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)

    @property
    def indep_start(self) -> int:
        """The first independent vertex: after the clique and the extra one."""
        return self.k + (1 if self.r > 0 else 0)

    @property
    def n(self) -> int:
        return self.indep_start + self.q

    @property
    def classes(self) -> int:
        """The false-twin classes: each clique vertex and the extra vertex
        alone, and the independent vertices together."""
        return self.indep_start + (self.q > 0)


def split_graph(k: int, m: int) -> Graph:
    """S_{k,m} with vertex order: r-attached clique vertices first, remaining
    clique vertices, the extra vertex of degree r (omitted when r=0), then the
    q independent vertices."""
    spec = SplitSpec(k, m)
    w = np.arange(spec.indep_start, spec.n)
    g = Graph.from_edges(spec.n, np.concatenate([
        complete(k).edge_array,
        np.column_stack([np.arange(spec.r), np.full(spec.r, k)]),  # the extra vertex is k
        np.column_stack([np.tile(np.arange(k), len(w)), np.repeat(w, k)]),
    ]))
    if g.edge_count != m:
        raise GraphError(f"split: built {g.edge_count} edges, expected m={m}")
    return g


# -- standard families -----------------------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph.from_edges(n, [])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, np.column_stack(np.triu_indices(n, 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle length must be >= 3")
    v = np.arange(n)
    return Graph.from_edges(n, np.column_stack([v, (v + 1) % n]))


def path(n: int) -> Graph:
    """Path on n vertices (n-1 edges)."""
    if n < 1:
        raise GraphError("path must have >= 1 vertex")
    v = np.arange(n - 1)
    return Graph.from_edges(n, np.column_stack([v, v + 1]))


def star(n: int) -> Graph:
    """K_{1,n}: center at index 0 and n leaves."""
    if n < 1:
        raise GraphError("star needs >= 1 leaf")
    return join(empty_graph(1), empty_graph(n))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise GraphError("complete bipartite sides must be >= 1")
    return join(empty_graph(a), empty_graph(b))


# -- random graphs ---------------------------------------------------------


def _edge_unrank(rank: int) -> tuple[int, int]:
    # rank in colex order: edge (u,v), u<v, has rank C(v,2)+u, so v is the
    # largest integer with v(v-1)/2 <= rank
    v = (1 + math.isqrt(8 * rank + 1)) // 2
    return rank - v * (v - 1) // 2, v


def sample_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform random m-edge graph on n labeled vertices.

    Floyd's sampling over edge ranks: exactly uniform over C(N, m) edge sets,
    reproducible from the seed.
    """
    big_n = n * (n - 1) // 2
    if not (0 <= m <= big_n):
        raise GraphError(f"m={m} out of range [0, {big_n}]")
    rng = random.Random(seed)
    chosen: set[int] = set()
    for j in range(big_n - m, big_n):
        r = rng.randrange(j + 1)
        chosen.add(r if r not in chosen else j)
    return Graph.from_edges(n, [_edge_unrank(r) for r in chosen])


# family -> (builder, names of its size parameters, which are also the
# `sslab gen` flags that give them); gnm also takes a seed
FAMILIES = {
    "split": (split_graph, ("k", "m")),
    "gnm": (sample_gnm, ("n", "m")),
    "cycle": (cycle, ("n",)),
    "path": (path, ("n",)),
    "clique": (complete, ("n",)),
    "empty": (empty_graph, ("n",)),
    "star": (star, ("n",)),
    "complete-bipartite": (complete_bipartite, ("a", "b")),
}


def make_family(family: str, params: Sequence[int], seed: Optional[int] = None) -> Graph:
    """The `family` member with size parameters `params`, in the order
    FAMILIES names them; `seed` is read by gnm only."""
    if family not in FAMILIES:
        raise GraphError(f"unknown family {family!r}")
    build, names = FAMILIES[family]
    if len(params) != len(names):
        raise GraphError(f"{family} takes ({', '.join(names)})")
    if family != "gnm":
        return build(*params)
    if seed is None:
        raise GraphError("gnm requires a seed")
    return build(*params, seed)


# -- graph algebra ---------------------------------------------------------


def tensor_power(g: Graph, k: int, cap: int = 10**6) -> Graph:
    """Tensor (categorical) power: k-tuples adjacent iff coordinatewise adjacent.

    Vertex i encodes the tuple as base-|V(g)| digits, most significant first.
    """
    if k < 1:
        raise GraphError("tensor power needs k >= 1")
    size = g.n**k
    if size > cap:
        raise CapExceededError(f"tensor power would have {size} vertices", size)
    if k == 1:
        return g
    # extend each (k-1)-tuple edge (a, b) by each edge (u, v) of g, both ways
    ab = tensor_power(g, k - 1, cap=cap).edge_array[:, None, :] * g.n
    uv = g.edge_array[None, :, :]
    both = np.concatenate([ab + uv, ab + uv[..., ::-1]])
    return Graph.from_edges(size, both.reshape(-1, 2))


def subdivide(h: Graph) -> Graph:
    """Subdivide every edge once: original vertices keep their indices,
    subdivision vertices appended in edge order."""
    e, w = h.edge_array, h.n + np.arange(h.edge_count)
    halves = np.column_stack([e[:, 0], w, w, e[:, 1]]).reshape(-1, 2)
    return Graph.from_edges(h.n + h.edge_count, halves)


def union(g1: Graph, g2: Graph) -> Graph:
    # every shifted row of g2 sorts after every row of g1
    return Graph(g1.n + g2.n, np.concatenate([g1.edge_array, g2.edge_array + g1.n]))


def join(g1: Graph, g2: Graph) -> Graph:
    """The union plus every edge from a vertex of g1 to a vertex of g2."""
    u, v = np.repeat(np.arange(g1.n), g2.n), np.tile(np.arange(g2.n), g1.n)
    cross = np.column_stack([u, g1.n + v])
    return Graph.from_edges(g1.n + g2.n, np.concatenate([union(g1, g2).edge_array, cross]))


# -- serialization ---------------------------------------------------------


def write_edge_list(g: Graph) -> str:
    lines = [f"# n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format: blank lines, `#` comments, an optional
    `# n=<int>` header, and data lines of two integers.  Every other check
    is `Graph.from_edges`'s, raised as a `ParseError` at the line of the
    offending edge, or of the header for a bad vertex count."""
    n, header = None, 0  # the `# n=` header's value and line
    pairs: list[tuple[int, int]] = []
    lines: list[int] = []  # line of each pair
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n="):
                try:
                    n, header = int(body[2:]), lineno
                except ValueError:
                    raise ParseError(f"bad header {line!r}", lineno)
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two integers, got {line!r}", lineno)
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise ParseError(f"non-integer endpoint in {line!r}", lineno)
        lines.append(lineno)
    if n is None:  # the largest endpoint fixes n, within 0..MAX_VERTICES
        top = max(map(max, pairs), default=-1)
        n = min(max(top + 1, 0), MAX_VERTICES)
    try:
        return Graph.from_edges(n, pairs)
    except GraphError as exc:
        line = header if exc.position is None else lines[exc.position]
        raise ParseError(str(exc), line) from None
