"""Graph representation, family constructors, graph algebra, and edge-list I/O.

A graph is immutable: a vertex count n (dense 0-based labels) and one
read-only, lexicographically sorted (m, 2) array of edges (u < v).  Every
other view (the edge tuple, the CSR adjacency, the false-twin quotient,
degrees, components) is derived from that array once per graph, and every
family is built as such an array.  Construction validates no loops, no
duplicate edges, and endpoint range.
"""

from __future__ import annotations

import io
import math
import os
import random
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.sparse import csr_matrix, kron


# the largest vertex count: the CSR's row pointer has n + 1 np.intp entries,
# and numpy cannot address an array of more than the np.intp maximum in bytes
MAX_VERTICES = np.iinfo(np.intp).max // np.dtype(np.intp).itemsize - 1


class SslabError(ValueError):
    """The root of every error the package raises: a refusal, exit 2 in the CLI."""


class GraphError(SslabError):
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
        the error's `position` is the offending edge's index in the input.
        Input already in the stored form (u < v on every row, the rows
        strictly increasing) is kept as it comes, in a copy, unsorted."""
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
        u, v = e[:, 0], e[:, 1]
        if np.all(u < v) and np.all((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))):
            return Graph(n, e)  # `np.array` copied the input
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
        """The CSR read off the stored form, with no COO pass.  Mirrored,
        each edge (u, v) is an entry of row v and one of row u; a stable
        argsort of the rows keeps the (u, v) entries of row v first, in
        ascending u, and then the (v, w) entries in ascending w, so every
        row's columns come out ascending with no repeats.  The index dtype
        is scipy's for these sizes: int32 while n and 2m fit it."""
        e, n = self.edge_array, self.n
        fits = max(n, 2 * len(e)) <= np.iinfo(np.int32).max
        e = e.astype(np.int32) if fits else e
        rows = np.concatenate([e[:, 1], e[:, 0]])
        indptr = np.zeros(n + 1, dtype=e.dtype)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        indices = np.concatenate([e[:, 0], e[:, 1]])[np.argsort(rows, kind="stable")]
        a = csr_matrix((np.ones(len(rows)), indices, indptr), shape=(n, n))
        a.has_canonical_format = True  # sorted rows, no repeats
        return a

    def sparse_adjacency(self) -> csr_matrix:
        """Symmetric 0/1 float64 CSR adjacency with sorted indices, built
        once: every matrix view slices it, and no caller may modify it."""
        return self._csr

    @cached_property
    def twin_quotient(self) -> tuple[np.ndarray, np.ndarray, csr_matrix]:
        """The false-twin quotient W, built once: (reps, w, adjacency), the
        least vertex of each class (ascending) and the class sizes, both
        read-only (`_twins`), and W's k x k 0/1 CSR adjacency on the
        classes.  The graph is the blow-up of W by w.  When no class holds
        two vertices the adjacency is `sparse_adjacency()` itself."""
        reps, w = _twins(self._csr)
        reps.flags.writeable = w.flags.writeable = False
        a = self._csr if len(reps) == self.n else self._csr[reps][:, reps]
        return reps, w, a

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
        return tuple(tuple(c.tolist()) for c in component_groups(self._csr))

    def induced_subgraph(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph on `vertices`, relabeled 0..len-1 in sorted order."""
        vs = self.vertex_list(set(vertices))
        pos = np.full(self.n, -1, dtype=np.intp)
        pos[vs] = np.arange(len(vs))
        sub = pos[self.edge_array]  # relabeling keeps the rows sorted
        keep = (sub[:, 0] >= 0) & (sub[:, 1] >= 0)
        return Graph(len(vs), sub[keep])

    def is_bipartite(self) -> bool:
        """No odd cycle: the bipartite double cover A (x) K_2 splits a
        component in two exactly when that component has no odd cycle."""
        cover = kron(self._csr, [[0, 1], [1, 0]], format="csr")
        return len(component_groups(cover)) == 2 * len(self.components)


def component_groups(a) -> list[np.ndarray]:
    """The vertices of each connected component of the symmetric sparse
    matrix `a`, ascending, and the components in the order of their
    smallest vertex; none when `a` is 0 x 0."""
    from scipy.sparse.csgraph import connected_components

    _, labels = connected_components(a, directed=False)
    # labels are assigned in order of each component's smallest vertex
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels)))[:-1]


# -- false twins -----------------------------------------------------------

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

    @staticmethod
    def exists(k: int, m: int) -> bool:
        """Whether S_{k,m} exists: k >= 1 and m at least the clique's k(k-1)/2 edges."""
        return k >= 1 and m >= k * (k - 1) // 2

    def __post_init__(self):
        base = self.k * (self.k - 1) // 2
        if not self.exists(self.k, self.m):
            raise GraphError(
                "split: clique size k must be >= 1" if self.k < 1
                else f"split: m={self.m} below clique edge count {base} for k={self.k}"
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
    """The edge-list text of g, from `edge_array`: `edges` stays unbuilt."""
    lines = [f"# n={g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edge_array.tolist())
    return "\n".join(lines) + "\n"


# The numpy pass reads `write_edge_list`'s form only: an optional first
# line `# n=<1-18 digits>`, then data lines of ASCII digits, `-` and spaces
_HEADER = re.compile(r"# n=([0-9]{1,18})\n")
_DATA_BYTES = b"0123456789 \n-"
# numpy 1.25's int64 parse retries an overflowing integer as a float, with
# a DeprecationWarning; a run of 19 digits goes to the loop, 18 stay below
# 2**63
_ZEROS = bytes.maketrans(b"123456789", b"000000000")


def _read_plain(text: str) -> Optional[Graph]:
    """The graph of `text` from one `np.loadtxt` pass, or None where the
    text is not in `write_edge_list`'s form: any other character, a
    comment, a second header, a number the pass does not take exactly, a
    row not of two integers, no data line, a vertex count past memory, or
    any `GraphError`, whose line only the loop knows."""
    header = _HEADER.match(text)
    data = text[header.end():] if header else text
    if not data.isascii() or not data.strip():
        return None
    raw = data.encode()
    if raw.translate(None, _DATA_BYTES) or b"0" * 19 in raw.translate(_ZEROS):
        return None
    try:
        e = np.loadtxt(io.StringIO(data), dtype=np.intp, comments=None, ndmin=2)
    except ValueError:  # a token such as `-`, `1-2` or `--3`
        return None
    if e.shape[1] != 2:
        return None
    n = int(header[1]) if header else min(max(int(e.max()) + 1, 0), MAX_VERTICES)
    if _past_memory(n):
        return None
    try:
        return Graph.from_edges(n, e)
    except GraphError:
        return None


def read_edge_list(text: str) -> Graph:
    """Parse the edge-list format: blank lines, `#` comments, an optional
    `# n=<int>` header, and data lines of two integers.  Every other check
    is `Graph.from_edges`'s, raised as a `ParseError` at the line of the
    offending edge, or of the header for a bad vertex count.  Past those,
    a vertex count whose CSR row pointer exceeds physical memory is refused
    at the header, or at the first line holding the largest endpoint.

    Text in `write_edge_list`'s form (an optional `# n=` first line, then
    plain data lines) is read by one numpy pass; `_read_lines` reads the
    rest and names the line of every error."""
    g = _read_plain(text)
    return _read_lines(text) if g is None else g


def _read_lines(text: str) -> Graph:
    """`read_edge_list` one line at a time: any text, every error."""
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
        g = Graph.from_edges(n, pairs)
    except GraphError as exc:
        line = header if exc.position is None else lines[exc.position]
        raise ParseError(str(exc), line) from None
    past = _past_memory(n)
    if past:  # at the header, or at the first line holding the largest endpoint
        raise ParseError(past, header or next(k for p, k in zip(pairs, lines) if n - 1 in p))
    return g


def _past_memory(n: int) -> Optional[str]:
    """Why n vertices do not fit: their CSR row pointer, n + 1 np.intp
    entries, would exceed physical memory.  None where they fit, or where
    `os.sysconf` cannot tell the memory's size."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no `os.sysconf`, or no such name
        return None
    need = (n + 1) * np.dtype(np.intp).itemsize
    if memory <= 0 or need <= memory:  # a size of -1 is unknown
        return None
    return (f"vertex count {n} needs a {need}-byte row pointer,"
            f" past the {memory} bytes of physical memory")
