"""The stored form of a graph: one read-only, sorted (m, 2) edge array, and
every view of it, checked against a pure-Python reference of the edge-tuple
semantics (sorted, deduplicated (u, v) tuples with u < v)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import csr_rows, delete_edge
from sslab import Graph
from sslab.graphs import (
    MAX_VERTICES,
    GraphError,
    ParseError,
    complete,
    empty_graph,
    read_edge_list,
    union,
    write_edge_list,
)


def ref_edges(n, edges):
    """Reference `from_edges`: the first loop or out-of-range edge in input
    order, then duplicates, else the sorted tuple of (min, max) pairs."""
    norm = []
    for u, v in edges:
        if u == v:
            raise GraphError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        norm.append((min(u, v), max(u, v)))
    if len(set(norm)) != len(norm):
        raise GraphError("duplicate edge")
    return tuple(sorted(norm))


def ref_adjacency(n, edges):
    nbrs = [[] for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return tuple(tuple(sorted(a)) for a in nbrs)


def ref_components(n, edges):
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in edges:
        parent[find(u)] = find(v)
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return tuple(sorted((tuple(c) for c in groups.values()), key=lambda c: c[0]))


@st.composite
def edge_lists(draw, max_n=14):
    """(n, edges): a simple graph's edges in random order and orientation,
    on 0..max_n vertices, so n = 0, n = 1 and isolated vertices all occur."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    return n, [(v, u) if f else (u, v) for (u, v), f in zip(chosen, flips)]


def check_stored_form(g):
    e = g.edge_array
    assert e.dtype == np.intp and e.shape == (g.edge_count, 2)
    assert not e.flags.writeable
    with pytest.raises(ValueError):
        e[...] = 0
    rows = e.tolist()
    assert rows == sorted(rows) and all(u < v for u, v in rows)
    assert len(set(map(tuple, rows))) == len(rows)


@settings(max_examples=150, deadline=None)
@given(edge_lists())
def test_from_edges_matches_the_reference(case):
    n, edges = case
    g = Graph.from_edges(n, edges)
    check_stored_form(g)
    assert g.edges == ref_edges(n, edges)
    assert all(type(x) is int for e in g.edges for x in e)
    assert g == Graph.from_edges(n, list(reversed(edges)))
    assert g == Graph.from_edges(n, [(v, u) for u, v in edges])


@settings(max_examples=150, deadline=None)
@given(edge_lists())
def test_views_match_the_reference(case):
    n, edges = case
    g = Graph.from_edges(n, edges)
    ref = ref_edges(n, edges)
    adj = ref_adjacency(n, ref)
    assert csr_rows(g) == adj
    assert g.degrees == tuple(len(a) for a in adj)
    assert all(type(d) is int for d in g.degrees)
    assert g.components == ref_components(n, ref)
    for u in range(n):
        for v in range(n):
            assert g.has_edge(u, v) == (v in adj[u])


@settings(max_examples=100, deadline=None)
@given(edge_lists(), st.data())
def test_delete_edge_matches_the_reference(case, data):
    n, edges = case
    g = Graph.from_edges(n, edges)
    if not edges:
        return
    u, v = data.draw(st.sampled_from(edges))
    h = delete_edge(g, u, v)
    check_stored_form(h)
    assert h.edges == tuple(e for e in ref_edges(n, edges) if e != (min(u, v), max(u, v)))
    assert h == Graph.from_edges(n, h.edges)
    with pytest.raises(GraphError, match="no such edge"):
        delete_edge(h, v, u)


@settings(max_examples=100, deadline=None)
@given(edge_lists(), st.data())
def test_induced_subgraph_matches_the_reference(case, data):
    n, edges = case
    g = Graph.from_edges(n, edges)
    vs = data.draw(st.lists(st.integers(0, n - 1), max_size=n)) if n else []
    sub = g.induced_subgraph(vs)
    keep = sorted(set(vs))
    want = {v: i for i, v in enumerate(keep)}
    check_stored_form(sub)
    assert sub.n == len(keep)
    assert sub.edges == tuple(
        sorted((want[u], want[v]) for u, v in ref_edges(n, edges) if u in want and v in want)
    )


@settings(max_examples=100, deadline=None)
@given(edge_lists(max_n=8), edge_lists(max_n=8))
def test_union_matches_the_reference(c1, c2):
    (n1, e1), (n2, e2) = c1, c2
    g = union(Graph.from_edges(n1, e1), Graph.from_edges(n2, e2))
    check_stored_form(g)
    assert g.n == n1 + n2
    assert g.edges == ref_edges(n1 + n2, e1 + [(u + n1, v + n1) for u, v in e2])


@settings(max_examples=100, deadline=None)
@given(edge_lists())
def test_edge_list_round_trip(case):
    n, edges = case
    g = Graph.from_edges(n, edges)
    back = read_edge_list(write_edge_list(g))
    check_stored_form(back)
    assert back == g and hash(back) == hash(g)


def test_equality_and_hash_across_construction_routes():
    routes = [
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        Graph.from_edges(4, [(3, 2), (2, 1), (1, 0)]),
        Graph.from_edges(4, np.array([[2, 3], [0, 1], [1, 2]])),
        delete_edge(delete_edge(delete_edge(complete(4), 0, 2), 0, 3), 1, 3),
        delete_edge(
            delete_edge(delete_edge(complete(5).induced_subgraph([0, 1, 2, 3]), 0, 2), 0, 3), 3, 1
        ),
        read_edge_list("# n=4\n0 1\n2 1\n3 2\n"),
    ]
    for g in routes:
        assert g == routes[0] and hash(g) == hash(routes[0])
    assert len(set(routes)) == 1
    assert routes[0] != Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
    assert routes[0] != Graph.from_edges(4, [(0, 1), (1, 2)])
    assert routes[0] != routes[0].edges
    # the hash separates graphs of the same size
    paths = [Graph.from_edges(4, [(p[0], p[1]), (p[1], p[2]), (p[2], p[3])])
             for p in ((0, 1, 2, 3), (1, 0, 2, 3), (0, 2, 1, 3), (2, 0, 1, 3))]
    assert len({hash(g) for g in paths}) == len(set(paths)) == 4


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_views_of_small_and_empty_hosts(n):
    g = empty_graph(n)
    assert g.edge_array.shape == (0, 2)
    assert g.edges == ()
    assert csr_rows(g) == ((),) * n
    assert g.degrees == (0,) * n
    assert g.components == tuple((v,) for v in range(n))
    assert g.is_bipartite()
    assert g.sparse_adjacency().shape == (n, n)


def test_isolated_vertices_at_both_ends():
    g = Graph.from_edges(7, [(2, 4), (3, 2)])
    assert csr_rows(g) == ((), (), (3, 4), (2,), (2,), (), ())
    assert g.degrees == (0, 0, 2, 1, 1, 0, 0)
    assert g.components == ((0,), (1,), (2, 3, 4), (5,), (6,))


@pytest.mark.parametrize(
    "edges, message",
    [
        # the first bad edge in input order wins, whatever comes later
        ([(0, 1), (0, 7), (2, 2)], "edge (0,7) out of range for n=4"),
        ([(0, 1), (2, 2), (0, 7)], "loop at vertex 2"),
        ([(-1, 2), (3, 3)], "edge (-1,2) out of range for n=4"),
        ([(0, 2**70), (1, 1)], f"edge (0,{2**70}) out of range for n=4"),
        # a repeat is reported only after every edge passed the first checks
        ([(0, 1), (1, 0), (0, 9)], "edge (0,9) out of range for n=4"),
        ([(0, 1), (1, 0)], "duplicate edge"),
        ([(5, 5)], "loop at vertex 5"),
    ],
)
def test_error_precedence(edges, message):
    with pytest.raises(GraphError) as exc:
        Graph.from_edges(4, edges)
    assert str(exc.value) == message
    with pytest.raises(GraphError) as ref:
        ref_edges(4, edges)
    assert str(ref.value) == message


def test_negative_vertex_count_rejected():
    with pytest.raises(GraphError, match="nonnegative"):
        Graph.from_edges(-1, [])


def test_edges_are_derived_once_and_agree_with_the_array():
    rng = random.Random(5)
    pairs = {(rng.randrange(40), rng.randrange(40)) for _ in range(200)}
    edges = sorted({(min(p), max(p)) for p in pairs if p[0] != p[1]})
    g = Graph.from_edges(40, edges)
    assert g.edges is g.edges
    assert g.sparse_adjacency() is g.sparse_adjacency()
    assert np.array_equal(np.array(g.edges, dtype=np.intp).reshape(-1, 2), g.edge_array)


@pytest.mark.parametrize(
    "edges, position",
    [
        ([(0, 1), (2, 2), (0, 7)], 1),
        ([(0, 1), (1, 2), (0, 7)], 2),
        ([(0, 1), (1, 2), (2, 1), (0, 1)], 2),  # the first repeat in input order
        ([(0, 1), (0, 1), (0, 1)], 1),
    ],
)
def test_error_names_the_input_position(edges, position):
    with pytest.raises(GraphError) as exc:
        Graph.from_edges(4, edges)
    assert exc.value.position == position


def test_vertex_count_past_the_index_range_rejected():
    with pytest.raises(GraphError, match="past the index range") as exc:
        Graph.from_edges(10**20, [(0, 10**20 - 1)])
    assert exc.value.position is None
    # n + 1 np.intp row pointers must fit in an addressable array
    for n in (np.iinfo(np.intp).max + 1, int(np.iinfo(np.intp).max), 2**61, MAX_VERTICES + 1):
        with pytest.raises(GraphError, match="past the index range"):
            Graph.from_edges(n, [])
    assert Graph.from_edges(MAX_VERTICES, []).edge_count == 0


@pytest.mark.parametrize(
    "text, line, message",
    [
        # the reader checks syntax only; the rest is from_edges's, in its order
        ("0 1\n1 0\n2 2\n", 3, "loop at vertex 2"),
        ("# n=3\n0 1\n1 0\n0 5\n", 4, "edge (0,5) out of range for n=3"),
        ("# n=2\n0 5\n", 2, "edge (0,5) out of range for n=2"),
        ("0 1\n\n# note\n1 2\n2 1\n", 5, "duplicate edge"),
        ("# n=-1\n", 1, "vertex count must be nonnegative"),
        ("0 1\n# n=99999999999999999999\n", 2, "vertex count 99999999999999999999 past"),
        # without a header n is the largest endpoint + 1, within the index range
        ("0 1\n1 99999999999999999999\n2 3\n", 2,
         f"edge (1,99999999999999999999) out of range for n={MAX_VERTICES}"),
        ("0 1\n-1 2\n", 2, "edge (-1,2) out of range for n=3"),
        ("-5 -3\n", 1, "edge (-5,-3) out of range for n=0"),
    ],
)
def test_reader_reports_validation_errors_at_their_line(text, line, message):
    with pytest.raises(ParseError) as exc:
        read_edge_list(text)
    assert exc.value.line == line
    assert str(exc.value).startswith(f"line {line}: {message}")


# -- the numpy reader against the line loop ---------------------------------

# pieces of edge-list text, odd ones included: line breaks `splitlines`
# knows and plain `\n` does not, signs and underscores `int` takes, leading
# zeros, 19 digits and more, inline and indented `#`, header variants
_FUZZ_PIECES = st.sampled_from([
    "0", "1", "2", "3", "7", "12", "007", "-0", "-1", "+3", "1_0", "-",
    "1-2", "--1", "1000000000000000000", "99999999999999999999",
    "0000000000000000000002", " ", "  ", "\t", "\n", "\n", "\n", "\r",
    "\r\n", "\f", "\v", "\x1c", "\x85", "\u2028", "\xa0", "\u0663", "#",
    "# note", "##", " # n=3", "# n=", "# n=4", "#n=4", "# n= 4", "# n=4  ", "#  n=5",
    "# n=+4", "# n=1_0", "# n=0004", "# n=-1", "# n=x", "# n=4 4",
    "# N=4", "# n=99999999999999999999", "# n=9\t", "1 2 # c",
])


# comment and header lines: the line loop reads every one of them, as the
# numpy pass takes only the writer's `# n=` header, and that as line 1
_COMMENT_LINES = st.sampled_from(["# n=10", "#n=12", "#  n=007  ", "# n=0", "# note", "#", "##"])


@st.composite
def edge_list_texts(draw):
    """Edge-list text: loose fuzz, or a graph's edge lines among comments,
    now and then with a bad edge or an odd piece, and half the time under
    the writer's header as line 1 (its n near the graph's, short of it too)."""
    if draw(st.integers(0, 3)) == 0:
        return "".join(draw(st.lists(_FUZZ_PIECES, max_size=30)))
    n, edges = draw(edge_lists().filter(lambda case: case[1]))
    pad = draw(st.sampled_from(["", "", " ", "0"]))  # leading space or zero
    sep = draw(st.sampled_from([" ", " ", " ", " ", "  ", "\t"]))
    lines = [f"{pad}{u}{sep}{pad}{v}" for u, v in edges]
    extras = st.one_of(
        _COMMENT_LINES, _COMMENT_LINES, _COMMENT_LINES,
        st.tuples(st.integers(-1, 15), st.integers(-1, 15)).map("{0[0]} {0[1]}".format),
        _FUZZ_PIECES,
    )
    for extra in draw(st.lists(extras, max_size=4)):
        lines.insert(draw(st.integers(0, len(lines))), extra)
    if draw(st.booleans()):
        lines.insert(0, f"# n={max(n + draw(st.integers(-1, 2)), 0)}")
    text = draw(st.sampled_from(["\n"] * 5 + ["\r\n"])).join(lines)
    return text + draw(st.sampled_from(["", "\n"]))


def read_outcome(read, text):
    """The graph `read` makes of `text`, or its error's message and line."""
    try:
        return read(text)
    except ParseError as exc:
        return str(exc), exc.line


@settings(max_examples=400, deadline=None)
@given(edge_list_texts())
def test_numpy_reader_agrees_with_the_line_loop(text):
    from sslab.graphs import _read_lines

    got = read_outcome(read_edge_list, text)
    assert got == read_outcome(_read_lines, text)
    if isinstance(got, Graph):
        check_stored_form(got)


def _no_loop(text):
    raise AssertionError("the line loop ran")


@settings(max_examples=100, deadline=None)
@given(edge_lists(max_n=40))
def test_written_edge_lists_take_the_numpy_pass(case):
    import sslab.graphs as graphs

    g = Graph.from_edges(*case)
    saved, graphs._read_lines = graphs._read_lines, _no_loop
    try:
        if g.edge_count:
            assert read_edge_list(write_edge_list(g)) == g
        else:  # no data line: the loop reads it, as any empty file
            with pytest.raises(AssertionError, match="the line loop ran"):
                read_edge_list(write_edge_list(g))
    finally:
        graphs._read_lines = saved


# a written list: `write_edge_list(Graph.from_edges(5, [(0, 1), (1, 2), (3, 4)]))`
_WRITTEN = "# n=5\n0 1\n1 2\n3 4\n"


@pytest.mark.parametrize(
    "text",
    [
        "# note\n" + _WRITTEN,  # one extra comment line, before the header
        _WRITTEN.replace("1 2\n", "1 2\n# note\n"),  # or among the data
        _WRITTEN + "#\n",
        _WRITTEN + "# n=7\n",  # a later header, which the loop reads last
        _WRITTEN + "# n=3\n",  # one that refuses the edge (3, 4)
        _WRITTEN.replace("# n=5", "# n=4"),  # the writer's header refusing it
        _WRITTEN.replace("# n=5", "#n=5"),
        _WRITTEN.replace("# n=5", "#  n=5"),
        _WRITTEN.replace("# n=5", "# n=5 "),
    ],
)
def test_only_the_writers_form_takes_the_numpy_pass(text):
    from sslab.graphs import _read_lines, _read_plain

    assert _read_plain(text) is None
    assert read_outcome(read_edge_list, text) == read_outcome(_read_lines, text)


@pytest.mark.parametrize(
    "text, line", [("# n=100000000000\n0 1\n", 1), ("0 1\n1 99999999999\n", 2)]
)
def test_vertex_count_past_memory_is_refused_at_its_line(text, line):
    # the CSR row pointer would take 8 * (10^11 + 1) bytes, so the reader
    # refuses the count instead of asking numpy for an array that size
    import tracemalloc

    from sslab.graphs import _read_plain

    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as exc:
            read_edge_list(text)
        assert _read_plain(text) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.line == line
    message = f"line {line}: vertex count 100000000000 needs a 800000000008-byte row pointer"
    assert str(exc.value).startswith(message)
    assert str(exc.value).endswith(" bytes of physical memory")
    assert peak < 10**6
    # an error of from_edges comes first, with its own message and line
    with pytest.raises(ParseError, match="^line 2: loop at vertex 0$"):
        read_edge_list("# n=100000000000\n0 0\n")
    assert read_edge_list("# n=1000000\n0 1\n") == Graph.from_edges(10**6, [(0, 1)])


def test_memory_check_reads_the_physical_memory(monkeypatch):
    import os

    from sslab.graphs import _read_plain

    # 100 pages of 8 bytes hold the row pointer of 99 vertices, not of 100
    monkeypatch.setattr(os, "sysconf", {"SC_PHYS_PAGES": 100, "SC_PAGE_SIZE": 8}.__getitem__)
    assert _read_plain("# n=99\n0 1\n") == Graph.from_edges(99, [(0, 1)])
    message = "^line 2: vertex count 100 needs a 808-byte row pointer, past the 800 bytes"
    with pytest.raises(ParseError, match=message):
        read_edge_list("0 1\n98 99\n1 2\n")

    # where `os.sysconf` lacks the names, the check is skipped
    def no_such_name(name):
        raise ValueError("unrecognized configuration name")

    monkeypatch.setattr(os, "sysconf", no_such_name)
    assert read_edge_list("# n=100000000000\n0 1\n").n == 10**11
    monkeypatch.delattr(os, "sysconf")
    assert read_edge_list("0 1\n1 99999999999\n").n == 10**11


# -- input already in the stored form ------------------------------------------


def sorting_from_edges(n, edges):
    """`from_edges` sorting every input: orient each row, `lexsort` the
    rows, and name the first repeat in input order."""
    pairs = edges if isinstance(edges, np.ndarray) else list(edges)
    try:
        e = np.array(pairs, dtype=np.intp).reshape(-1, 2)
        ok = bool(np.all(e[:, 0] != e[:, 1]) and np.all((e >= 0) & (e < n)))
    except OverflowError:
        ok = False
    if not ok:
        for i, (u, v) in enumerate(pairs):
            if u == v:
                raise GraphError(f"loop at vertex {u}", i)
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}", i)
    e = np.sort(e, axis=1)
    order = np.lexsort((e[:, 1], e[:, 0]))
    e = e[order]
    repeats = np.flatnonzero((e[1:, 0] == e[:-1, 0]) & (e[1:, 1] == e[:-1, 1])) + 1
    if len(repeats):
        raise GraphError("duplicate edge", int(order[repeats].min()))
    return Graph(n, e)


def build_outcome(build, n, edges):
    """The graph `build` makes, or its error's message and position."""
    try:
        return build(n, edges)
    except GraphError as exc:
        return str(exc), exc.position


@st.composite
def stored_form_variants(draw):
    """(n, edges): a graph's rows in the stored form, or that form nearly
    kept: two neighbouring rows swapped, one row or every row reversed, a
    row repeated, or a loop or out-of-range row put in."""
    n, edges = draw(edge_lists(max_n=20))
    rows = sorted((min(u, v), max(u, v)) for u, v in edges)
    kind = draw(st.sampled_from(["stored", "swap", "flip", "reversed", "repeat", "bad"]))
    if kind == "swap" and len(rows) > 1:
        i = draw(st.integers(0, len(rows) - 2))
        rows[i], rows[i + 1] = rows[i + 1], rows[i]
    elif kind == "flip" and rows:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = rows[i][::-1]
    elif kind == "reversed":
        rows = [(v, u) for u, v in rows]
    elif kind == "repeat" and rows:
        i = draw(st.integers(0, len(rows) - 1))
        rows.insert(draw(st.integers(0, len(rows))), rows[i])
    elif kind == "bad":
        bad = draw(st.sampled_from([(0, 0), (0, n), (-1, 0)]))
        rows.insert(draw(st.integers(0, len(rows))), bad)
    return n, rows


@settings(max_examples=300, deadline=None)
@given(stored_form_variants(), st.booleans())
def test_from_edges_agrees_with_the_sorting_path(case, as_array):
    n, rows = case
    edges = np.array(rows, dtype=np.intp).reshape(-1, 2) if as_array else rows
    got = build_outcome(Graph.from_edges, n, edges)
    assert got == build_outcome(sorting_from_edges, n, edges)
    if isinstance(got, Graph):
        check_stored_form(got)
        if as_array:  # a copy: the caller's array stays its own
            assert not np.shares_memory(got.edge_array, edges)
            assert edges.flags.writeable
