"""The A/C/D partition, its T-checks, the row-cover edge counts and the
aligned rows, checked against plain oracles: one Python loop over the
host's edges (or the A rows) per quantity, the way the definitions read."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslab import Graph, complete_bipartite, split_graph
from sslab.spectra import PerronData, incidence_matrix, top_singular
from sslab.supersat import (
    SupersatError,
    TooDelocalizedError,
    acd_partition,
    heavy_prune,
    partition_pruned,
    row_cover_analyze,
    verify_T,
)
from conftest import aligned_rows
from test_golden_reports import HOSTS

# -- oracles ---------------------------------------------------------------


def neighbours(h):
    """Each vertex's neighbour set, from the edge list."""
    nbrs = [set() for _ in range(h.n)]
    for u, v in h.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def oracle_verify_T(h, a_set, c_set, d_set):
    a, c, d = set(a_set), set(c_set), set(d_set)
    t1 = t2 = t3 = True
    for u, v in h.edges:
        if u in d and v in d:
            t1 = False
        if (u in c and v in d) or (u in d and v in c):
            t2 = False
        if not ((u in c and v in c) or u in a or v in a):
            t3 = False
    return t1, t2, t3


def oracle_acd(h, x, k_levels, ell, index_set):
    """s_sums, i*, A/C/D and the A-C and C-C edge counts of the level-set
    partition with K = k_levels levels and window `index_set`."""
    sup = float(max(x))

    def theta(hh):
        return 2.0**-hh * sup

    def c_band(i):
        return {v for v in range(h.n) if theta(k_levels - i) < x[v] <= theta(i)}

    def b_shell(i):
        return {v for v in range(h.n) if theta(i) < x[v] <= theta(i - 1)}

    f_sizes = {}
    for i in range(min(index_set) - ell + 1, max(index_set) + 1):
        ci, bi = c_band(i), b_shell(i)
        f_sizes[i] = sum(
            1 for u, v in h.edges if (u in ci and v in bi) or (u in bi and v in ci)
        )
    s_sums = {i: sum(f_sizes[i - j] for j in range(ell)) for i in index_set}
    i_star = min(index_set, key=lambda i: (s_sums[i], i))
    s_thr, r_thr = theta(i_star), theta(k_levels - i_star)
    a = tuple(v for v in range(h.n) if x[v] > s_thr)
    c = tuple(v for v in range(h.n) if r_thr < x[v] <= s_thr)
    d = tuple(v for v in range(h.n) if x[v] <= r_thr)
    aset, cset = set(a), set(c)
    e_ac = sum(
        1 for u, v in h.edges if (u in aset and v in cset) or (u in cset and v in aset)
    )
    e_core = sum(1 for u, v in h.edges if u in cset and v in cset)
    return s_sums, i_star, a, c, d, e_ac, e_core


def oracle_row_cover(h, a_set, d_set, r_set):
    """e(A, D), per-row D-degrees, e(A \\ R, D), B = the common D-neighbours
    of R, e(A \\ R, B) and e(R, D \\ B) for the aligned rows R."""
    a_sorted = sorted(set(a_set))
    dset, nbrs = set(d_set), neighbours(h)
    deg_d = {a: sum(1 for w in nbrs[a] if w in dset) for a in a_sorted}
    not_r = [a for a in a_sorted if a not in set(r_set)]
    b = set.intersection(*({w for w in nbrs[a] if w in dset} for a in r_set))
    return {
        "e_ad": sum(deg_d.values()),
        "deg_d": deg_d,
        "e_uncovered": sum(deg_d[a] for a in not_r),
        "b_set": tuple(sorted(b)),
        "e_ar_b": sum(1 for a in not_r for w in nbrs[a] if w in b),
        "e_r_dnb": sum(1 for a in r_set for w in nbrs[a] if w in dset and w not in b),
    }


def oracle_aligned(h, a_sorted, d_sorted, theta, v_right):
    """The aligned rows R: one dense incidence row per A vertex, normalized
    and dotted with the top right singular vector."""
    d_index = {v: j for j, v in enumerate(d_sorted)}
    nbrs = neighbours(h)
    r_set = []
    for a in a_sorted:
        cols = [d_index[w] for w in nbrs[a] if w in d_index]
        if not cols:
            continue
        row = np.zeros(len(d_sorted))
        row[cols] = 1.0
        row /= np.linalg.norm(row)
        if float(row @ v_right) ** 2 >= 1 - theta - 1e-12:
            r_set.append(a)
    return r_set


# -- checks ----------------------------------------------------------------


def check_acd(h, eta, pd):
    """acd_partition on (h, eta, pd) agrees with the oracles, or raises
    TooDelocalizedError; returns the partition or None."""
    try:
        acd = acd_partition(h, eta, pd=pd)
    except TooDelocalizedError:
        return None
    s_sums, i_star, a, c, d, e_ac, e_core = oracle_acd(
        h, pd.x, acd.k_levels, acd.ell, acd.index_set
    )
    assert acd.s_sums == s_sums
    assert all(type(s) is int for s in acd.s_sums.values())
    assert acd.i_star == i_star
    assert (acd.a_set, acd.c_set, acd.d_set) == (a, c, d)
    assert all(type(v) is int for v in acd.a_set + acd.c_set + acd.d_set)
    assert (acd.e_ac, acd.e_core) == (e_ac, e_core)
    assert type(acd.e_ac) is int and type(acd.e_core) is int
    assert (acd.t1_ok, acd.t2_ok, acd.t3_ok) == oracle_verify_T(h, a, c, d)
    return acd


def check_row_cover(h, a_set, d_set, t):
    """row_cover_analyze agrees with the oracle on every edge count it
    reports, or raises SupersatError; returns the outcome or None."""
    try:
        rc = row_cover_analyze(h, a_set, d_set, t)
    except SupersatError as exc:
        if "no A-D edges" in str(exc):
            assert oracle_row_cover(h, a_set, d_set, list(a_set)[:1])["e_ad"] == 0
        return None
    want = oracle_row_cover(h, a_set, d_set, rc.r_set)
    assert rc.e_ad == want["e_ad"] and rc.e_uncovered == want["e_uncovered"]
    assert type(rc.e_ad) is int and type(rc.e_uncovered) is int
    if rc.variant == "many-copies":
        assert rc.d_star == min(want["deg_d"][a] for a in rc.r_set)
        assert type(rc.d_star) is int
    else:
        assert rc.b_set == want["b_set"]
        assert (rc.e_ar_b, rc.e_r_dnb) == (want["e_ar_b"], want["e_r_dnb"])
        assert all(type(v) is int for v in (*rc.b_set, rc.e_ar_b, rc.e_r_dnb))
    return rc


THETAS = (0.0, 1e-9, 0.01, 0.1, 0.3, 0.7, 1.0)


def check_aligned(h, a_set, d_set):
    """aligned_rows at every theta of THETAS, and row_cover_analyze's R at
    its own theta, agree with the oracle; False when there are no A-D
    edges."""
    a_sorted, d_sorted = sorted(set(a_set)), sorted(set(d_set))
    dset, nbrs = set(d_sorted), neighbours(h)
    if not any(w in dset for a in a_sorted for w in nbrs[a]):
        return False
    _, v_right, _ = top_singular(incidence_matrix(a_sorted, d_sorted, h))
    for theta in THETAS:
        r_set, (_, v, _) = aligned_rows(h, a_set, d_set, theta)
        assert np.array_equal(v, v_right)
        assert r_set == oracle_aligned(h, a_sorted, d_sorted, theta, v_right)
        assert all(type(a) is int for a in r_set)
    rc = row_cover_analyze(h, a_set, d_set, 2)
    assert rc.r_set == tuple(oracle_aligned(h, a_sorted, d_sorted, rc.theta, v_right))
    return True


# -- hosts -----------------------------------------------------------------


@st.composite
def connected_hosts(draw):
    """A random tree on 2..30 vertices plus random chords: connected, so
    every edge has a positive Perron product.  Each vertex hangs off one of
    the first `hubs` vertices, so stars and near-stars occur."""
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(min_value=2, max_value=30))
    hubs = draw(st.integers(min_value=1, max_value=n))
    edges = {(rnd.randrange(min(v, hubs)), v) for v in range(1, n)}
    for _ in range(draw(st.integers(min_value=0, max_value=3 * n))):
        u, v = rnd.randrange(n), rnd.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, edges)


@settings(max_examples=80, deadline=None)
@given(connected_hosts(), st.integers(min_value=2, max_value=10))
def test_acd_partition_of_pruned_hosts_matches_the_oracle(h, log_inv_eta):
    eta = 10.0**-log_inv_eta
    trace = heavy_prune(h, 2, eta=eta)
    if not trace.emptied:
        check_acd(trace.final_graph, eta, trace.final_perron)


@settings(max_examples=120, deadline=None)
@given(connected_hosts(), st.data())
def test_acd_partition_of_spread_vectors_matches_the_oracle(h, data):
    # The counts read only x, so any positive unit vector will do.  One
    # spread over many dyadic levels fills A, C, D and every band, which the
    # Perron vectors of small hosts rarely do; whole-number depths put
    # entries exactly on the thresholds 2^-h L.  eta sits just below the
    # smallest edge product, so every edge is heavy.
    depth = st.one_of(st.integers(0, 40), st.floats(0, 14, allow_nan=False))
    x = np.array([2.0 ** -data.draw(depth) for _ in range(h.n)])
    x /= np.linalg.norm(x)
    e = h.edge_array
    shrink = data.draw(st.floats(min_value=0.01, max_value=0.99))
    eta = float((x[e[:, 0]] * x[e[:, 1]]).min()) * math.sqrt(h.edge_count) * shrink
    check_acd(h, eta, PerronData(1.0, x, tuple(range(h.n)), 0.0, 0))


@pytest.mark.parametrize("depth", [12, 14, 20, 31, 45, 60])
def test_entries_on_the_cuts_match_the_oracle(depth):
    # x_v = 2^-d L for every depth d in 0..depth, so an entry lies on every
    # cut theta_h that a vertex can reach, theta_i* and theta_(K-i*)
    # included.  Hubs at depths 0 and 1 carry one leaf per depth, and
    # chords join hub-0 leaves two depths apart or less with d1 + d2 <=
    # depth, so no edge product falls below the deepest leaf's.
    depths, edges, leaf = [0, 1], [(0, 1)], {}
    for d in range(1, depth + 1):
        for hub in (0, 1):
            if hub + d <= depth:
                depths.append(d)
                edges.append((hub, len(depths) - 1))
        leaf[d] = len(depths) - 2 if d < depth else len(depths) - 1
    for d1 in range(1, depth // 2 + 1):
        edges += [(leaf[d1], leaf[d2]) for d2 in (d1 + 1, d1 + 2) if d1 + d2 <= depth]
    h = Graph.from_edges(len(depths), edges)
    x = np.ldexp(1.0, -np.array(depths))
    x /= np.linalg.norm(x)
    e = h.edge_array
    eta = float((x[e[:, 0]] * x[e[:, 1]]).min()) * math.sqrt(h.edge_count) * 0.9
    acd = check_acd(h, eta, PerronData(1.0, x, tuple(range(h.n)), 0.0, 0))
    on_s = np.flatnonzero(x == acd.s_threshold).tolist()
    on_r = np.flatnonzero(x == acd.r_threshold).tolist()
    assert on_s and set(on_s) <= set(acd.c_set)  # x <= theta_i*: not in A
    assert on_r and set(on_r) <= set(acd.d_set)  # x <= theta_(K-i*): in D
    assert acd.e_core > 0 and any(acd.s_sums.values())


@settings(max_examples=80, deadline=None)
@given(connected_hosts(), st.data())
def test_verify_T_matches_the_oracle(h, data):
    labels = data.draw(st.lists(st.sampled_from("ACD"), min_size=h.n, max_size=h.n))
    a, c, d = ([v for v in range(h.n) if labels[v] == s] for s in "ACD")
    assert verify_T(h, a, c, d) == oracle_verify_T(h, a, c, d)


@settings(max_examples=100, deadline=None)
@given(connected_hosts(), st.data(), st.integers(min_value=2, max_value=5))
def test_row_cover_matches_the_oracle(h, data, t):
    labels = data.draw(st.lists(st.sampled_from("AD-"), min_size=h.n, max_size=h.n))
    a = [v for v in range(h.n) if labels[v] == "A"]
    d = [v for v in range(h.n) if labels[v] == "D"]
    if a and d:
        check_row_cover(h, a, d, t)


@settings(max_examples=100, deadline=None)
@given(connected_hosts(), st.data())
def test_aligned_rows_match_the_oracle(h, data):
    labels = data.draw(st.lists(st.sampled_from("AD-"), min_size=h.n, max_size=h.n))
    a = [v for v in range(h.n) if labels[v] == "A"]
    d = [v for v in range(h.n) if labels[v] == "D"]
    if a and d:
        check_aligned(h, a, d)


@pytest.mark.parametrize("a_size", [1, 2, 3, 5])
@pytest.mark.parametrize("b_size", [1, 2, 7, 40])
def test_aligned_rows_of_complete_bipartite_hosts(a_size, b_size):
    # every row is the all-ones row, so every theta, 0 included, keeps all
    h = complete_bipartite(a_size, b_size)
    a, d = list(range(a_size)), list(range(a_size, a_size + b_size))
    assert check_aligned(h, a, d)
    for theta in THETAS:
        assert aligned_rows(h, a, d, theta)[0] == a
    # a D side that misses part of the other side changes nothing
    assert aligned_rows(h, a, d[: (b_size + 1) // 2], 0.0)[0] == a


def test_golden_row_cover_hosts():
    d_cover = list(range(2, 12))
    for host, a, d in [("k25", [0, 1], [2, 3, 4, 5, 6]), ("cover", [0, 1], d_cover)]:
        for t in (2, 3):
            assert check_row_cover(HOSTS[host](), a, d, t) is not None
        assert check_aligned(HOSTS[host](), a, d)


@pytest.mark.parametrize(
    "host, eta", [("starmix", 1e-4), ("split300p", 1e-3), ("split60p", 1e-3)]
)
def test_pruned_golden_hosts(host, eta):
    trace = heavy_prune(HOSTS[host](), 2, eta=eta)
    acd = check_acd(trace.final_graph, eta, trace.final_perron)
    if acd is None:
        with pytest.raises(TooDelocalizedError):
            partition_pruned(trace)
        return
    assert acd == partition_pruned(trace)
    if acd.a_set and acd.d_set:
        check_row_cover(trace.final_graph, acd.a_set, acd.d_set, 2)


def test_pruned_split_hosts():
    rng = random.Random(909)
    for k in (2, 3):
        m = rng.randint(1800, 3000)
        trace = heavy_prune(split_graph(k, m), 2, eta=1e-3)
        acd = check_acd(trace.final_graph, 1e-3, trace.final_perron)
        assert acd is not None
        assert acd.s_threshold * acd.r_threshold < 1e-3 / math.sqrt(
            trace.final_graph.edge_count
        ) + 1e-15
