"""Perron data, split-graph spectral radii, p->q norms, singular data, cuts."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslab import (
    cut_diagnostics,
    heavy_prune,
    opnorm,
    perron,
    row_cover_analyze,
    split_lambda,
    top_singular,
)
from sslab.graphs import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    path,
    sample_gnm,
    split_graph,
    star,
    union,
)
from sslab.homcounts import _refine
from sslab import spectra
from sslab.spectra import (
    ConvergenceError,
    NoEdgesError,
    RegimeError,
    SpectraError,
    incidence_matrix,
)
from conftest import csr_rows, dense_adjacency, random_graph


def eig_lambda(g) -> float:
    return float(np.max(np.linalg.eigvalsh(dense_adjacency(g))))


class TestPerron:
    def test_oracle_equivalence_200(self):
        for s in range(200):
            g = random_graph(900 + s, 12)
            pd = perron(g)
            assert abs(pd.lam - eig_lambda(g)) < 1e-8

    def test_solves_compare_and_hash(self):
        # equality and hashing ignore the block and compare x by its bytes
        first, second = perron(star(5)), perron(star(5))
        assert first == second and hash(first) == hash(second)
        assert len({first, second}) == 1
        assert first != perron(star(6))
        assert first != perron(path(5))
        assert replace(first, x=np.nextafter(first.x, 1.0)) != first  # one ulp
        assert first != "not a solve"
        trace = heavy_prune(split_graph(2, 40), 2)
        assert trace.final_perron is not None
        assert trace == heavy_prune(split_graph(2, 40), 2)

    def test_the_iteration_count_is_not_part_of_a_solve(self):
        # ARPACK's matvec count on one CSR varies between runs of a process
        # while lam, x and the residual keep their bits
        pd = perron(split_graph(2, 151))
        recount = replace(pd, iterations=pd.iterations + 1)
        assert pd == recount and hash(pd) == hash(recount)
        others = [replace(pd, lam=np.nextafter(pd.lam, 0.0)),
                  replace(pd, x=np.nextafter(pd.x, 1.0)),
                  replace(pd, x=pd.x.astype(np.float32)),
                  replace(pd, component=pd.component[:-1]),
                  replace(pd, residual=pd.residual * 2 + 1e-300),
                  replace(pd, margin=1.0)]
        for other in others:
            assert replace(other, iterations=pd.iterations) != pd
        assert len({pd, recount, *others}) == len(others) + 1

    def test_unit_nonnegative_vector(self):
        for s in range(30):
            g = random_graph(50 + s, 10)
            pd = perron(g)
            assert abs(np.linalg.norm(pd.x) - 1) < 1e-12
            assert np.all(pd.x >= 0)
            assert pd.residual <= 1e-10

    def test_lambda_bounds(self):
        # 2m/n <= lambda <= sqrt(2m)
        for s in range(50):
            g = random_graph(300 + s, 12)
            pd = perron(g)
            m = g.edge_count
            assert 2 * m / g.n - 1e-9 <= pd.lam <= math.sqrt(2 * m) + 1e-9

    def test_disconnected_picks_max_component(self):
        g = union(path(2), complete(4))
        pd = perron(g)
        assert abs(pd.lam - 3.0) < 1e-9
        assert pd.component == (2, 3, 4, 5)
        assert all(pd.x[v] == 0 for v in (0, 1))

    def test_tie_breaks_to_smallest_component(self):
        g = union(complete(3), complete(3))
        pd = perron(g)
        assert pd.component == (0, 1, 2)
        assert all(pd.x[v] == 0 for v in (3, 4, 5))

    def test_support_single_component(self):
        g = union(cycle(4), complete(3))
        pd = perron(g)
        comp = pd.component
        assert all((pd.x[v] > 0) == (v in comp) for v in range(g.n))

    def test_bipartite_no_oscillation(self):
        pd = perron(complete_bipartite(3, 5))
        assert abs(pd.lam - math.sqrt(15)) < 1e-9

    def test_warm_start(self):
        g = split_graph(3, 500)
        pd = perron(g)
        warm = perron(g, x0=pd.x)
        assert abs(warm.lam - pd.lam) < 1e-10
        # Lanczos matvecs, the same count from the Perron vector here
        assert 0 < warm.iterations <= pd.iterations

    def test_star_large_converges_at_default_tol(self):
        # absolute residual floors above 1e-10 here; the relative test passes
        pd = perron(star(3470))
        assert abs(pd.lam - math.sqrt(3470)) < 1e-8

    def test_no_edges_rejected(self):
        with pytest.raises(NoEdgesError):
            perron(Graph.from_edges(3, []))


def reference_lanczos(adj, v0, tol):
    """The Lanczos solve as it was before it counted matvecs: `eigsh` on
    the CSR itself (the fallbacks, which never ran here, left out)."""
    from scipy.sparse.linalg import eigsh

    vals, vecs = eigsh(adj, k=1, which="LA", v0=v0, tol=0)
    x = vecs[:, 0]
    if x.sum() < 0:
        x = -x
    np.clip(x, 0.0, None, out=x)
    x /= np.linalg.norm(x)
    ax = adj @ x
    lam = float(x @ ax)
    return lam, x, float(np.linalg.norm(ax - lam * x)) / max(1.0, lam)


@st.composite
def lanczos_blocks(draw):
    """A connected block of 65 vertices or more (the Lanczos side of the
    switch) and a unit nonnegative start on it."""
    kind = draw(st.sampled_from(["star", "split", "cycle", "gnm"]))
    if kind == "star":
        g = star(draw(st.integers(min_value=64, max_value=300)))
    elif kind == "split":
        g = split_graph(draw(st.integers(2, 4)), draw(st.integers(min_value=200, max_value=900)))
    elif kind == "cycle":
        g = cycle(draw(st.integers(min_value=65, max_value=200)))
    else:
        n = draw(st.integers(min_value=65, max_value=150))
        g = sample_gnm(n, 4 * n, draw(st.integers(0, 2**32)))
    comp = max(g.components, key=len)
    if len(comp) <= 64:
        g = union(g, star(64))
        comp = g.components[-1]
    adj = g.sparse_adjacency()[list(comp)][:, list(comp)]
    if draw(st.booleans()):
        v0 = np.full(len(comp), 1.0 / math.sqrt(len(comp)))
    else:
        v0 = np.random.default_rng(draw(st.integers(0, 2**32))).uniform(0.5, 1.5, len(comp))
        v0 /= np.linalg.norm(v0)
    return adj, v0


@settings(max_examples=40, deadline=None)
@given(lanczos_blocks())
def test_lanczos_counts_matvecs_and_keeps_the_csr_solve_bits(case):
    from sslab.spectra import _lanczos_top

    adj, v0 = case
    assert adj.shape[0] > 64
    lam, x, res, matvecs = _lanczos_top(adj, v0, 1e-10)
    want = reference_lanczos(adj, v0, 1e-10)
    assert (np.float64(lam).tobytes(), x.tobytes(), res) == (
        np.float64(want[0]).tobytes(), want[1].tobytes(), want[2])
    assert matvecs > 0


def _int64_indices(a):
    a = a.copy()
    a.indptr, a.indices = a.indptr.astype(np.int64), a.indices.astype(np.int64)
    return a


def _deleted_block(g, u, v, size):
    """The CSR of g's one block less the edge uv, of `size` vertices."""
    from sslab.spectra import _Block

    block = _Block(g.sparse_adjacency(), range(g.n))
    assert block.delete(u, v) == [block] and block.a.shape == (size, size)
    return block.a


@pytest.mark.parametrize(
    "adj",
    [
        sample_gnm(120, 700, 5).sparse_adjacency(),
        _int64_indices(sample_gnm(120, 700, 5).sparse_adjacency()),
        # two entries masked out of the block's CSR
        _deleted_block(split_graph(2, 200), 0, 1, split_graph(2, 200).n),
        # a pendant's row and column dropped
        _deleted_block(Graph.from_edges(81, [(0, k) for k in range(1, 80)] + [(79, 80)]), 79, 80, 80),
    ],
    ids=["int32", "int64", "masked", "pendant"],
)
def test_the_kernel_operator_keeps_the_dot_bits_and_counts(adj):
    from sslab.spectra import _csr_operator

    op = _csr_operator()(adj)
    assert _csr_operator() is type(op)  # one class for every solve
    rng = np.random.default_rng(adj.shape[0])
    for k in range(1, 6):
        v = rng.standard_normal(adj.shape[0])
        assert op.matvec(v).tobytes() == adj.dot(v).tobytes()
        assert op.matvecs == k


def _counting_eigsh(products, result):
    """A stand-in `eigsh` that makes `products` matvecs and then raises
    `ArpackNoConvergence` (result None) or returns the eigenvector result."""
    from scipy.sparse.linalg import ArpackNoConvergence

    def eigsh(op, k, which, v0, tol):
        for _ in range(products):
            op.matvec(v0)
        if result is None:
            raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((len(v0), 0)))
        return np.ones(1), result(len(v0)).reshape(-1, 1)

    return eigsh


@pytest.mark.parametrize(
    "result, restart",
    [
        (None, "v0"),  # ARPACK gives up
        (np.zeros, "v0"),  # the clipped vector is 0
        (lambda n: np.eye(n)[0], "x"),  # the residual is above tol
    ],
    ids=["no-convergence", "zero-vector", "residual"],
)
def test_a_fallback_counts_the_solver_matvecs(monkeypatch, result, restart):
    import scipy.sparse.linalg

    from sslab.spectra import _lanczos_top, _power_iterate

    adj = split_graph(2, 200).sparse_adjacency()
    n = adj.shape[0]
    v0 = np.full(n, 1.0 / math.sqrt(n))
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", _counting_eigsh(7, result))
    lam, x, res, iters = _lanczos_top(adj, v0, 1e-10)
    want = _power_iterate(adj, v0 if restart == "v0" else np.eye(n)[0], 1e-10)
    assert (lam, x.tobytes(), res) == (want[0], want[1].tobytes(), want[2])
    assert iters == 7 + want[3]
    # and so does the Perron data of a graph whose block takes that path
    assert perron(split_graph(2, 200)).iterations == 7 + want[3]


def test_importing_the_cli_leaves_the_eigensolver_unloaded():
    # CLI start-up, and the benchmark's setup_s, leave scipy.sparse.linalg
    # to the first Lanczos solve
    import os
    import subprocess
    import sys

    code = "import sys, sslab.cli; print('scipy.sparse.linalg' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        os.path.join(os.path.dirname(__file__), os.pardir, "src"), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout == "False\n"


class TestSplitLambda:
    def test_divisible_closed_form(self):
        for k in range(1, 7):
            base = k * (k - 1) // 2
            for q in (0, 1, 5, 40):
                m = base + k * q
                if m < 1:
                    continue
                closed = (k - 1 + math.sqrt(4 * m - k * k + 1)) / 2
                assert abs(split_lambda(k, m) - closed) < 1e-12

    def test_matches_dense_eigensolver(self):
        for k in range(1, 7):
            base = max(1, k * (k - 1) // 2)
            for m in range(base, base + 40):
                g = split_graph(k, m)
                assert abs(split_lambda(k, m) - eig_lambda(g)) < 1e-10

    def test_matches_the_exact_characteristic_polynomial(self):
        # the equitable partition of S_{k,m}, by colour refinement of its
        # own adjacency; the largest real root of the quotient matrix's
        # characteristic polynomial, exact in sympy, is its spectral radius
        sympy = pytest.importorskip("sympy")
        for k in range(1, 7):
            base = k * (k - 1) // 2
            for m in range(base + 1, base + 3 * k + 1):
                rows = csr_rows(split_graph(k, m))
                color = _refine(rows, [0] * len(rows))
                cells = sorted(set(color))
                rep = [color.index(c) for c in cells]
                b = sympy.Matrix([[sum(color[u] == c for u in rows[v]) for c in cells]
                                  for v in rep])
                x = sympy.Symbol("x")
                top = max(sympy.real_roots(b.charpoly(x).as_expr(), x))
                want = float(top.evalf(30))
                assert abs(split_lambda(k, m) - want) <= 1e-12 * want

    def test_discrete_increment_bound(self):
        rng = random.Random(4)
        for k in range(1, 6):
            base = k * (k - 1) // 2
            for _ in range(40):
                m = rng.randint(base + 1, 5000)
                gap = split_lambda(k, m) - split_lambda(k, m - 1)
                assert gap >= 1 / (2 * k * (math.sqrt(m) + k)) - 1e-12

    def test_asymptotic_sanity(self):
        # |lambda(S_{k,m}) - sqrt(m) - (k-1)/2| <= C_k / sqrt(m)
        for k in range(1, 7):
            worst = 0.0
            for m in [1000, 3162, 10_000, 100_000, 1_000_000]:
                diff = abs(split_lambda(k, m) - math.sqrt(m) - (k - 1) / 2)
                worst = max(worst, diff * math.sqrt(m))
            assert worst < 10 * k * k  # measured C_k stays small and finite


class TestOpNorm:
    def test_single_edge_4_3_to_4(self):
        est = opnorm(path(2), 4 / 3, 4, perron(path(2)))
        assert abs(est.value - 1.0) < 1e-8

    def test_two_two_is_spectral_radius(self):
        g = random_graph(11, 9)
        est = opnorm(g, 2, 2, perron(g))
        assert abs(est.value - eig_lambda(g)) < 1e-9
        assert est.restarts_used == 0

    def test_witness_invariant(self):
        for s in range(20):
            g = random_graph(600 + s, 9)
            pd = perron(g)
            for p, q in [(4 / 3, 4), (1.5, 3), (2, 5)]:
                est = opnorm(g, p, q, pd)
                a = dense_adjacency(g)
                assert abs(np.linalg.norm(est.witness, ord=p) - 1) < 1e-9
                achieved = np.linalg.norm(a @ est.witness, ord=q)
                assert abs(achieved - est.value) < 1e-9
                assert est.value <= math.sqrt(2 * g.edge_count) * g.n + 1e-9

    def test_lower_bounds_random_probes(self):
        # the certified value dominates every random feasible probe
        rng = np.random.default_rng(9)
        for s in range(10):
            g = random_graph(70 + s, 8)
            a = dense_adjacency(g)
            est = opnorm(g, 1.5, 3, perron(g))
            for _ in range(200):
                x = rng.standard_normal(g.n)
                x /= np.linalg.norm(x, ord=1.5)
                assert np.linalg.norm(a @ x, ord=3) <= est.value + 1e-7

    @pytest.mark.parametrize(
        "m, value", [(10**4, 21.5435), (2 * 10**4, 27.1435), (10**5, 46.4157)]
    )
    def test_large_split_hosts_converge(self, m, value):
        # the iterate values grow with the host, and so does their float
        # roundoff: on S_{3,2*10^4} one step drops by 1.0e-12 on 27.14,
        # which an absolute 1e-12 slack took for a decrease
        g = split_graph(3, m)
        est = opnorm(g, 1.5, 3, perron(g))
        assert est.converged and abs(est.value - value) < 1e-4

    def test_regime_enforced(self):
        for p, q in [(1, 2), (3, 4), (2, math.inf), (2.5, 3)]:
            with pytest.raises(RegimeError):
                opnorm(path(2), p, q, perron(path(2)))

    def test_no_edges_rejected(self):
        # an edgeless host has no Perron data, and opnorm refuses it too
        g = Graph.from_edges(2, [])
        with pytest.raises(NoEdgesError):
            perron(g)
        with pytest.raises(NoEdgesError):
            opnorm(g, 1.5, 3, perron(path(2)))


def reference_opnorm(g, p, q, tol=1e-10):
    """The p->q norm as `opnorm` computed it on the dense n x n adjacency
    before it iterated on the CSR: the same starts, steps and stopping rule."""
    a = dense_adjacency(g)
    p_conj = p / (p - 1)
    rng = np.random.default_rng(12345)
    starts = [np.ones(g.n), perron(g, tol=max(tol, 1e-8)).x + 1e-6]
    starts += [rng.uniform(0.5, 1.5, size=g.n) for _ in range(2)]
    best = -1.0
    for x in starts:
        x = np.abs(x) / np.linalg.norm(np.abs(x), ord=p)
        prev = -1.0
        while True:
            y = a @ x
            val = float(np.linalg.norm(y, ord=q))
            if prev >= 0 and val - prev < tol:
                break
            prev = val
            z = a @ (np.sign(y) * np.abs(y) ** (q - 1))
            x = np.sign(z) * np.abs(z) ** (p_conj - 1)
            x /= np.linalg.norm(x, ord=p)
        best = max(best, float(np.linalg.norm(a @ x, ord=q)))
    return best


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([(4 / 3, 4), (1.5, 3), (2, 5), (1.25, 2)]))
def test_opnorm_matches_the_dense_loop(seed, pq):
    # the loop stops once a step gains less than tol = 1e-10, and the two
    # summation orders can stop one step apart: on 6000 hosts like these the
    # values agreed within 1e-12 relative on all but two, worst 9.6e-12
    g = random_graph(seed, 16)
    est = opnorm(g, *pq, perron(g, tol=1e-8))
    assert est.restarts_used == 4
    assert abs(est.value - reference_opnorm(g, *pq)) <= 1e-10 * est.value


def dense_incidence(rows, cols, g):
    """The rows x cols incidence matrix as a dense array, the way it was
    built before the sparse slice became the only incidence."""
    return g.sparse_adjacency()[g.vertex_list(rows)][:, g.vertex_list(cols)].toarray()


def reference_top_singular(rows, cols, g):
    """The dense top singular triple that `top_singular` must reproduce
    bit for bit: power iteration on M^T M of the dense M."""
    rows, cols = sorted(set(rows)), sorted(set(cols))
    m = dense_incidence(rows, cols, g)
    mt_m = m.T @ m
    v = np.full(len(cols), 1.0 / math.sqrt(len(cols)))
    if not m.any():
        return 0.0, v, np.full(len(rows), 1.0 / math.sqrt(len(rows)))
    sig2 = 0.0
    for _ in range(100000):
        w = mt_m @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            break
        v_new = w / nw
        sig2_new = float(v_new @ (mt_m @ v_new))
        done = abs(sig2_new - sig2) <= 1e-14 * max(1.0, sig2_new)
        v, sig2 = v_new, sig2_new
        if done:
            break
    sigma1 = math.sqrt(max(sig2, 0.0))
    mv = m @ v
    nu = np.linalg.norm(mv)
    u = mv / nu if nu > 0 else np.full(len(rows), 1.0 / math.sqrt(len(rows)))
    return sigma1, v, u


def assert_same_bits(got, want):
    assert got[0].hex() == want[0].hex()
    for x, y in zip(got[1:], want[1:]):
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


@st.composite
def sides_on_hosts(draw):
    """A host on 2..24 vertices with disjoint sides (rows, cols), each given
    unsorted and with repeats.  Half the time every row has the same
    neighbours among the columns (K_{2,q}-style identical rows)."""
    n = draw(st.integers(min_value=2, max_value=24))
    labels = draw(st.lists(st.sampled_from("RC-"), min_size=n, max_size=n))
    rows = [v for v in range(n) if labels[v] == "R"]
    cols = [v for v in range(n) if labels[v] == "C"]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.sets(st.sampled_from(pairs), max_size=60))
    if draw(st.booleans()):
        common = draw(st.sets(st.sampled_from(cols))) if cols else set()
        crossing = {(min(r, c), max(r, c)) for r in rows for c in cols}
        edges = (edges - crossing) | {(min(r, c), max(r, c)) for r in rows for c in common}
    rnd = draw(st.randoms(use_true_random=False))
    rows, cols = rows + rows[: len(rows) // 2], cols + cols[: len(cols) // 2]
    rnd.shuffle(rows)
    rnd.shuffle(cols)
    return Graph.from_edges(n, edges), rows, cols


class TestTopSingular:
    def test_matches_numpy_svd(self):
        for s in range(25):
            g = random_graph(400 + s, 10)
            verts = list(range(g.n))
            rng = random.Random(s)
            cut = rng.randint(1, g.n - 1)
            m = incidence_matrix(verts[:cut], verts[cut:], g)
            sigma, v, u = top_singular(m)
            ref = np.linalg.svd(m.toarray(), compute_uv=False)
            ref_top = ref[0] if len(ref) else 0.0
            assert abs(sigma - ref_top) < 1e-9

    def test_star_value(self):
        g = star(6)
        sigma, v, u = top_singular(incidence_matrix([0], list(range(1, 7)), g))
        assert abs(sigma - math.sqrt(6)) < 1e-12
        assert np.all(v >= 0)

    def test_overlap_rejected(self):
        with pytest.raises(SpectraError, match="disjoint"):
            incidence_matrix([0, 1], [1, 2], star(3))

    def test_empty_side_rejected(self):
        for rows, cols in (([], [1, 2]), ([0], [])):
            with pytest.raises(SpectraError, match="empty"):
                top_singular(incidence_matrix(rows, cols, star(3)))

    def test_stops_at_the_iteration_cap(self, monkeypatch):
        # sigma1 feeds the row cover's theta, floor_l and copy_bound, so an
        # unsettled one is an error, not a value
        g = sample_gnm(40, 300, 3)
        monkeypatch.setattr(spectra, "_MAX_ITER", 3)
        with pytest.raises(ConvergenceError, match="did not settle in 3 iterations") as e:
            row_cover_analyze(g, range(12), range(12, 40), 2)
        assert e.value.residual > 1e-14

    @settings(max_examples=150, deadline=None)
    @given(sides_on_hosts())
    def test_matches_the_dense_reference_bit_for_bit(self, case):
        g, rows, cols = case
        if rows and cols:
            got = top_singular(incidence_matrix(rows, cols, g))
            assert_same_bits(got, reference_top_singular(rows, cols, g))

    @pytest.mark.parametrize("q", [1, 5, 20, 100])
    def test_identical_rows_match_the_reference_with_zero_epsilon(self, q):
        g = complete_bipartite(2, q)
        rows, cols = [0, 1], list(range(2, q + 2))
        got = top_singular(incidence_matrix(rows, cols, g))
        assert_same_bits(got, reference_top_singular(rows, cols, g))
        # the row cover's epsilon = max(0, 1 - sigma1^2 / e(A, D)) is exactly 0
        assert got[0] ** 2 >= 2 * q


class TestCutDiagnostics:
    def test_fuzz_slacks(self):
        rng = random.Random(12)
        for s in range(200):
            g = random_graph(1300 + s, 10)
            pd = perron(g)
            cut = rng.randint(1, g.n - 1)
            verts = list(range(g.n))
            rng.shuffle(verts)
            diag = cut_diagnostics(g, verts[:cut], pd)
            assert diag.slack_a >= -1e-9
            assert diag.slack_b >= -1e-9
            assert diag.rho * diag.rho <= diag.m_uw + 1e-9
            if diag.slack_c is not None:
                assert diag.slack_c >= -1e-9

    def test_star_center_equalities(self):
        g = star(8)
        pd = perron(g)
        diag = cut_diagnostics(g, [0], pd)
        # lambda_U = lambda_W = 0, rho = lambda = sqrt(8): equality in (b), (c)
        assert abs(diag.slack_b) < 1e-9
        assert diag.slack_c is not None and abs(diag.slack_c) < 1e-9

    def test_one_incidence_and_no_edge_masks(self, monkeypatch):
        import sslab.spectra as spectra

        built = []

        def counted(*args):
            built.append(args)
            return incidence_matrix(*args)

        monkeypatch.setattr(spectra, "incidence_matrix", counted)
        g = star(8)
        diag = cut_diagnostics(g, [0], perron(g))
        assert len(built) == 1 and diag.m_uw == 8

    def test_trivial_partition_rejected(self):
        g = star(3)
        with pytest.raises(SpectraError):
            cut_diagnostics(g, [], perron(g))
        with pytest.raises(SpectraError):
            cut_diagnostics(g, list(range(g.n)), perron(g))
