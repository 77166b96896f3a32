"""Edge distribution, entropy identity, rounding, regular subgraphs."""

import math
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslab import (
    build_regular,
    edge_distribution,
    entropy_gap,
    materialize_fk,
    perron,
    round_counts,
)
from sslab.cli import main
from sslab.graphs import CapExceededError, complete, cycle, path, star, union, write_edge_list
from sslab.regularize import RegularizeError, fk_tuples
from conftest import dense_adjacency, random_connected_graph, random_graph, tensor_power


def reference_edge_distribution(g):
    """(vertices, p, pi, lam) as `edge_distribution` built them before p
    became the component's CSR slice: the dense n0 x n0 block times the
    outer product of x, over lambda."""
    pd = perron(g, tol=1e-12)
    idx = list(pd.component)
    x = pd.x[idx]
    x /= np.linalg.norm(x)
    p = dense_adjacency(g)[np.ix_(idx, idx)] * np.outer(x, x) / pd.lam
    return pd.component, p, x * x, pd.lam


def reference_entropy_gap(p, pi):
    ent = [float(-(v * np.log(v)).sum()) for v in (p[p > 0], pi[pi > 0])]
    return ent[0] - ent[1]


def reference_n_mat(g, k):
    """`build_regular`'s rounded pair counts read from the dense p at the
    component's edges."""
    comp, p, _, _ = reference_edge_distribution(g)
    i, j = g.induced_subgraph(comp).edge_array.T
    n_mat = np.zeros(p.shape, dtype=np.int64)
    n_mat[i, j] = n_mat[j, i] = round_counts(2.0 * p[i, j], k // 2)
    return n_mat


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 6, 8]))
def test_sparse_p_matches_the_dense_reference(seed, k):
    # the CSR stores p row by row in column order, the order of p[p > 0]
    g = random_graph(seed, 16)
    d = edge_distribution(g)
    comp, p, pi, lam = reference_edge_distribution(g)
    assert d.vertices == comp and d.lam == lam and d.pi.tobytes() == pi.tobytes()
    assert d.p.has_sorted_indices and d.p.nnz == 2 * g.induced_subgraph(comp).edge_count
    assert d.p.data.tobytes() == p[p > 0].tobytes()
    assert d.p.toarray().tobytes() == p.tobytes()
    assert entropy_gap(d) == reference_entropy_gap(p, pi)
    b = build_regular(g, k)
    assert b.vertices == comp and b.lambda_k == lam**k
    assert b.n_mat.tobytes() == reference_n_mat(g, k).tobytes()


class TestEdgeDistribution:
    def test_probabilities_sum_to_one(self):
        for s in range(20):
            g = random_connected_graph(100 + s, 10)
            d = edge_distribution(g)
            assert d.p.sum() == pytest.approx(1.0, abs=1e-10)
            assert d.pi.sum() == pytest.approx(1.0, abs=1e-10)
            # marginals of p equal pi
            assert np.allclose(d.p @ np.ones(d.p.shape[1]), d.pi, atol=1e-10)

    def test_disconnected_uses_max_component(self):
        g = union(path(2), complete(4))
        d = edge_distribution(g)
        assert d.vertices == (2, 3, 4, 5)
        assert d.lam == pytest.approx(3.0)

    def test_entropy_identity_k12(self):
        d = edge_distribution(star(2))
        assert entropy_gap(d) == pytest.approx(math.log(math.sqrt(2)), abs=1e-12)

    def test_entropy_identity_random(self):
        for s in range(100):
            g = random_connected_graph(9000 + s, 12)
            d = edge_distribution(g)
            assert abs(entropy_gap(d) - math.log(d.lam)) < 1e-9


class TestRoundCounts:
    def test_basic(self):
        assert round_counts([0.5, 0.5], 3) == [2, 1]
        assert round_counts([1.0], 4) == [4]

    def test_validation(self):
        with pytest.raises(RegularizeError):
            round_counts([1.0], 0)

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=12),
        st.integers(min_value=1, max_value=30),
    )
    def test_properties(self, weights, s):
        total = sum(weights)
        if total == 0:
            weights = [1.0] * len(weights)
            total = float(len(weights))
        q = [w / total for w in weights]
        m = round_counts(q, s)
        assert sum(m) == s
        assert all(isinstance(x, int) and x >= 0 for x in m)
        for mi, qi in zip(m, q):
            assert abs(mi - s * qi) < 1 + 1e-9


class TestBuildRegular:
    def test_k2_single_edge(self):
        b = build_regular(path(2), 2)
        assert b.d_k == 1 and b.t_k_size == 2
        assert b.lambda_k == pytest.approx(1.0)

    def test_k12_k4_degree_two(self):
        b = build_regular(star(2), 4)
        assert b.d_k == 2
        assert b.t_k_size == 12

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no limit on int-to-text conversion"
    )
    @pytest.mark.parametrize("k", [20_000, 10**7])
    def test_a_type_class_past_the_digit_limit_is_refused(self, k, tmp_path, capsys):
        # on K_2, lambda = 1 leaves lambda^k in range, while |T_k| =
        # C(k, k/2) passes 4300 digits near k = 14 300: refused, from the
        # lgamma estimate, before any factorial
        host = tmp_path / "k2.txt"
        host.write_text(write_edge_list(complete(2)))
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            start = time.perf_counter()
            assert main(["regularize", "--in", str(host), "--k", str(k)]) == 2
            assert time.perf_counter() - start < 1
            err = capsys.readouterr().err
            assert err.startswith("error: |T_k| ~ 10^") and "internal" not in err
            # with no limit the class is built
            sys.set_int_max_str_digits(0)
            assert build_regular(path(2), 20_000).t_k_size == math.comb(20_000, 10_000)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_odd_k_rejected(self):
        with pytest.raises(RegularizeError):
            build_regular(star(2), 3)

    def test_nmat_consistency(self):
        for g in [path(2), star(2), cycle(3), path(3)]:
            for k in (2, 4, 6, 8):
                b = build_regular(g, k)
                assert sum(b.n_vec) == k
                assert np.all(b.n_mat == b.n_mat.T)
                assert b.d_k <= b.lambda_k * (1 + 1e-9)
                # N is supported on edges of the component
                comp = b.vertices
                for i in range(len(comp)):
                    for j in range(len(comp)):
                        if b.n_mat[i, j]:
                            assert g.has_edge(comp[i], comp[j])

    def test_degree_tracks_lambda_power(self):
        # log(lambda^k / d_k) / log k stays bounded for fixed small g
        for g in [star(2), cycle(3), path(3)]:
            lam = perron(g).lam
            worst = 0.0
            for k in (2, 4, 6, 8, 10, 12):
                b = build_regular(g, k)
                assert b.d_k >= 1
                ratio = math.log(lam**k / b.d_k) / math.log(k)
                worst = max(worst, ratio)
            assert worst < 8.0


class TestMaterialize:
    def test_regular_and_contained(self):
        for g in [path(2), star(2), cycle(3), path(3)]:
            for k in (2, 4):
                b = build_regular(g, k)
                fk = materialize_fk(b, g)
                assert fk.n == b.t_k_size
                assert all(d == b.d_k for d in fk.degrees)
                assert fk.big_m <= g.big_m**k
                # containment in the tensor power, checked independently
                power = tensor_power(g, k)
                tuples = fk_tuples(b)
                comp = b.vertices
                for ia, ib in fk.edges:
                    ua = 0
                    ub = 0
                    for ca, cb in zip(tuples[ia], tuples[ib]):
                        ua = ua * g.n + comp[ca]
                        ub = ub * g.n + comp[cb]
                    assert power.has_edge(ua, ub)

    def test_cap_enforced(self, monkeypatch):
        b = build_regular(cycle(3), 6)
        monkeypatch.setattr("sslab.regularize.FK_CAP", 10)
        with pytest.raises(CapExceededError):
            materialize_fk(b, cycle(3))

    def test_c3_k6(self):
        b = build_regular(cycle(3), 6)
        assert b.t_k_size == 90
        fk = materialize_fk(b, cycle(3))
        assert all(d == b.d_k for d in fk.degrees)
