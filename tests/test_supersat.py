"""Pruning, localization, level-set partition, row cover, pipeline driver."""

import math
import random

import numpy as np
import pytest

from sslab import (
    acd_partition,
    aligned_rows,
    count_ktt,
    delocalization_check,
    heavy_prune,
    localization_g,
    perron,
    row_cover_analyze,
    split_lambda,
    supersat_count,
    verify_T,
)
from sslab.graphs import (
    GraphError,
    complete,
    complete_bipartite,
    cycle,
    sample_gnm,
    split_graph,
    star,
    union,
)
from sslab.spectra import PerronBlocks, SpectraError, incidence_matrix
from sslab.supersat import (
    NotHeavyError,
    SupersatError,
    TooDelocalizedError,
    heavy_violations,
)
from conftest import random_graph


def above_threshold_inputs(count=50):
    """Mixed-family hosts with lambda above split_lambda(1, m)= sqrt(m)."""
    out = []
    rng = random.Random(31)
    while len(out) < count:
        kind = len(out) % 3
        if kind == 0:
            out.append(split_graph(2, rng.randint(3, 400)))
        elif kind == 1:
            out.append(split_graph(3, rng.randint(4, 400)))
        else:
            n = rng.randint(8, 14)
            m = rng.randint(n * n // 4 + n, n * (n - 1) // 2)
            g = sample_gnm(n, m, rng.randrange(2**32))
            if perron(g).lam > split_lambda(1, g.edge_count) + 1e-9:
                out.append(g)
    return out


class TestHeavyPrune:
    def test_star_has_no_light_edges(self):
        trace = heavy_prune(star(50), 2)
        assert trace.steps == ()
        assert trace.alpha == 1.0
        assert not trace.emptied
        assert heavy_violations(trace.final_graph, trace.final_perron, trace.eta) == []

    def test_satellite_component_pruned_first(self):
        g = union(complete(5), cycle(3))
        trace = heavy_prune(g, 2)
        # the Perron vector lives on K5, so the triangle edges have product 0
        assert trace.steps[0].edge == (5, 6)
        assert trace.final_graph.edge_count == 10
        assert all(u < 5 and v < 5 for u, v in trace.final_graph.edges)

    def test_final_heaviness_and_monotone_delta(self):
        for g in above_threshold_inputs(12):
            trace = heavy_prune(g, 2)
            if trace.emptied:
                continue
            assert not heavy_violations(
                trace.final_graph, trace.final_perron, trace.eta
            )
            deltas = [s.delta_i for s in trace.steps]
            assert all(b > a for a, b in zip(deltas, deltas[1:]))

    def test_per_step_lambda_drop(self):
        g = sample_gnm(12, 40, 5)
        trace = heavy_prune(g, 2)
        lams = [s.lambda_i for s in trace.steps]
        if trace.final_perron is not None:
            lams.append(trace.final_perron.lam)
        for i, s in enumerate(trace.steps):
            drop = lams[i] - lams[i + 1]
            assert drop <= 2 * trace.eta / math.sqrt(s.m_i) + 1e-9

    def test_gap_ratio_claim(self):
        # lambda(H)/sqrt(m') >= 1 + (1 - 4 eta)(alpha^{-1/2} - 1) when
        # lambda(input) >= sqrt(m)
        for g in above_threshold_inputs(20):
            trace = heavy_prune(g, 2)
            if trace.emptied:
                continue
            eta, alpha = trace.eta, trace.alpha
            bound = 1 + (1 - 4 * eta) * (alpha**-0.5 - 1)
            assert trace.gap_ratio >= bound - 1e-9

    def test_eta_validation(self):
        with pytest.raises(SupersatError):
            heavy_prune(star(4), 2, eta=0.3)
        with pytest.raises(SupersatError):
            heavy_prune(star(4), 1)


class TestLocalization:
    def test_star_value(self):
        g = star(16)
        pd = perron(g)
        # sup norm 1/sqrt(2), m^{1/4} = 2
        assert localization_g(pd, 16) == pytest.approx(2 / math.sqrt(2), abs=1e-9)

    def test_delocalization_lemma_fuzz(self):
        hits = 0
        for s in range(500):
            g = random_graph(70_000 + s, 12)
            pd = perron(g)
            m = g.edge_count
            assert delocalization_check(pd, m, 1 / 3)
            if pd.lam**2 >= (4 / 3) * m:
                hits += 1
                assert localization_g(pd, m) < 81
        assert hits > 0  # the hypothesis side is actually exercised

    def test_delta_validation(self):
        pd = perron(star(4))
        with pytest.raises(SupersatError):
            delocalization_check(pd, 4, 0.5)


class TestVerifyT:
    def test_star_partition(self):
        g = star(5)
        t1, t2, t3 = verify_T(g, [0], [], list(range(1, 6)))
        assert (t1, t2, t3) == (True, True, True)

    def test_violations_detected(self):
        g = cycle(4)
        # D = {0, 2} independent, but C-D edges exist
        t1, t2, t3 = verify_T(g, [], [1, 3], [0, 2])
        assert t1 and not t2
        t1, t2, t3 = verify_T(g, [1], [3], [0, 2])
        assert not t3

    def test_partition_validated(self):
        with pytest.raises(SupersatError, match="must partition the vertex set"):
            verify_T(star(3), [0], [0], [1, 2, 3])

    @pytest.mark.parametrize(
        "sides",
        [
            ([0], [1], [2]),  # vertex 3 missing
            ([0], [1, 2], [3, 4]),  # id past n - 1
            ([-1, 0], [1, 2], [3]),  # negative id
        ],
    )
    def test_non_partitions_rejected(self, sides):
        with pytest.raises(SupersatError, match="must partition the vertex set"):
            verify_T(star(3), *sides)

    def test_repeated_id_within_one_side_is_accepted(self):
        assert verify_T(star(3), [0, 0], [], [1, 2, 3, 3]) == (True, True, True)


class TestAcdPartition:
    def test_split_localized_inputs(self):
        eta = 1e-3
        rng = random.Random(6)
        checked = 0
        for k in (2, 3):
            for _ in range(15):
                m = rng.randint(1800, 3000)
                g = split_graph(k, m)
                trace = heavy_prune(g, 2, eta=eta)
                assert not trace.emptied
                acd = acd_partition(trace.final_graph, eta, pd=trace.final_perron)
                assert (acd.t1_ok, acd.t2_ok, acd.t3_ok) == (True, True, True)
                assert acd.s_threshold > acd.r_threshold > 0
                assert (
                    acd.s_threshold * acd.r_threshold
                    < eta / math.sqrt(trace.final_graph.edge_count) + 1e-15
                )
                # A/C/D are exactly the level sets
                x = trace.final_perron.x
                for v in range(trace.final_graph.n):
                    if x[v] > acd.s_threshold:
                        assert v in acd.a_set
                    elif x[v] > acd.r_threshold:
                        assert v in acd.c_set
                    else:
                        assert v in acd.d_set
                checked += 1
        assert checked == 30

    def test_large_split_default_scale_eta(self):
        g = split_graph(2, 300_000)
        trace = heavy_prune(g, 2, eta=1 / 32)
        acd = acd_partition(trace.final_graph, 1 / 32, pd=trace.final_perron)
        assert (acd.t1_ok, acd.t2_ok, acd.t3_ok) == (True, True, True)

    def test_window_below_ell_errors_cleanly(self):
        g = split_graph(2, 200_000)
        trace = heavy_prune(g, 2, eta=1 / 32)
        with pytest.raises(TooDelocalizedError):
            acd_partition(trace.final_graph, 1 / 32, pd=trace.final_perron)

    def test_regular_graph_too_delocalized(self):
        g = cycle(40)
        pd = perron(g)
        with pytest.raises(TooDelocalizedError) as e:
            acd_partition(g, 0.1, pd=pd)
        assert isinstance(e.value.k_levels, int)

    def test_light_edges_rejected(self):
        g = union(complete(4), complete(2))
        pd = perron(g)
        with pytest.raises(NotHeavyError) as e:
            acd_partition(g, 1 / 32, pd=pd)
        assert e.value.violations


class TestAlignedRowsAndCover:
    def test_identical_rows_all_aligned(self):
        g = complete_bipartite(2, 6)
        r, (sigma, v, u) = aligned_rows(g, [0, 1], list(range(2, 8)), 0.0)
        assert r == [0, 1]
        assert sigma == pytest.approx(math.sqrt(12))

    def test_distinct_rows_split(self):
        from sslab.graphs import Graph

        g = Graph.from_edges(5, [(0, 2), (1, 3), (1, 4)])
        r, _ = aligned_rows(g, [0, 1], [2, 3, 4], 0.1)
        assert r == [1]

    def test_theta_validation(self):
        with pytest.raises(SupersatError):
            aligned_rows(star(3), [0], [1, 2, 3], 1.5)

    def test_k2q_t2_many_copies(self):
        for q in (5, 20, 100):
            g = complete_bipartite(2, q)
            rc = row_cover_analyze(g, [0, 1], list(range(2, q + 2)), 2)
            assert rc.variant == "many-copies"
            assert rc.epsilon == pytest.approx(0.0, abs=1e-9)
            assert rc.copy_bound == count_ktt(g, 2).value == math.comb(q, 2)
            assert rc.e_uncovered == 0

    def test_k2q_t3_cover(self):
        for q in (5, 20, 100):
            g = complete_bipartite(2, q)
            rc = row_cover_analyze(g, [0, 1], list(range(2, q + 2)), 3)
            assert rc.variant == "cover"
            assert rc.b_set == tuple(range(2, q + 2))
            assert rc.e_ar_b == 0 and rc.e_r_dnb == 0

    def test_cover_bound_assertion_holds_fuzz(self):
        rng = random.Random(77)
        for s in range(40):
            g = random_graph(50_000 + s, 10)
            verts = list(range(g.n))
            rng.shuffle(verts)
            cut = rng.randint(1, g.n - 1)
            a_set, d_set = verts[:cut], verts[cut:]
            try:
                rc = row_cover_analyze(g, a_set, d_set, 2)
            except SupersatError:
                continue  # no A-D edges
            # some row reaches the weighted mean alignment, so R is never empty
            assert rc.r_set and not rc.degenerate
            assert rc.e_uncovered <= rc.theta * rc.e_ad + 1e-9
            if rc.variant == "cover" and rc.r_set and rc.b_set:
                # bipartite graph between R and B is complete
                for a in rc.r_set:
                    for b in rc.b_set:
                        assert g.has_edge(a, b)

    @pytest.mark.parametrize("bad", [-1, 7])
    def test_vertex_ids_outside_the_graph_rejected(self, bad):
        # numpy indexing would wrap -1 around to vertex 6
        g = complete_bipartite(2, 5)
        with pytest.raises(GraphError, match=f"vertex {bad} out of range for n=7"):
            row_cover_analyze(g, [0, bad], [2, 3, 4, 5], 2)
        with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
            row_cover_analyze(g, [0, 1], [2, 3, 4, bad], 2)
        with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
            aligned_rows(g, [0, bad], [2, 3, 4, 5], 0.5)
        with pytest.raises(GraphError, match=f"vertex {bad} out of range"):
            incidence_matrix([0, 1], [2, 3, bad], g)

    def test_sides_are_checked_by_top_singular(self):
        g = complete_bipartite(2, 5)
        with pytest.raises(SpectraError, match="disjoint"):
            aligned_rows(g, [0, 1], [1, 2, 3], 0.5)
        with pytest.raises(SpectraError, match="empty"):
            aligned_rows(g, [], [2, 3], 0.5)

    def test_no_ad_edges_rejected(self):
        with pytest.raises(SupersatError):
            row_cover_analyze(star(3), [1], [2, 3], 2)

    def test_one_incidence_and_no_edge_masks(self, monkeypatch):
        import sslab.supersat as supersat

        built = []

        def counted(*args):
            built.append(args)
            return incidence_matrix(*args)

        monkeypatch.setattr(supersat, "incidence_matrix", counted)
        g = complete_bipartite(2, 5)
        for t in (2, 3):  # many-copies, then cover
            row_cover_analyze(g, [0, 1], list(range(2, 7)), t)
        aligned_rows(g, [0, 1], list(range(2, 7)), 0.5)
        assert len(built) == 3

    def test_overlap_is_reported_before_missing_edges(self):
        # the sides share vertex 2 and no edge joins them
        with pytest.raises(SpectraError, match="disjoint"):
            row_cover_analyze(star(3), [1, 2], [2, 3], 2)


class TestSupersatCount:
    def test_below_threshold_star(self):
        rep = supersat_count(star(100), 2, "ktt")
        assert not rep.above_threshold
        assert rep.branch == "below-threshold"
        assert rep.count is None

    def test_clique_delocalized_branch(self):
        rep = supersat_count(complete(30), 2, "ktt")
        assert rep.above_threshold
        assert rep.branch == "delocalized"
        assert rep.count == 3 * math.comb(30, 4)
        assert rep.ratio >= 1 / 8

    def test_clique_ratio_range(self):
        for n in (10, 20, 30, 40, 50, 60):
            rep = supersat_count(complete(n), 2, "ktt")
            assert rep.ratio >= 1 / 8

    def test_c2t_pattern(self):
        from sslab import count_c2t

        rep = supersat_count(complete(12), 2, "c2t")
        assert rep.count == count_c2t(complete(12), 2).value
        assert rep.sharp_constant == pytest.approx(1 / 8)

    def test_split_host_report_fields(self):
        rep = supersat_count(split_graph(2, 300), 2, "ktt")
        assert rep.above_threshold
        assert rep.trace is not None and not rep.trace.emptied
        assert rep.count is not None and rep.count > 0
        assert rep.ratio == pytest.approx(rep.count / rep.m**2)

    def test_one_perron_solve_for_the_threshold_and_the_pruning(self, monkeypatch):
        # K_5 beside a triangle: above the threshold, and pruning deletes
        # the triangle's edges from the blocks the threshold was read off.
        # The pruning runs under the public name heavy_prune, so a caller
        # that wraps it sees the pipeline's deletions too
        g = union(complete(5), cycle(3))
        want = heavy_prune(g, 2)
        built, init = [], PerronBlocks.__init__
        pruned = []

        def counted(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        def wrapped(*args, **kwargs):
            pruned.append(heavy_prune(*args, **kwargs))
            return pruned[-1]

        monkeypatch.setattr(PerronBlocks, "__init__", counted)
        monkeypatch.setattr("sslab.supersat.heavy_prune", wrapped)
        rep = supersat_count(g, 2, "ktt")
        assert rep.above_threshold and len(rep.trace.steps) == 3
        assert rep.trace == want and pruned == [want]
        assert len(built) == 1

    def test_validation(self):
        with pytest.raises(SupersatError):
            supersat_count(star(3), 1, "ktt")
        with pytest.raises(SupersatError):
            supersat_count(star(3), 2, "bogus")
