"""Certificate exponents, inequality suite, counterexample, constants."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sslab import (
    c2t_copy_lower,
    check_suite,
    closed_walk_count,
    constants,
    exponents,
    gnm_expected_ktt,
    hom_count,
    ktt_copy_lower,
    p3_counterexample,
    perron,
)
from sslab.graphs import (
    complete,
    complete_bipartite,
    cycle,
    path,
    sample_gnm,
    split_graph,
    star,
    union,
)
from sslab.sidorenko import (
    DegenerateExponentError,
    NonBipartiteError,
    SidorenkoError,
    _rhs,
)
from conftest import random_graph


class TestExponents:
    def test_values(self):
        ex = exponents(complete_bipartite(3, 3))
        assert ex.v == 6 and ex.e == 9
        assert ex.s == 3.0 and ex.s_prime == 1.5 and ex.alpha == 0.75

    def test_conjugacy_and_range(self):
        for h in [cycle(4), cycle(6), complete_bipartite(2, 3), complete_bipartite(4, 4)]:
            ex = exponents(h)
            assert abs(1 / ex.s + 1 / ex.s_prime - 1) < 1e-12
            if ex.v <= ex.e:
                assert ex.s >= 2 >= ex.s_prime
                assert ex.alpha is not None and 0 < ex.alpha <= 1

    def test_non_bipartite_rejected(self):
        with pytest.raises(NonBipartiteError):
            exponents(complete(3))

    def test_degenerate_matching(self):
        with pytest.raises(DegenerateExponentError):
            exponents(path(2))  # v = 2, e = 1


class TestCheckSuite:
    def test_c4_on_triangle(self):
        rep = check_suite(cycle(4), complete(3))
        assert rep.hom == closed_walk_count(complete(3), 4).value == 18
        assert abs(rep.lam - 2.0) < 1e-9
        assert rep.spectral_forms_applicable
        assert rep.rhs_ii == pytest.approx(16.0)
        assert rep.holds_i and rep.holds_ii and rep.holds_iii and rep.holds_cert

    def test_matching_density_only(self):
        # 2e = v leaves s' infinite, but then v > e and only the density
        # form applies: rhs_i = M^e n^0 = M
        rep = check_suite(path(2), sample_gnm(30, 90, 1))
        assert (rep.hom, rep.rhs_i, rep.holds_i) == (180, 180.0, True)
        assert not rep.spectral_forms_applicable
        assert (rep.rhs_ii, rep.rhs_iii, rep.rhs_cert, rep.chain_slack) == (None,) * 4
        assert (rep.holds_ii, rep.holds_iii, rep.holds_cert) == (None,) * 3

    def test_tree_pattern_density_only(self):
        rep = check_suite(path(3), complete(4))
        assert not rep.spectral_forms_applicable
        assert rep.rhs_ii is None and rep.chain_slack is None
        assert rep.holds_i

    def test_hom_dispatch_matches_backtracking(self):
        g = random_graph(17, 7)
        for h in [cycle(4), cycle(6), complete_bipartite(2, 2), complete_bipartite(3, 3)]:
            rep = check_suite(h, g)
            assert rep.hom == hom_count(h, g).value

    def test_holds_flags_match_definition(self):
        for s in range(15):
            g = random_graph(4100 + s, 9)
            rep = check_suite(cycle(4), g)
            for holds, rhs in [
                (rep.holds_i, rep.rhs_i),
                (rep.holds_ii, rep.rhs_ii),
                (rep.holds_iii, rep.rhs_iii),
                (rep.holds_cert, rep.rhs_cert),
            ]:
                assert holds == (rep.hom >= rhs - 1e-9 * abs(rhs))

    def test_spectral_forms_imply_density_form(self):
        for s in range(40):
            g = random_graph(4300 + s, 10)
            for h in [cycle(4), complete_bipartite(2, 2)]:
                rep = check_suite(h, g)
                if rep.holds_ii:
                    assert rep.holds_i
                if rep.holds_iii:
                    assert rep.holds_i

    def test_even_cycle_certificate(self):
        for s in range(40):
            g = random_graph(4500 + s, 10)
            lam = perron(g).lam
            for t in (2, 3):
                walks = closed_walk_count(g, 2 * t).value
                assert walks >= lam ** (2 * t) * (1 - 1e-6)

    def test_empty_host_rejected(self):
        from sslab.graphs import empty_graph

        with pytest.raises(SidorenkoError):
            check_suite(cycle(4), empty_graph(3))


    def test_right_hand_side_past_the_float_range(self, monkeypatch):
        # M = 180 on G(30, 90), and M^e leaves the float64 range at e = 137
        # edges, the path on 138 vertices, while rhs_i = 180 * 6^136 does
        # not: it comes from the integers.  On the path on 396 vertices
        # rhs_i = 180 * 6^394 does leave it: refused before hom is counted
        g = sample_gnm(30, 90, 1)
        assert check_suite(path(137), g).rhs_i == 180.0**136 * 30.0 ** (137 - 272)
        assert check_suite(path(138), g).rhs_i == float(Fraction(180**137, 30**136))
        monkeypatch.setattr("sslab.sidorenko.hom_contract", None)
        with pytest.raises(SidorenkoError, match="^rhs_i leaves the float64 range$"):
            check_suite(path(396), g)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.5, 300.0),
                              st.one_of(st.integers(-160, 160), st.floats(-3.0, 3.0))),
                    min_size=1, max_size=4))
    @example([(100.0, 180), (20000.0, -80)])  # lam^180 alone is past the range
    @example([(180.0, 137), (30.0, -136)])
    @example([(1e300, 1.5), (2.0, -0.5)])
    def test_right_hand_side_is_the_float_product_wherever_it_is_finite(self, powers):
        # else the exact product where every exponent is an int, rounded
        try:
            plain = math.prod(base**exp for base, exp in powers)
        except OverflowError:
            plain = math.inf
        if math.isfinite(plain):
            assert _rhs("rhs", *powers).hex() == plain.hex()
            return
        exact = math.inf
        if all(isinstance(exp, int) for _, exp in powers):
            try:
                exact = float(math.prod(Fraction(b) ** exp for b, exp in powers))
            except OverflowError:
                pass
        if math.isfinite(exact):
            assert _rhs("rhs", *powers) == exact
        else:
            with pytest.raises(SidorenkoError, match="^rhs leaves the float64 range$"):
                _rhs("rhs", *powers)

    @pytest.mark.parametrize(
        "name, powers",
        [
            ("rhs_cert", [(10.0, 400)]),
            ("chain_slack", [(1e300, 1.5), (2.0, -0.5)]),
            ("rhs_ii", [(1e200, 1), (1e200, 1)]),
        ],
    )
    def test_every_right_hand_side_is_range_checked(self, name, powers):
        # an int or a float exponent past the range raises OverflowError,
        # while a product of two finite powers passes it quietly
        with pytest.raises(SidorenkoError, match=f"^{name} leaves the float64 range$"):
            _rhs(name, *powers)

class TestP3Counterexample:
    def test_t9_exact(self):
        g, rep = p3_counterexample(9)
        assert rep.hom == 252
        assert rep.lam_times_m == pytest.approx(540.0)
        assert rep.lam_sq_times_n == pytest.approx(1548.0)
        assert rep.edge_form_fails and rep.vertex_form_fails
        assert hom_count(path(3), g).value == 252

    def test_all_t_up_to_50(self):
        prev_ratio = None
        for t in range(2, 51):
            _, rep = p3_counterexample(t)
            assert rep.hom == 3 * t * t + t
            assert rep.edge_form_fails and rep.vertex_form_fails
            ratio = rep.hom / rep.lam_times_m
            if t > 9 and prev_ratio is not None:
                assert ratio < prev_ratio
            prev_ratio = ratio

    def test_small_t_rejected(self):
        with pytest.raises(SidorenkoError):
            p3_counterexample(1)

    def test_host_is_the_star_then_t_squared_disjoint_edges(self):
        for t in (2, 3, 5):
            g, _ = p3_counterexample(t)
            chained = star(t)
            for _ in range(t * t):
                chained = union(chained, path(2))
            assert g == chained


class TestConstantsAndBounds:
    def test_sharp_constants(self):
        c2 = constants(2)
        assert c2.b_t == pytest.approx(1 / 8)
        assert c2.c_t == pytest.approx(1 / 8)
        c3 = constants(3)
        assert c3.b_t == pytest.approx(1 / 576)
        assert c3.c_t == pytest.approx(1 / 27)
        for t in range(2, 10):
            assert constants(t).c_t <= 1 / (4 * t) + 1e-15

    def test_copy_lower_bounds_shape(self):
        # tight inputs: lambda = sqrt(m), huge n kills the bound
        assert ktt_copy_lower(2, 100.0, 10_000, 10) > 0
        assert ktt_copy_lower(2, 100.0, 10_000, 10_000) < 0
        assert c2t_copy_lower(2, 100.0, 10) > 0
        with pytest.raises(SidorenkoError):
            ktt_copy_lower(1, 1.0, 1, 1)
        with pytest.raises(SidorenkoError):
            c2t_copy_lower(2, -1.0, 5)

    @pytest.mark.parametrize("t", [2, 3, 19, 20, 22, 24])
    def test_ktt_copy_lower_reads_b_t(self, t):
        # lam^2 = m = 1 and n = 0 leave B_t alone, bit for bit
        assert ktt_copy_lower(t, 1.0, 1, 0) == constants(t).b_t

    def test_c2t_copy_lower_value(self):
        t, lam, n = 2, 50.0, 20
        want = (lam**4 - 6 * n**3) / 8
        assert c2t_copy_lower(t, lam, n) == pytest.approx(want)

    def test_gnm_expected_ktt_small_exact(self):
        assert gnm_expected_ktt(4, 4, 2) == pytest.approx(0.2)
        assert gnm_expected_ktt(4, 6, 2) == pytest.approx(3.0)

    def test_gnm_expected_matches_exhaustive_average(self):
        # average #K_{2,2} over all 5-vertex, 5-edge graphs, exactly
        from itertools import combinations

        from sslab import count_ktt
        from sslab.graphs import Graph

        pairs = list(combinations(range(5), 2))
        total = 0
        sets = list(combinations(pairs, 5))
        for es in sets:
            total += count_ktt(Graph.from_edges(5, list(es)), 2).value
        assert Fraction(total, len(sets)) == Fraction(
            gnm_expected_ktt(5, 5, 2)
        ).limit_denominator(10**6)

    @pytest.mark.parametrize("t", [2, 3])
    def test_gnm_expected_matches_the_binomial_ratio(self, t):
        # the closed form (1/2) C(n,t) C(n-t,t) C(N-t^2, m-t^2) / C(N,m)
        for n in range(2 * t, 16):
            big_n = n * (n - 1) // 2
            for m in range(t * t, big_n + 1):
                want = Fraction(math.comb(n, t) * math.comb(n - t, t), 2) * Fraction(
                    math.comb(big_n - t * t, m - t * t), math.comb(big_n, m)
                )
                assert gnm_expected_ktt(n, m, t) == float(want), (n, m)

    def test_gnm_expected_validation(self):
        with pytest.raises(SidorenkoError):
            gnm_expected_ktt(3, 3, 2)  # n < 2t
        with pytest.raises(SidorenkoError):
            gnm_expected_ktt(6, 3, 2)  # m < t^2
