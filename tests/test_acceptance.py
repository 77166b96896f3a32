"""End-to-end acceptance checks.

Each test covers one numbered claim about the library: exact spectral radii,
oracle-equivalent counting, inequality fuzzing, finite-size constant recovery,
pipeline invariants, and CLI determinism.  The conftest hook prints one
PASS/FAIL line per criterion in the terminal summary.
"""

import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np

from sslab import (
    Graph,
    acd_partition,
    check_suite,
    closed_walk_count,
    count_c2t,
    count_ktt,
    cut_diagnostics,
    edge_distribution,
    entropy_gap,
    build_regular,
    gnm_expected_ktt,
    heavy_prune,
    hom_count,
    materialize_fk,
    p3_counterexample,
    perron,
    sample_gnm,
    split_graph,
    split_lambda,
    verify_T,
)
from sslab.graphs import (
    complete_bipartite,
    cycle,
    path,
    star,
    write_edge_list,
)
from sslab.supersat import TooDelocalizedError, heavy_violations, row_cover_analyze
from conftest import inj_backtrack, random_graph

DATA = Path(__file__).parent / "data"


def test_criterion_01_split_lambda_exactness():
    t0 = time.perf_counter()
    for k in range(1, 7):
        base = k * (k - 1) // 2
        step = (5000 - base - 1) // 49
        for i in range(50):
            m = base + 1 + i * step
            g = split_graph(k, m)
            assert abs(split_lambda(k, m) - perron(g).lam) < 1e-8
        # divisible case against the closed form
        for q in (1, 10, 100, 900):
            m = base + k * q
            closed = (k - 1 + math.sqrt(4 * m - k * k + 1)) / 2
            assert abs(split_lambda(k, m) - closed) < 1e-12
    assert time.perf_counter() - t0 < 30


def test_criterion_02_counting_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(202)
    for _ in range(50):
        n = rng.randint(4, 7)
        m = rng.randint(0, n * (n - 1) // 2)
        g = sample_gnm(n, m, rng.randrange(2**32))
        for t in (2, 3):
            assert (
                hom_count(cycle(2 * t), g).value
                == closed_walk_count(g, 2 * t).value
            )
            inj_k = inj_backtrack(complete_bipartite(t, t), g)
            assert count_ktt(g, t).value * 2 * math.factorial(t) ** 2 == inj_k
            inj_c = inj_backtrack(cycle(2 * t), g)
            assert count_c2t(g, t).value * 4 * t == inj_c
    assert time.perf_counter() - t0 < 120


def _fuzz_suite():
    """300 seeded hosts: 200 for t=2 (n <= 30), 100 for t=3 (n <= 12)."""
    rng = random.Random(303)
    for i in range(300):
        t = 2 if i < 200 else 3
        n_max = 30 if t == 2 else 12
        n = rng.randint(2 * t, n_max)
        m = rng.randint(1, n * (n - 1) // 2)
        yield t, sample_gnm(n, m, rng.randrange(2**32))


def test_criterion_03_spectral_sidorenko_fuzz():
    for t, g in _fuzz_suite():
        rep = check_suite(complete_bipartite(t, t), g)
        big_m = g.big_m
        lhs = rep.hom
        rhs_bound = rep.lam ** (2 * t * (t - 1)) / float(big_m) ** (t * (t - 2))
        assert lhs >= rhs_bound - 1e-9 * abs(rhs_bound)
        assert rep.holds_ii and rep.holds_cert
        assert lhs >= rep.rhs_cert - 1e-9 * abs(rep.rhs_cert)


def test_criterion_04_interpolation_chain():
    rng = random.Random(404)
    patterns = [cycle(4), cycle(6), complete_bipartite(2, 2), complete_bipartite(3, 3)]
    for _ in range(60):
        n = rng.randint(6, 12)
        m = rng.randint(n - 1, n * (n - 1) // 2)
        g = sample_gnm(n, m, rng.randrange(2**32))
        for h in patterns:
            rep = check_suite(h, g)
            # chain_slack = ||A||^alpha M^{1-alpha} - lambda
            assert rep.chain_slack >= -1e-8


def test_criterion_05_p3_failure_demo():
    g, rep = p3_counterexample(9)
    assert rep.hom == 252
    assert round(rep.lam_times_m) == 540 and abs(rep.lam_times_m - 540) < 1e-9
    assert round(rep.lam_sq_times_n) == 1548 and abs(rep.lam_sq_times_n - 1548) < 1e-9
    assert rep.hom < rep.lam_times_m < rep.lam_sq_times_n
    assert hom_count(path(3), g).value == 252


def test_criterion_06_entropy_identity():
    count = 0
    seed = 0
    while count < 100:
        g = sample_gnm(*_conn_params(seed))
        seed += 1
        if len(g.components) != 1:
            continue
        d = edge_distribution(g)
        assert abs(entropy_gap(d) - math.log(d.lam)) < 1e-9
        count += 1


def _conn_params(seed):
    rng = random.Random(606_000 + seed)
    n = rng.randint(3, 12)
    m = rng.randint(n - 1, n * (n - 1) // 2)
    return n, m, rng.randrange(2**32)


def test_criterion_07_regular_subgraphs():
    t0 = time.perf_counter()
    hosts = [path(2), star(2), cycle(3), path(3)]
    for g in hosts:
        lam = perron(g).lam
        for k in (2, 4, 6, 8):
            b = build_regular(g, k)
            assert b.d_k <= lam**k * (1 + 1e-9)
            if b.t_k_size > 5000:
                continue
            fk = materialize_fk(b, g)
            assert all(d == b.d_k for d in fk.degrees)
            assert fk.big_m <= g.big_m**k
    assert build_regular(star(2), 4).d_k == 2
    assert build_regular(path(3), 4).d_k == 2  # same graph, path labeling
    assert time.perf_counter() - t0 < 60


def _above_threshold_hosts(count):
    rng = random.Random(808)
    out = []
    while len(out) < count:
        kind = len(out) % 3
        if kind == 0:
            out.append(split_graph(2, rng.randint(3, 500)))
        elif kind == 1:
            out.append(split_graph(3, rng.randint(4, 500)))
        else:
            n = rng.randint(8, 14)
            m = rng.randint(n * n // 4 + n, n * (n - 1) // 2)
            g = sample_gnm(n, m, rng.randrange(2**32))
            if perron(g).lam > math.sqrt(g.edge_count) + 1e-9:
                out.append(g)
    return out


def test_criterion_08_prune_invariants():
    for g in _above_threshold_hosts(50):
        trace = heavy_prune(g, 2)
        assert not trace.emptied
        # final eta-heavy condition
        assert not heavy_violations(trace.final_graph, trace.final_perron, trace.eta)
        # per-step lambda drop and strictly increasing gap trace
        lams = [s.lambda_i for s in trace.steps] + [trace.final_perron.lam]
        for i, s in enumerate(trace.steps):
            assert lams[i] - lams[i + 1] <= 2 * trace.eta / math.sqrt(s.m_i) + 1e-9
        deltas = [s.delta_i for s in trace.steps]
        assert all(b > a for a, b in zip(deltas, deltas[1:]))
        # survives above the split threshold
        m_prime = trace.final_graph.edge_count
        assert trace.final_perron.lam > split_lambda(1, m_prime)


def test_criterion_09_acd_partitions():
    eta = 1e-3
    rng = random.Random(909)
    successes = 0
    for k in (2, 3):
        for _ in range(15):
            m = rng.randint(1800, 3000)
            g = split_graph(k, m)
            trace = heavy_prune(g, 2, eta=eta)
            acd = acd_partition(trace.final_graph, eta, pd=trace.final_perron)
            assert verify_T(
                trace.final_graph, acd.a_set, acd.c_set, acd.d_set
            ) == (True, True, True)
            assert (
                acd.s_threshold * acd.r_threshold
                < eta / math.sqrt(trace.final_graph.edge_count) + 1e-15
            )
            successes += 1
    assert successes == 30
    # delocalized inputs error cleanly
    for g, bad_eta in [(cycle(40), 0.1), (complete_bipartite(7, 7), 0.05)]:
        pd = perron(g)
        try:
            acd_partition(g, bad_eta, pd=pd)
        except TooDelocalizedError as exc:
            assert isinstance(exc.k_levels, int)
        else:
            raise AssertionError("expected a too-delocalized error")


def test_criterion_10_cut_lemma_fuzz():
    rng = random.Random(1010)
    for s in range(200):
        g = random_graph(10_100 + s, 10)
        pd = perron(g)
        verts = list(range(g.n))
        rng.shuffle(verts)
        u_set = verts[: rng.randint(1, g.n - 1)]
        diag = cut_diagnostics(g, u_set, pd)
        assert diag.slack_a >= -1e-9 and diag.slack_b >= -1e-9
        if diag.slack_c is not None:
            assert diag.slack_c >= -1e-9
    # star / center cut achieves equality in (b) and (c)
    g = star(9)
    diag = cut_diagnostics(g, [0], perron(g))
    assert abs(diag.slack_b) < 1e-9
    assert diag.slack_c is not None and abs(diag.slack_c) < 1e-9


def test_criterion_11_random_graph_constant():
    t0 = time.perf_counter()
    m = 5000
    n = math.floor(2 * math.sqrt(m)) - 2
    ratios = []
    for s in range(20):
        g = sample_gnm(n, m, 11_000 + s)
        ratios.append(count_ktt(g, 2).value / m**2)
    mean = sum(ratios) / len(ratios)
    assert abs(mean - 1 / 8) <= 0.1 * (1 / 8)
    # closed-form expectation vs exhaustive enumeration at n=4, m=4
    pairs = list(combinations(range(4), 2))
    total = 0
    count = 0
    for es in combinations(pairs, 4):
        total += count_ktt(Graph.from_edges(4, list(es)), 2).value
        count += 1
    assert Fraction(total, count) == Fraction(1, 5)
    assert gnm_expected_ktt(4, 4, 2) == float(Fraction(1, 5)) == 0.2
    assert time.perf_counter() - t0 < 120


def test_criterion_12_split_cycle_constants():
    c6 = count_c2t(split_graph(3, 3000), 3)
    ratio = c6.value / 3000**3
    assert abs(ratio - 1 / 27) <= 0.15 * (1 / 27)
    c4 = count_c2t(split_graph(2, 1001), 2)
    assert c4.value == math.comb(500, 2) == 124_750


def test_criterion_13_row_cover_dichotomy():
    for q in (5, 20, 100):
        g = complete_bipartite(2, q)
        a_side = [0, 1]
        d_side = list(range(2, q + 2))
        rc2 = row_cover_analyze(g, a_side, d_side, 2)
        assert rc2.variant == "many-copies"
        assert rc2.copy_bound == count_ktt(g, 2).value
        rc3 = row_cover_analyze(g, a_side, d_side, 3)
        assert rc3.variant == "cover"
        assert rc3.b_set == tuple(d_side)
        assert rc3.e_ar_b == 0 and rc3.e_r_dnb == 0


def _cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "sslab.cli", *args],
        capture_output=True,
        text=True,
    )


def test_criterion_14_cli_determinism(tmp_path):
    host = tmp_path / "host.txt"
    host.write_text(write_edge_list(split_graph(2, 60)))
    gen_args = ("gen", "--family", "split", "--k", "2", "--m", "101")
    check_args = ("check", "--in", str(host), "--pattern", "ktt", "--t", "2")
    pipe_args = ("pipeline", "--in", str(host), "--t", "2", "--pattern", "ktt")
    for args in (gen_args, check_args, pipe_args):
        r1, r2 = _cli(*args), _cli(*args)
        assert r1.returncode == r2.returncode == 0
        assert r1.stdout == r2.stdout
        assert r1.stdout  # nonempty
    json.loads(_cli(*check_args).stdout)  # valid JSON
    sweep_args = (
        "sweep", "--pattern", "c2t", "--t", "2", "--m-range", "50:150:50",
        "--samples", "2", "--seed", "7", "--families", "gnm-balanced,split-t",
    )
    r = _cli(*sweep_args)
    assert r.returncode == 0
    assert r.stdout == (DATA / "golden_sweep.csv").read_text()


def _divided_differences(xs, ys):
    """[f[x0], f[x0, x1], ..., f[x0, ..., xk]] in exact Fractions."""
    col, out = [Fraction(y) for y in ys], []
    for k in range(len(xs)):
        out.append(col[0])
        col = [(col[i + 1] - col[i]) / (xs[i + k + 1] - xs[i]) for i in range(len(col) - 1)]
    return out


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_at(a, s):
    return sum(c * s**i for i, c in enumerate(a))


def test_criterion_15_sharp_constants_exactly():
    t0 = time.perf_counter()
    for t in (3, 4, 5):
        # c_t: #C_2t(S_{t, C(t,2) + tq}) is a polynomial in q of degree at
        # most 2t (inj is a signed sum of homs, and hom into a blow-up is
        # polynomial in the class sizes), so 2t + 3 values of q leave two
        # surplus divided differences, which must vanish.  The degree is t
        # and the leading coefficient (t-1)!/2, so with q = (m - C(t,2))/t
        # the count is c_t m^t + O(m^(t-1)).
        qs = list(range(1, 2 * t + 4))
        counts = [count_c2t(split_graph(t, math.comb(t, 2) + t * q), t).value for q in qs]
        diffs = _divided_differences(qs, counts)
        assert diffs[2 * t + 1 :] == [0, 0]
        assert diffs[t + 1 :] == [0] * (t + 2)
        assert diffs[t] == Fraction(math.factorial(t - 1), 2)
        c_t = diffs[t] / t**t
        assert c_t == Fraction(math.factorial(t - 1), 2 * t**t)
        assert c_t == {3: Fraction(1, 27), 4: Fraction(3, 256), 5: Fraction(12, 3125)}[t]
        # the threshold host S_{t-1,m} has no 2t-cycle: one needs t clique vertices
        for m in (math.comb(t - 1, 2) + 1, 60, 101, 203):
            assert count_c2t(split_graph(t - 1, m), t).value == 0
    for t in (2, 3, 4, 5):
        # b_t: on m = s^2 the sweep's balanced n = floor(2 sqrt(m)) - t is
        # 2s - t, and gnm_expected_ktt is (1/2) C(n,t) C(n-t,t) times the t^2
        # factors (m - i)/(N - i), N = C(n, 2): a ratio P(s)/Q(s) of
        # polynomials whose leading term is b_t m^t = b_t s^(2t)
        big_n = [Fraction(c, 2) for c in _poly_mul([-t, 2], [-t - 1, 2])]
        num, den = [1], [2 * math.factorial(t) ** 2]
        for i in range(2 * t):  # n - i for i < 2t: C(n,t) C(n-t,t) t!^2
            num = _poly_mul(num, [-t - i, 2])
        for i in range(t * t):
            num = _poly_mul(num, [-i, 0, 1])
            den = _poly_mul(den, [big_n[0] - i, *big_n[1:]])
        for s in (3 * t, 31, 100, 1001):
            n, m = 2 * s - t, s * s
            assert math.floor(2 * math.sqrt(m)) - t == n
            assert gnm_expected_ktt(n, m, t) == float(Fraction(_poly_at(num, s), _poly_at(den, s)))
        assert len(num) - len(den) == 2 * t
        assert Fraction(num[-1], den[-1]) == Fraction(1, 2 ** ((t - 1) ** 2) * math.factorial(t) ** 2)
    assert time.perf_counter() - t0 < 10
