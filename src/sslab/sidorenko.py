"""Inequality laboratory: certificate exponents, the three density/spectral
inequality forms, the operator-norm certificate chain, copy-count lower
bounds, sharp constants, and the 3-vertex-path counterexample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .graphs import Graph, SslabError, star, union
from .homcounts import hom_contract
from .spectra import TOL, opnorm, perron


class SidorenkoError(SslabError):
    pass


class NonBipartiteError(SidorenkoError):
    pass


class DegenerateExponentError(SidorenkoError):
    pass


@dataclass(frozen=True)
class CertificateExponents:
    v: int
    e: int
    s: float  # 2e/v
    s_prime: float  # 2e/(2e-v)
    alpha: Optional[float]  # e/(2e-v), defined when 2e > v


def _sizes(h: Graph) -> tuple[int, int]:
    """(v, e) of the pattern h, which every form needs bipartite with an edge."""
    if not h.is_bipartite():
        raise NonBipartiteError("pattern must be bipartite")
    if h.edge_count < 1:
        raise SidorenkoError("pattern needs at least one edge")
    return h.n, h.edge_count


def exponents(h: Graph) -> CertificateExponents:
    v, e = _sizes(h)
    if 2 * e == v:
        raise DegenerateExponentError("2e = v: conjugate exponent is infinite")
    s = 2 * e / v
    s_prime = 2 * e / (2 * e - v)
    alpha = e / (2 * e - v) if 2 * e > v else None
    return CertificateExponents(v, e, s, s_prime, alpha)


@dataclass(frozen=True)
class IneqReport:
    hom: int
    rhs_i: float
    rhs_ii: Optional[float]
    rhs_iii: Optional[float]
    rhs_cert: Optional[float]
    holds_i: bool
    holds_ii: Optional[bool]
    holds_iii: Optional[bool]
    holds_cert: Optional[bool]
    chain_slack: Optional[float]
    spectral_forms_applicable: bool
    lam: float


_REL_TOL = 1e-9


def _holds(hom: int, rhs: Optional[float]) -> Optional[bool]:
    return None if rhs is None else hom >= rhs - _REL_TOL * abs(rhs)


def _rhs(name: str, *powers) -> float:
    """The product of base ** exp over the (base, exp) `powers`, the report
    field `name`: the float product, else, with int exponents, the exact
    one rounded; `SidorenkoError` if neither is in the float64 range."""
    try:
        value = math.prod(base**exp for base, exp in powers)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value) and all(isinstance(exp, int) for _, exp in powers):
        try:  # a factor may leave the range where the product does not
            value = float(math.prod(Fraction(base) ** exp for base, exp in powers))
        except OverflowError:
            pass
    if not math.isfinite(value):
        raise SidorenkoError(f"{name} leaves the float64 range")
    return value


def check_suite(h: Graph, g: Graph, tol: float = TOL) -> IneqReport:
    """Evaluate hom(h,g) against the density form, the two spectral forms,
    and the operator-norm certificate.

    rhs_i  = M^e n^{v-2e}          (always)
    rhs_ii = lam^{2e-v} M^{v-e}    (when v <= e)
    rhs_iii= lam^e n^{v-e}         (when v <= e)
    rhs_cert = opnorm(g, s', s)^e  (when v <= e, so 2e > v and s' is finite;
                                    lam itself when s = s' = 2)

    Perron is solved once, at `tol`: lam, and `opnorm`'s start and 2->2
    value, all come from that solve.  The right-hand sides come first: one
    that leaves the float64 range (`_rhs`) raises `SidorenkoError` before
    hom(h, g) is counted.
    """
    if g.edge_count < 1:
        raise SidorenkoError("host needs at least one edge")
    v, e = _sizes(h)
    big_m, n = float(g.big_m), float(g.n)
    rhs_i = _rhs("rhs_i", (big_m, e), (n, v - 2 * e))
    pd = perron(g, tol=tol)
    lam = pd.lam
    applicable = v <= e
    rhs_ii = rhs_iii = rhs_cert = chain_slack = None
    if applicable:
        ex = exponents(h)
        rhs_ii = _rhs("rhs_ii", (lam, 2 * e - v), (big_m, v - e))
        rhs_iii = _rhs("rhs_iii", (lam, e), (n, v - e))
        norm_val = opnorm(g, ex.s_prime, ex.s, pd, tol=max(tol, 1e-12)).value
        rhs_cert = _rhs("rhs_cert", (norm_val, e))
        chain_slack = _rhs("chain_slack", (norm_val, ex.alpha), (big_m, 1 - ex.alpha)) - lam
    hom = hom_contract(h.n, h.edges, g).value
    return IneqReport(
        hom=hom,
        rhs_i=rhs_i,
        rhs_ii=rhs_ii,
        rhs_iii=rhs_iii,
        rhs_cert=rhs_cert,
        holds_i=_holds(hom, rhs_i),
        holds_ii=_holds(hom, rhs_ii),
        holds_iii=_holds(hom, rhs_iii),
        holds_cert=_holds(hom, rhs_cert),
        chain_slack=chain_slack,
        spectral_forms_applicable=applicable,
        lam=lam,
    )


# -- the 3-vertex-path counterexample --------------------------------------


@dataclass(frozen=True)
class P3Report:
    t: int
    hom: int
    lam: float
    lam_times_m: float
    lam_sq_times_n: float
    edge_form_fails: bool
    vertex_form_fails: bool


def p3_counterexample(t: int) -> tuple[Graph, P3Report]:
    """Star K_{1,t} next to t^2 disjoint edges: the 3-vertex path violates
    both spectral forms on this host."""
    if t < 2:
        raise SidorenkoError("t must be >= 2")
    g = union(star(t), Graph.from_edges(2 * t * t, [(2 * i, 2 * i + 1) for i in range(t * t)]))
    hom = sum(d * d for d in g.degrees)
    if hom != 3 * t * t + t:
        raise SidorenkoError(f"hom(P3) = {hom} on the host, expected {3 * t * t + t}")
    lam = math.sqrt(t)
    big_m = float(g.big_m)
    n = float(g.n)
    lam_m = lam * big_m
    lam2_n = lam * lam * n
    return g, P3Report(
        t=t,
        hom=hom,
        lam=lam,
        lam_times_m=lam_m,
        lam_sq_times_n=lam2_n,
        edge_form_fails=hom < lam_m,
        vertex_form_fails=hom < lam2_n,
    )


# -- copy-count lower bounds and constants ---------------------------------


def ktt_copy_lower(t: int, lam: float, m: int, n: int) -> float:
    """Lower bound on the number of K_{t,t} copies:
    B_t (lam^2/m)^{t(t-1)} m^t - (C(2t,2)/(2 t!^2)) n^{2t-1}.
    May be negative; reported unclamped until ROADMAP item 15."""
    if t < 2 or m < 1 or n < 0 or lam < 0:
        raise SidorenkoError("ktt_copy_lower: bad arguments")
    b_t = constants(t).b_t
    err = math.comb(2 * t, 2) / (2 * math.factorial(t) ** 2)
    return b_t * (lam * lam / m) ** (t * (t - 1)) * float(m) ** t - err * float(n) ** (
        2 * t - 1
    )


def c2t_copy_lower(t: int, lam: float, n: int) -> float:
    """Lower bound on the number of 2t-cycles: lam^{2t}/(4t) minus an explicit
    error term C(2t,2) n^{2t-1} / (4t) for the closed walks that repeat a
    vertex."""
    if t < 2 or n < 0 or lam < 0:
        raise SidorenkoError("c2t_copy_lower: bad arguments")
    return (lam ** (2 * t) - math.comb(2 * t, 2) * float(n) ** (2 * t - 1)) / (4 * t)


@dataclass(frozen=True)
class SharpConstants:
    t: int
    b_t: float  # 2^{-(t-1)^2} / t!^2
    c_t: float  # (t-1)! / (2 t^t)
    random_cycle: float  # 1/(4t)
    ktt_alt: float  # 1/(t! t^t)


def constants(t: int) -> SharpConstants:
    if t < 2:
        raise SidorenkoError("t must be >= 2")
    b_t = Fraction(1, 2 ** ((t - 1) ** 2) * math.factorial(t) ** 2)
    c_t = Fraction(math.factorial(t - 1), 2 * t**t)
    return SharpConstants(
        t=t,
        b_t=float(b_t),
        c_t=float(c_t),
        random_cycle=1.0 / (4 * t),
        ktt_alt=float(Fraction(1, math.factorial(t) * t**t)),
    )


def gnm_expected_ktt(n: int, m: int, t: int) -> float:
    """Expected number of K_{t,t} copies in a uniform m-edge graph on n
    vertices: (1/2) C(n,t) C(n-t,t) C(N-t^2, m-t^2) / C(N,m)."""
    big_n = n * (n - 1) // 2
    if not (t * t <= m <= big_n):
        raise SidorenkoError(f"need t^2 <= m <= {big_n}")
    if 2 * t > n:
        raise SidorenkoError("need n >= 2t")
    # C(N-t^2, m-t^2) / C(N, m) = prod_{i < t^2} (m-i) / (N-i)
    val = Fraction(math.comb(n, t) * math.comb(n - t, t) * math.perm(m, t * t),
                   2 * math.perm(big_n, t * t))
    return float(val)
