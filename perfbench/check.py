"""Output checks: reference comparison and independent oracles.

A command's output is split into a discrete part (integers, strings, vertex
sets, branch names, deleted-edge sequences, booleans, the shape of the
report) and its reals.  The reference stores a SHA-256 of the discrete part
and the reals; a match needs the same digest and every real within 1e-9
relative (1e-11 absolute near zero).  References exist for the seeds that
were captured; every seed also goes through the oracles below, which share
no counting or eigen code with `sslab`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import lzma
import math
import os
import random
from itertools import combinations

import networkx as nx
import numpy as np

REL_TOL = 1e-9
ABS_TOL = 1e-11
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")
CODEGREE_MAX_N = 1600  # dense n x n oracle; larger rows rely on the reference
CSV_REALS = {"lambda", "split_lambda", "count_over_mt", "sharp_constant", "expected"}


# -- parsing and the reference ----------------------------------------------


def parse(cmd, stdout: str):
    if cmd.argv[0] == "sweep":
        rows = list(csv.DictReader(io.StringIO(stdout)))
        for row in rows:
            for k, v in row.items():
                if k in CSV_REALS and v != "":
                    row[k] = float(v)
                elif k not in CSV_REALS and v.lstrip("-").isdigit():
                    row[k] = int(v)
        return rows
    return json.loads(stdout)


def split(obj) -> tuple[str, list[float]]:
    """(SHA-256 of the discrete projection, reals in traversal order)."""
    reals: list[float] = []

    def walk(x):
        if isinstance(x, float):
            reals.append(x)
            return "R"
        if isinstance(x, dict):
            return {k: walk(x[k]) for k in sorted(x)}
        if isinstance(x, list):
            return [walk(v) for v in x]
        return x

    text = json.dumps(walk(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest(), reals


def close(a: float, b: float) -> bool:
    return abs(a - b) <= max(REL_TOL * max(abs(a), abs(b)), ABS_TOL)


def load_reference(workload: str) -> dict:
    path = os.path.join(REF_DIR, f"{workload}.json.xz")
    if not os.path.exists(path):
        return {}
    with lzma.open(path, "rt") as fh:
        return json.load(fh)


def save_reference(workload: str, seed: int, entry: dict) -> None:
    ref = load_reference(workload)
    ref[str(seed)] = entry
    os.makedirs(REF_DIR, exist_ok=True)
    with lzma.open(os.path.join(REF_DIR, f"{workload}.json.xz"), "wt") as fh:
        json.dump(ref, fh, sort_keys=True, separators=(",", ":"))


def reference_entry(rc: int, obj) -> dict:
    digest, reals = split(obj)
    return {"rc": rc, "digest": digest, "reals": reals}


def compare_reference(expected: dict, rc: int, obj) -> list[str]:
    digest, reals = split(obj)
    if rc != expected["rc"]:
        return [f"exit code {rc} != reference {expected['rc']}"]
    if digest != expected["digest"]:
        return ["discrete output differs from the reference"]
    if len(reals) != len(expected["reals"]):
        return ["number of reals differs from the reference"]
    bad = [i for i, (a, b) in enumerate(zip(reals, expected["reals"])) if not close(a, b)]
    if bad:
        i = bad[0]
        return [f"{len(bad)} reals differ from the reference, first #{i}: "
                f"{reals[i]!r} vs {expected['reals'][i]!r}"]
    return []


# -- oracle helpers -----------------------------------------------------------


def _dense(g) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges:
        a[u, v] = a[v, u] = 1
    return a


def _top_eig(a: np.ndarray):
    vals, vecs = np.linalg.eigh(a.astype(float))
    return float(vals[-1]), np.abs(vecs[:, -1])


def _c4_codegree(n: int, edges) -> int:
    """4-cycles as sum over unordered pairs of C(codegree, 2), halved."""
    a = np.zeros((n, n))
    for u, v in edges:
        a[u, v] = a[v, u] = 1.0
    c = np.rint(a @ a).astype(np.int64)
    np.fill_diagonal(c, 0)
    return int((c * (c - 1) // 2).sum()) // 4


def _nx_cycles(g, length: int) -> int:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return sum(1 for c in nx.simple_cycles(h, length_bound=length) if len(c) == length)


def _brute_k22(g) -> int:
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    total = 0
    for a, b, c, d in combinations(range(g.n), 4):
        for (x, y), (z, w) in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
            if {z, w} <= adj[x] and {z, w} <= adj[y]:
                total += 1
    return total


def _want(problems: list, ok: bool, what: str) -> None:
    if not ok:
        problems.append(what)


# -- per-command oracles ------------------------------------------------------


def _prune_starmix(out, prep, problems):
    gnm = sorted(prep.meta["starmix_gnm_edges"])
    lam = math.sqrt(prep.meta["star_leaves"])
    steps = out["steps"]
    _want(problems, [tuple(s["edge"]) for s in steps] == gnm,
          "zero-product edges not deleted in lexicographic order")
    _want(problems, all(s["product"] == 0.0 and close(s["lambda_i"], lam) for s in steps),
          "star host: product or lambda wrong")
    _want(problems, out["final_m"] == prep.meta["star_leaves"], "star host: wrong final_m")


def _prune_corep(out, prep, problems):
    g = prep.hosts["corep"]
    steps = out["steps"]
    eta = out["eta"]
    edges = list(g.edges)
    deleted = [tuple(s["edge"]) for s in steps]
    _want(problems, out["final_m"] == len(edges) - len(deleted), "final_m mismatch")
    stride = max(1, len(steps) // 6)
    picks = set(range(0, len(steps), stride)) | {len(steps)}
    live = set(edges)
    for i in range(len(steps) + 1):
        if i in picks:
            a = np.zeros((g.n, g.n))
            for u, v in live:
                a[u, v] = a[v, u] = 1.0
            lam, x = _top_eig(a)
            m_i = len(live)
            thr = eta / math.sqrt(m_i)
            prods = {e: x[e[0]] * x[e[1]] for e in live}
            if i < len(steps):
                s = steps[i]
                e = tuple(s["edge"])
                lo = min(prods.values())
                _want(problems, s["m_i"] == m_i and e in live, f"step {i}: wrong edge or m_i")
                _want(problems, abs(s["lambda_i"] - lam) <= 1e-9 * lam, f"step {i}: lambda")
                _want(problems, abs(prods.get(e, -1) - s["product"]) <= 1e-9 + 1e-6 * s["product"]
                      and s["product"] <= lo + 1e-9 and s["product"] < thr,
                      f"step {i}: deleted edge is not the lightest violating edge")
            else:
                _want(problems, min(prods.values()) >= thr * (1 - 1e-6),
                      "violating edge left after pruning")
        if i < len(steps):
            live.discard(deleted[i])


def _pipeline_split(out, prep, problems):
    g = prep.hosts["splitp"]
    gone = {tuple(s["edge"]) for s in out["trace"]["steps"]}
    kept = [e for e in g.edges if e not in gone]
    _want(problems, out["count"] == _c4_codegree(g.n, kept), "pipeline count != codegree oracle")


def _partition(out, prep, problems):
    g = prep.hosts["splitbig"]
    if "error" in out:
        problems.append(f"partition failed: {out['error']}")
        return
    _want(problems, out["a_size"] + out["c_size"] + out["d_size"] == g.n,
          "A/C/D do not partition the vertices")
    _want(problems, out["t1_ok"] and out["t2_ok"] and out["t3_ok"], "T1-T3 not verified")


def _rowcover(out, prep, problems):
    g = prep.hosts["ktq"]
    a_side, d_side = prep.meta["rowcover_sides"]
    m = _dense(g)[np.ix_(a_side, d_side)].astype(float)
    _want(problems, out["e_ad"] == int(m.sum()), "e_ad mismatch")
    sigma = float(np.linalg.svd(m, compute_uv=False)[0])
    _want(problems, abs(out["sigma1"] - sigma) <= 1e-9 * sigma, "sigma1 != numpy svd")


def _sweep_host(graphs, family, t, m, row_seed):
    """Rebuild the host of one sweep row the way `sslab sweep` generates it."""
    if family == "gnm-balanced":
        return graphs.sample_gnm(math.floor(2 * math.sqrt(m)) - t, m, row_seed)
    if family == "split-t":
        return graphs.split_graph(t, m)
    base = graphs.split_graph(t - 1, m - 1)
    spec = graphs.SplitSpec(t - 1, m - 1)
    lo = spec.k + (1 if spec.r > 0 else 0)
    u, v = sorted(random.Random(row_seed).sample(range(lo, base.n), 2))
    return graphs.Graph.from_edges(base.n, list(base.edges) + [(u, v)])


def _sweep(out, prep, problems, graphs, small):
    if not out:
        problems.append("sweep printed no rows")
    for row in out:
        g = _sweep_host(graphs, row["family"], row["t"], row["m"], row["seed"])
        where = f"{row['family']} m={row['m']} sample={row['sample']}"
        _want(problems, g.n == row["n"], f"{where}: n")
        if row["t"] == 2 and g.n <= CODEGREE_MAX_N:
            _want(problems, row["count"] == _c4_codegree(g.n, g.edges), f"{where}: count")
        if small:
            want = _brute_k22(g) if row["pattern"] == "ktt" else _nx_cycles(g, 2 * row["t"])
            _want(problems, row["count"] == want, f"{where}: count != independent oracle")
            lam, _ = _top_eig(_dense(g))
            _want(problems, abs(row["lambda"] - lam) <= 1e-9 * lam, f"{where}: lambda")


def _hom_oracle(name, g) -> int:
    a = _dense(g)
    ones = np.ones(g.n, dtype=np.int64)
    if name in ("check-path4", "hom-path4"):
        return int(ones @ np.linalg.matrix_power(a, 3) @ ones)
    if name == "check-k33":
        af = a.astype(float)
        total = 0
        for u in range(g.n):
            c = np.rint((af[u] * af) @ af.T).astype(np.int64)
            total += int((c**3).sum())
        return total
    if name == "check-c8":
        return int(np.trace(np.linalg.matrix_power(a, 8)))
    if name == "check-k23":
        return int((np.linalg.matrix_power(a, 2) ** 3).sum())
    if name == "hom-c4":
        return int(np.trace(np.linalg.matrix_power(a, 4)))
    if name == "hom-c6":
        return int(np.trace(np.linalg.matrix_power(a, 6)))
    raise KeyError(name)


def _check_like(cmd, out, prep, problems):
    g = prep.hosts[cmd.host]
    lam, _ = _top_eig(_dense(g))
    if cmd.argv[0] in ("check", "spectral"):
        _want(problems, abs(out["lambda"] - lam) <= 1e-9 * lam, "lambda != numpy eigh")
    if cmd.argv[0] in ("check", "hom"):
        _want(problems, out["hom"] == _hom_oracle(cmd.name, g), "hom != matrix oracle")
    if cmd.name in ("hom-c4", "hom-c6"):
        length = 4 if cmd.name == "hom-c4" else 6
        _want(problems, out["copies"] == _nx_cycles(g, length), "copies != networkx cycles")
        _want(problems, out["aut"] == 2 * length, "aut order")
    if cmd.name == "regularize-k4":
        _want(problems, abs(out["log_lambda"] - math.log(lam)) <= 1e-9, "log_lambda")
        _want(problems, abs(out["entropy_gap"] - out["log_lambda"]) <= 1e-6, "entropy identity")
        _want(problems, sum(out["n_vec"]) == out["k"], "n_vec does not sum to k")


def oracle(cmd, out, prep, graphs) -> list[str]:
    """Problems found by the independent checks of one command's output."""
    problems: list[str] = []
    name = cmd.name
    if name == "prune-starmix":
        _prune_starmix(out, prep, problems)
    elif name == "prune-corep":
        _prune_corep(out, prep, problems)
    elif name == "pipeline-splitp-c2t":
        _pipeline_split(out, prep, problems)
    elif name == "partition-splitbig":
        _partition(out, prep, problems)
    elif name == "rowcover-ktq":
        _rowcover(out, prep, problems)
    elif name.startswith("sweep-"):
        _sweep(out, prep, problems, graphs, small=name.endswith("-small"))
    else:
        _check_like(cmd, out, prep, problems)
    return problems
