"""Seeded workload definitions: host generation and the fixed command lists.

Each workload writes its hosts as edge-list files into a work directory and
returns the `sslab` CLI argument lists it runs, in order.  The program sees
only those files and flags; every random choice comes from the workload seed.

`full` is the measured size.  `tiny` is the same command list on small hosts,
used by the smoke self-test.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

SWEEP_FAMILIES = "gnm-balanced,split-t,split-t-minus-1-perturbed"


@dataclass(frozen=True)
class Command:
    name: str  # stable label used by the checks and the reference file
    argv: tuple[str, ...]
    host: str | None = None  # edge-list file the command reads, if any


@dataclass(frozen=True)
class Prepared:
    commands: tuple[Command, ...]
    hosts: dict  # file name -> Graph, kept for the oracles
    meta: dict  # generation facts the oracles need (e.g. the G(n,m) edges)


SIZES = {
    "prune": {
        "full": dict(star=200, mix_n=100, mix_m=220, core_n=120, core_m=1200,
                     split_m=2000, split_p=8, big_m=5000, big_p=6,
                     rc_q=600, rc_noise_rows=24, rc_noise_deg=40, rc_d_edges=900),
        "tiny": dict(star=30, mix_n=20, mix_m=30, core_n=70, core_m=500,
                     split_m=120, split_p=3, big_m=400, big_p=2,
                     rc_q=40, rc_noise_rows=4, rc_noise_deg=6, rc_d_edges=30),
    },
    "sweep": {
        "full": dict(c4="1000:2000:1000", c6="600:1200:600", k22="1000:2000:1000",
                     small_c4="50:150:50", small_c6="60:100:20", small_samples=2),
        "tiny": dict(c4="100:200:100", c6="60:120:60", k22="100:200:100",
                     small_c4="50:50:1", small_c6="60:60:1", small_samples=1),
    },
    "check": {
        "full": dict(path=(200, 2000), ktt=(120, 1200), walk=(100, 4200),
                     k23=(80, 600), c4=(60, 300), c6=(60, 180), hpath=(80, 600),
                     reg=(200, 1200)),
        "tiny": dict(path=(30, 100), ktt=(20, 80), walk=(100, 4200),
                     k23=(20, 60), c4=(15, 40), c6=(12, 30), hpath=(20, 60),
                     reg=(30, 90)),
    },
}

WORKLOADS = tuple(SIZES)


def _write(g, workdir: str, name: str, graphs) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(graphs.write_edge_list(g))
    return path


def _pendants(graphs, base, anchors):
    """`base` plus one new leaf hanging off each anchor vertex."""
    n = base.n
    edges = list(base.edges) + [(a, n + i) for i, a in enumerate(anchors)]
    return graphs.Graph.from_edges(n + len(anchors), edges)


def _prune(graphs, rng, workdir, s):
    hosts, meta = {}, {}

    # A star beside a disjoint G(n,m): the star holds the Perron vector, so
    # every G(n,m) edge has product 0 and is deleted without changing lambda.
    mix = graphs.sample_gnm(s["mix_n"], s["mix_m"], rng.getrandbits(62))
    starmix = graphs.union(graphs.star(s["star"]), mix)
    shift = s["star"] + 1
    meta["starmix_gnm_edges"] = [(u + shift, v + shift) for u, v in mix.edges]
    meta["star_leaves"] = s["star"]

    # A dense random core with one pendant leaf per core vertex: the pendants
    # sit inside the Perron component, so every deletion needs a real solve.
    core = graphs.sample_gnm(s["core_n"], s["core_m"], rng.getrandbits(62))
    corep = _pendants(graphs, core, range(core.n))

    # Split hosts S_{2,m} with a few pendants on seeded independent vertices.
    def split_host(m, p):
        base = graphs.split_graph(2, m)
        lo = 2 + (1 if graphs.SplitSpec(2, m).r else 0)
        return _pendants(graphs, base, sorted(rng.sample(range(lo, base.n), p)))

    splitp = split_host(s["split_m"], s["split_p"])
    splitbig = split_host(s["big_m"], s["big_p"])

    # K_{2,q} plus noise rows on the A side and noise edges inside D.
    q = s["rc_q"]
    a_rows = 2 + s["rc_noise_rows"]
    d = list(range(a_rows, a_rows + q))
    edges = {(a, v) for a in range(2) for v in d}
    for a in range(2, a_rows):
        edges.update((a, v) for v in rng.sample(d, s["rc_noise_deg"]))
    while len(edges) < 2 * q + (a_rows - 2) * s["rc_noise_deg"] + s["rc_d_edges"]:
        u, v = sorted(rng.sample(d, 2))
        edges.add((u, v))
    ktq = graphs.Graph.from_edges(a_rows + q, sorted(edges))
    a_side = ",".join(map(str, range(a_rows)))
    d_side = ",".join(map(str, d))

    for name, g in (("starmix", starmix), ("corep", corep), ("splitp", splitp),
                    ("splitbig", splitbig), ("ktq", ktq)):
        hosts[name] = g
        _write(g, workdir, name + ".txt", graphs)

    def p(name):
        return os.path.join(workdir, name + ".txt")

    cmds = [
        Command("prune-starmix", ("prune", "--in", p("starmix"), "--t", "2"), "starmix"),
        Command("prune-corep", ("prune", "--in", p("corep"), "--t", "2"), "corep"),
        Command("pipeline-splitp-c2t", ("pipeline", "--in", p("splitp"), "--t", "2",
                                         "--pattern", "c2t"), "splitp"),
        Command("partition-splitbig", ("partition", "--in", p("splitbig"), "--t", "2",
                                        "--eta", "1e-3"), "splitbig"),
        Command("rowcover-ktq", ("rowcover", "--in", p("ktq"), "--t", "2",
                                  "--a-side", a_side, "--d-side", d_side), "ktq"),
    ]
    meta["rowcover_sides"] = (list(range(a_rows)), d)
    return cmds, hosts, meta


def _sweep(graphs, rng, workdir, s):
    def seed():
        return str(rng.randrange(1, 10**6))

    def sweep(name, pattern, t, m_range, families=SWEEP_FAMILIES, samples=1):
        return Command(name, ("sweep", "--pattern", pattern, "--t", str(t),
                              "--m-range", m_range, "--families", families,
                              "--samples", str(samples), "--seed", seed()))

    small = s["small_samples"]
    cmds = [
        sweep("sweep-c4", "c2t", 2, s["c4"]),
        sweep("sweep-c6", "c2t", 3, s["c6"]),
        sweep("sweep-k22", "ktt", 2, s["k22"]),
        # small hosts, so every row can be checked against networkx
        sweep("sweep-c4-small", "c2t", 2, s["small_c4"], samples=small),
        sweep("sweep-c6-small", "c2t", 3, s["small_c6"], samples=small),
        sweep("sweep-k22-small", "ktt", 2, s["small_c4"], "gnm-balanced", small),
    ]
    return cmds, {}, {}


def _check(graphs, rng, workdir, s):
    hosts = {}

    def host(name, nm):
        g = graphs.sample_gnm(nm[0], nm[1], rng.getrandbits(62))
        hosts[name] = g
        return _write(g, workdir, name + ".txt", graphs)

    k23 = _write(graphs.complete_bipartite(2, 3), workdir, "pattern-k23.txt", graphs)
    cmds = [
        Command("check-path4", ("check", "--in", host("path", s["path"]),
                                "--pattern", "path", "--pn", "4"), "path"),
        Command("check-k33", ("check", "--in", host("ktt", s["ktt"]),
                              "--pattern", "ktt", "--t", "3"), "ktt"),
        # (2m)^4 >= 2^52 on this host, so tr(A^8) takes the exact-integer path
        Command("check-c8", ("check", "--in", host("walk", s["walk"]),
                             "--pattern", "c2t", "--t", "4"), "walk"),
        Command("check-k23", ("check", "--in", host("k23", s["k23"]),
                              "--pattern", "custom", "--pattern-file", k23), "k23"),
        Command("hom-c4", ("hom", "--in", host("c4", s["c4"]),
                           "--pattern", "c2t", "--t", "2"), "c4"),
        Command("hom-c6", ("hom", "--in", host("c6", s["c6"]),
                           "--pattern", "c2t", "--t", "3"), "c6"),
        Command("hom-path4", ("hom", "--in", host("hpath", s["hpath"]),
                              "--pattern", "path", "--pn", "4"), "hpath"),
        Command("regularize-k4", ("regularize", "--in", host("reg", s["reg"]),
                                  "--k", "4"), "reg"),
        Command("spectral", ("spectral", "--in", os.path.join(workdir, "reg.txt")), "reg"),
    ]
    return cmds, hosts, {}


_BUILDERS = {"prune": _prune, "sweep": _sweep, "check": _check}


def prepare(workload: str, seed: int, size: str, workdir: str, graphs) -> Prepared:
    """Generate the hosts of `workload` from `seed` into `workdir`."""
    rng = random.Random(f"{workload}:{seed}")
    cmds, hosts, meta = _BUILDERS[workload](graphs, rng, workdir, SIZES[workload][size])
    return Prepared(tuple(cmds), hosts, meta)
