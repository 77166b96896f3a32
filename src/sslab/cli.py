"""Command-line front end.

Subcommands: gen, spectral, hom, check, prune, partition, rowcover,
regularize, pipeline, sweep.  Single runs emit JSON (versioned schema,
sorted keys, no timestamps); sweeps emit CSV with a pinned header.  All
output is deterministic given flags + seed.  Each subcommand takes only the
flags it reads; any other flag is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
from dataclasses import fields, is_dataclass

import numpy as np

from . import graphs, homcounts, regularize, sidorenko, spectra, supersat

SCHEMA = "sslab.report.v1"
CSV_SCHEMA = "sslab.sweep.v1"
CSV_HEADER = (
    "schema,family,pattern,t,m,sample,seed,n,lambda,split_lambda,"
    "above_threshold,count,count_over_mt,sharp_constant,expected"
)


class UsageError(graphs.SslabError):
    pass


def _f(x) -> float:
    """Round to 12 significant digits for stable serialization."""
    return float(f"{float(x):.12g}")


def _fs(x) -> str:
    return f"{float(x):.12g}"


# -- report serialization --------------------------------------------------


def _fields(obj, drop=()) -> dict:
    """A dataclass's fields by name, leaving out `drop` and None values."""
    out = {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in drop}
    return {k: v for k, v in out.items() if v is not None}


# What each report type drops, renames or derives; any other dataclass
# emits its non-None fields as they are.  Derived keys are emitted even
# when None: the emptied branch reports a null gap_ratio and count_method.
_SHAPES = {
    supersat.PruneTrace: lambda tr: {
        **_fields(tr, drop=("final_graph", "final_perron")),
        "final_m": tr.final_graph.edge_count,
        "gap_ratio": tr.gap_ratio,
    },
    supersat.AcdPartition: lambda acd: {
        **_fields(acd, drop=("c_set", "d_set")),
        "a_size": len(acd.a_set),
        "c_size": len(acd.c_set),
        "d_size": len(acd.d_set),
    },
    supersat.RowCoverOutcome: lambda rc: {
        **_fields(rc, drop=("b_set",)),
        **({"b_size": len(rc.b_set)} if rc.b_set is not None else {}),
    },
    supersat.PipelineReport: lambda rep: {
        **_fields(rep, drop=("lam",)),
        "lambda": rep.lam,
        **({"count_method": rep.count_method} if rep.count is not None else {}),
    },
    sidorenko.IneqReport: lambda rep: {
        **_fields(rep, drop=("lam",)),
        "lambda": rep.lam,
    },
    regularize.RegularBundle: lambda b: {
        **_fields(b, drop=("vertices",)),
        "component_size": len(b.vertices),
    },
}


def _shape(obj) -> dict:
    return _SHAPES.get(type(obj), _fields)(obj)


def _plain(x):
    """JSON-ready copy of a report value: dataclasses through `_SHAPES`,
    floats rounded by `_f`, tuples and arrays as lists, dict keys as str."""
    if is_dataclass(x):
        x = _shape(x)
    if isinstance(x, np.ndarray):
        if x.dtype.kind in "biu":  # no floats inside: nothing to round
            return x.tolist()
        x = x.tolist()
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, float):
        return _f(x)
    return x


def _render(kind: str, *parts) -> str:
    """The `sslab.report.v1` text of one run: the schema and kind, then the
    keys of each part (a report dataclass or a dict) in turn."""
    obj = {"schema": SCHEMA, "kind": kind}
    for part in parts:
        obj.update(_shape(part) if is_dataclass(part) else part)
    return json.dumps(_plain(obj), sort_keys=True, indent=2) + "\n"


def _write(path, text: str) -> None:
    """Write `text` to the file `path`, or to stdout when `path` is None."""
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, kind: str, *parts) -> None:
    _write(args.out, _render(kind, *parts))


def _load_graph(path) -> graphs.Graph:
    """The graph in the edge-list file `path`, read as UTF-8 whatever the
    locale; a byte that is not UTF-8 is a `ParseError` at its line.  Line
    breaks are read as a file opened in text mode reads them, so `\\r\\n`
    text too takes `read_edge_list`'s numpy pass."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((raw[:exc.start].decode("utf-8") + ".").splitlines())  # as the reader counts
        raise graphs.ParseError(f"byte 0x{raw[exc.start]:02x} is not UTF-8", line) from None
    return graphs.read_edge_list(text.replace("\r\n", "\n").replace("\r", "\n"))


def _pattern_graph(args) -> graphs.Graph:
    """The pattern --pattern names.  ktt and c2t read --t, path --pn (default
    3), custom --pattern-file (where the subcommand has it); any other
    pattern flag is a usage error."""
    reads = {**dict.fromkeys(supersat.PATTERNS, "t"), "path": "pn", "custom": "pattern_file"}
    name = args.pattern
    if name not in reads or not hasattr(args, reads[name]):
        raise UsageError(f"unknown pattern {name!r}")
    for flag in ("t", "pn", "pattern_file"):
        if flag != reads[name] and getattr(args, flag, None) is not None:
            raise UsageError(f"--{flag.replace('_', '-')} does not apply to pattern {name}")
    if name == "custom":
        if not args.pattern_file:
            raise UsageError("--pattern-file required for custom pattern")
        return _load_graph(args.pattern_file)
    if name == "path":
        return graphs.path(args.pn if args.pn is not None else 3)
    if args.t is None:
        raise UsageError(f"--t required for pattern {name}")
    return supersat.PATTERNS[name].graph(args.t)


# -- subcommands -----------------------------------------------------------


# the size flags of `gen`, each read by its families, and --seed, read by gnm
_GEN_FLAGS = [*dict.fromkeys(n for _, ns in graphs.FAMILIES.values() for n in ns), "seed"]


def cmd_gen(args) -> int:
    _, names = graphs.FAMILIES[args.family]
    reads = (*names, "seed") if args.family == "gnm" else names
    for flag in _GEN_FLAGS:
        if flag not in reads and getattr(args, flag) is not None:
            raise UsageError(f"--{flag} does not apply to family {args.family}")
    missing = [f"--{name}" for name in names if getattr(args, name) is None]
    if missing:
        raise UsageError(f"family {args.family} requires {', '.join(missing)}")
    params = [getattr(args, name) for name in names]
    g = graphs.make_family(args.family, params, args.seed)
    _write(args.out, graphs.write_edge_list(g))
    return 0


def cmd_spectral(args) -> int:
    g = _load_graph(args.infile)
    pd = spectra.perron(g, tol=args.tol)
    _emit(
        args,
        "spectral",
        {
            "n": g.n,
            "m": g.edge_count,
            "lambda": pd.lam,
            "component": g.components.index(pd.component),
            "residual_below_tol": pd.residual <= args.tol,
            "sup_norm": max(pd.x),
            "g_loc": supersat.localization_g(pd, g.edge_count),
        },
    )
    return 0


def cmd_hom(args) -> int:
    g = _load_graph(args.infile)
    h = _pattern_graph(args)
    res = homcounts.hom_count(h, g)
    inj = homcounts.inj_count(h, g)
    aut = homcounts.aut_order(h)
    _emit(
        args,
        "hom",
        {
            "pattern": args.pattern,
            "pattern_vertices": h.n,
            "pattern_edges": h.edge_count,
            "hom": res.value,
            "inj": inj.value,
            "aut": aut,
            "copies": inj.value // aut,
            "method": res.method,
        },
    )
    return 0


def cmd_check(args) -> int:
    g = _load_graph(args.infile)
    h = _pattern_graph(args)
    rep = sidorenko.check_suite(h, g, tol=args.tol)
    _emit(args, "check", {"pattern": args.pattern}, rep)
    # a None verdict is a form that does not apply to the pattern
    return 1 if False in (rep.holds_i, rep.holds_ii, rep.holds_iii, rep.holds_cert) else 0


def cmd_prune(args) -> int:
    trace = supersat.heavy_prune(_load_graph(args.infile), args.t, eta=args.eta)
    _emit(args, "prune", trace)
    return 0


def _prune_and_partition(args, kind: str, g: graphs.Graph):
    """(trace, partition) of the pruned host, or None after emitting the
    `kind` report of a domain outcome: every edge pruned, or a Perron vector
    too delocalized for a level-set partition."""
    trace = supersat.heavy_prune(g, args.t, eta=args.eta)
    if trace.emptied:
        _emit(args, kind, {"error": "emptied"})
        return None
    try:
        return trace, supersat.partition_pruned(trace)
    except supersat.TooDelocalizedError as exc:
        _emit(
            args,
            kind,
            {
                "error": "too-delocalized",
                "k_levels": exc.k_levels,
                "index_set": exc.index_set,
            },
        )
        return None


def cmd_partition(args) -> int:
    pruned = _prune_and_partition(args, "partition", _load_graph(args.infile))
    if pruned is not None:
        _emit(args, "partition", pruned[1])
    return 0


def _vertex_list(flag: str, text: str) -> list[int]:
    """The ids in `text`; row_cover_analyze checks that they are vertices."""
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise UsageError(f"{flag} takes comma-separated vertex ids, got {text!r}")


def cmd_rowcover(args) -> int:
    g = _load_graph(args.infile)
    if (args.a_side is None) != (args.d_side is None):
        raise UsageError("--a-side and --d-side go together")
    if args.a_side is not None:
        if args.eta is not None:
            raise UsageError("--eta applies only when the sides come from pruning")
        a_set = _vertex_list("--a-side", args.a_side)
        d_set = _vertex_list("--d-side", args.d_side)
    else:
        pruned = _prune_and_partition(args, "rowcover", g)
        if pruned is None:
            return 0
        trace, acd = pruned
        g, a_set, d_set = trace.final_graph, acd.a_set, acd.d_set
    _emit(args, "rowcover", supersat.row_cover_analyze(g, a_set, d_set, args.t))
    return 0


def cmd_regularize(args) -> int:
    g = _load_graph(args.infile)
    dist = regularize.edge_distribution(g)
    bundle = regularize.build_regular(g, args.k, dist)
    derived = {
        "entropy_gap": regularize.entropy_gap(dist),
        "log_lambda": math.log(dist.lam),
    }
    if args.materialize:
        fk = regularize.materialize_fk(bundle, g)
        derived.update(fk_vertices=fk.n, fk_edges=fk.edge_count)
    _emit(args, "regularize", bundle, derived)
    return 0


def cmd_pipeline(args) -> int:
    g = _load_graph(args.infile)
    _emit(args, "pipeline", supersat.supersat_count(g, args.t, args.pattern, args.eta))
    return 0


# -- sweep -----------------------------------------------------------------


def _sweep_size(family: str, t: int, m: int) -> tuple[int, int]:
    """Vertex count and a bound on the false-twin classes of the `family`
    sweep host with m edges, after checking that such a host exists."""
    if family == "gnm-balanced":
        n = math.floor(2 * math.sqrt(m)) - t
        if 0 <= n and m <= n * (n - 1) // 2:
            return n, n
    elif family in ("split-t", "split-t-minus-1-perturbed"):
        # the perturbed host is S_{t-1,m-1} plus an edge between two of its
        # independent vertices, which leave their class
        k, mk, q = (t, m, 0) if family == "split-t" else (t - 1, m - 1, 2)
        if graphs.SplitSpec.exists(k, mk) and (spec := graphs.SplitSpec(k, mk)).q >= q:
            return spec.n, spec.classes + q
    else:
        raise UsageError(f"unknown sweep family {family!r}")
    raise UsageError(f"--m-range: family {family} has no host with t={t} and m={m}")


def _sweep_host(family: str, t: int, m: int, sample: int, seed: int):
    row_seed = (seed * 1_000_003 + m * 101 + sample * 7919) & (2**63 - 1)
    n, _ = _sweep_size(family, t, m)
    if family == "gnm-balanced":
        return graphs.sample_gnm(n, m, row_seed), row_seed
    if family == "split-t":
        return graphs.split_graph(t, m), row_seed
    # S_{t-1,m-1} plus one seeded edge between independent vertices
    base = graphs.split_graph(t - 1, m - 1)
    indep = range(graphs.SplitSpec(t - 1, m - 1).indep_start, n)
    u, v = sorted(random.Random(row_seed).sample(indep, 2))
    return graphs.Graph.from_edges(n, np.vstack([base.edge_array, [(u, v)]])), row_seed


def _estimate_work(family: str, pattern: str, t: int, m: int) -> int:
    n, classes = _sweep_size(family, t, m)
    return supersat.PATTERNS[pattern].work(n, m, t, classes)


def _sweep_row(family: str, pattern: str, t: int, m: int, sample: int, seed: int):
    g, row_seed = _sweep_host(family, t, m, sample, seed)
    rules = supersat.PATTERNS[pattern]
    pd = spectra.perron(g)
    thr, above = supersat.split_threshold(g, pd, t)
    count = rules.count(g, t).value
    expected = ""
    if rules.gnm_expected and family == "gnm-balanced":
        try:
            expected = _fs(rules.gnm_expected(g.n, m, t))
        except sidorenko.SidorenkoError:
            expected = ""
    return (
        f"{CSV_SCHEMA},{family},{pattern},{t},{m},{sample},{row_seed},{g.n},"
        f"{_fs(pd.lam)},{_fs(thr)},{int(above)},{count},"
        f"{_fs(count / float(m) ** t)},{_fs(rules.sharp(t))},{expected}"
    )


def cmd_sweep(args) -> int:
    try:
        start, stop, step = (int(x) for x in args.m_range.split(":"))
    except ValueError:
        raise UsageError("--m-range must be start:stop:step")
    if start < 1:
        raise UsageError("--m-range start must be >= 1")
    if stop < start:
        raise UsageError("--m-range stop must be >= start")
    if step <= 0:
        raise UsageError("sweep step must be > 0")
    if args.t < 2:
        raise UsageError("sweep needs --t >= 2")
    supersat.PATTERNS[args.pattern].refuse(args.t)  # on every m, before any work
    if args.samples < 1:
        raise UsageError("samples must be >= 1")
    # rows come out sorted by (family, m, sample)
    families = sorted(f.strip() for f in args.families.split(",") if f.strip())
    if not families:
        raise UsageError("--families names no family")
    if len(set(families)) < len(families):
        raise UsageError("--families names a family twice")
    ms = range(start, stop + 1, step)
    # a row's estimate does not depend on its sample; the pairs are walked
    # lazily, so a refusal takes neither time nor memory for the whole range
    work = 0
    for fam in families:
        for m in ms:
            work += args.samples * _estimate_work(fam, args.pattern, args.t, m)
            if work > homcounts.WORK_BUDGET and not args.force:
                sys.stderr.write(f"estimated work: at least {work} elementary steps\n")
                sys.stderr.write("budget exceeded; re-run with --force\n")
                return 2
    sys.stderr.write(f"estimated work: {work} elementary steps\n")
    lines = [
        _sweep_row(fam, args.pattern, args.t, m, s, args.seed)
        for fam in families
        for m in ms
        for s in range(args.samples)
    ]
    _write(args.out, "\n".join([CSV_HEADER, *lines]) + "\n")
    return 0


# -- argument parsing ------------------------------------------------------


def positive_float(text: str) -> float:
    """The value of --tol: a positive finite float."""
    tol = float(text)
    if not 0 < tol < math.inf:  # nan fails too
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
    return tol


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process.  It holds no handler: `main`
    runs `cmd_<subcommand>` as the module names it at that call."""
    p = argparse.ArgumentParser(prog="sslab")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, *, infile=True, t=None):
        """A subcommand with --out, plus --in (required) unless `infile` is
        false, plus --t when `t` is not None (required when `t` is true).
        No abbreviations, so a stray --t cannot turn into --tol."""
        sp = sub.add_parser(name, allow_abbrev=False)
        sp.add_argument("--out")
        if infile:
            sp.add_argument("--in", dest="infile", required=True)
        if t is not None:
            sp.add_argument("--t", type=int, required=t)
        return sp

    sp = command("gen", infile=False)
    sp.add_argument("--family", required=True, choices=list(graphs.FAMILIES))
    for name in _GEN_FLAGS:
        sp.add_argument(f"--{name}", type=int)

    sp = command("spectral")
    sp.add_argument("--tol", type=positive_float, default=spectra.TOL)

    sp = command("hom", t=False)
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--pn", type=int)

    sp = command("check", t=False)
    sp.add_argument("--tol", type=positive_float, default=spectra.TOL)
    sp.add_argument("--pattern", required=True)
    sp.add_argument("--pn", type=int)
    sp.add_argument("--pattern-file")

    sp = command("prune", t=True)
    sp.add_argument("--eta", type=float)

    sp = command("partition", t=True)
    sp.add_argument("--eta", type=float)

    sp = command("rowcover", t=True)
    sp.add_argument("--eta", type=float)
    sp.add_argument("--a-side")
    sp.add_argument("--d-side")

    sp = command("regularize")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--materialize", action="store_true")

    sp = command("pipeline", t=True)
    sp.add_argument("--pattern", required=True, choices=list(supersat.PATTERNS))
    sp.add_argument("--eta", type=float)

    sp = command("sweep", infile=False, t=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--pattern", required=True, choices=list(supersat.PATTERNS))
    sp.add_argument("--m-range", required=True)
    sp.add_argument("--samples", type=int, default=1)
    sp.add_argument("--families", default="gnm-balanced")
    sp.add_argument("--force", action="store_true")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return globals()[f"cmd_{args.command}"](args)
    except (graphs.SslabError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {exc}\n")
    except Exception as exc:  # a fault, not a verdict: never exit 1
        msg = " ".join(str(exc).split())
        sys.stderr.write(f"error: internal: {type(exc).__name__}: {msg}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
