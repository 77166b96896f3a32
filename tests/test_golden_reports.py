"""Byte-for-byte goldens of the `sslab.report.v1` output.

Every file under data/golden_reports/ holds the exact stdout of one CLI run
(`<case>.json`), the exact stderr of one failing run (`<case>.stderr`), or one
in-process `supersat_count` report put through the CLI's pipeline serializer
(`report-<case>.json`).  Together they reach every shape the report layer
emits: each subcommand, the partition error, both row-cover variants, and
every pipeline branch including the emptied one with its two nulls.
"""

import dataclasses
from pathlib import Path

import pytest

from sslab import cli, graphs, supersat
from sslab.supersat import row_cover_analyze, supersat_count

GOLDEN = Path(__file__).parent / "data" / "golden_reports"


def _pendants(base, anchors):
    """`base` plus one new leaf hanging off each anchor vertex."""
    n = base.n
    extra = [(a, n + i) for i, a in enumerate(anchors)]
    return graphs.Graph.from_edges(n + len(anchors), list(base.edges) + extra)


HOSTS = {
    "split60": lambda: graphs.split_graph(2, 60),
    "split60p": lambda: _pendants(graphs.split_graph(2, 60), [10, 20]),
    "split300p": lambda: _pendants(graphs.split_graph(2, 300), [10, 50, 100]),
    "starmix": lambda: graphs.union(graphs.star(20), graphs.sample_gnm(15, 30, 1)),
    "cycle40": lambda: graphs.cycle(40),
    "k25": lambda: graphs.complete_bipartite(2, 5),
    # A = {0, 1}, D = {2..11}: row 0 sees all of D, row 1 only vertex 2
    "cover": lambda: graphs.Graph.from_edges(
        12, [(0, v) for v in range(2, 12)] + [(1, 2)]
    ),
    "p3": lambda: graphs.star(2),
}

D_SIDE = ",".join(map(str, range(2, 12)))

# case -> (subcommand, host, further flags, exit code)
CLI_CASES = {
    "spectral": ("spectral", "split60", (), 0),
    "hom-c4": ("hom", "split60", ("--pattern", "c2t", "--t", "2"), 0),
    "check-ktt": ("check", "split60", ("--pattern", "ktt", "--t", "2"), 0),
    "check-path-tree": ("check", "split60", ("--pattern", "path", "--pn", "3"), 0),
    "prune-pendants": ("prune", "split60p", ("--t", "2"), 0),
    "prune-starmix": ("prune", "starmix", ("--t", "2"), 0),
    "partition": ("partition", "starmix", ("--t", "2", "--eta", "1e-4"), 0),
    "partition-too-delocalized": (
        "partition", "cycle40", ("--t", "2", "--eta", "0.1"), 0,
    ),
    "rowcover-many-copies": (
        "rowcover", "k25", ("--t", "2", "--a-side", "0,1", "--d-side", "2,3,4,5,6"), 0,
    ),
    "rowcover-cover": (
        "rowcover", "cover", ("--t", "2", "--a-side", "0,1", "--d-side", D_SIDE), 0,
    ),
    "rowcover-pruned-no-ad-edges": (
        "rowcover", "split300p", ("--t", "2", "--eta", "1e-3"), 2,
    ),
    "rowcover-pruned-too-delocalized": ("rowcover", "split60p", ("--t", "2"), 0),
    "regularize": ("regularize", "p3", ("--k", "4", "--materialize"), 0),
    "pipeline-below-threshold": (
        "pipeline", "cycle40", ("--t", "2", "--pattern", "ktt"), 0,
    ),
    "pipeline-delocalized": (
        "pipeline", "split60p", ("--t", "2", "--pattern", "c2t"), 0,
    ),
}


def cli_argv(case: str, workdir: Path) -> list:
    command, host, flags, _ = CLI_CASES[case]
    path = workdir / f"{host}.txt"
    if not path.exists():
        path.write_text(graphs.write_edge_list(HOSTS[host]()))
    return [command, "--in", str(path), *flags]


def golden_name(case: str) -> str:
    return f"{case}.json" if CLI_CASES[case][3] == 0 else f"{case}.stderr"


def pipeline_reports() -> dict:
    """In-process reports for the branches the driver's `G_CUT` does not
    reach from small hosts (so it is set to 0 here, and `FRAC_CUT` too for
    the dense core), plus two assembled ones: a sparse core with a row
    cover, and a trace that pruned every edge."""
    host = HOSTS["split300p"]()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(supersat, "G_CUT", 0.0)
        reps = {
            "delocalized-fallback": supersat_count(host, 2, "ktt"),
            "sparse-core": supersat_count(host, 2, "c2t", eta=1e-3),
        }
        mp.setattr(supersat, "FRAC_CUT", 0.0)
        reps["dense-core"] = supersat_count(host, 2, "ktt", eta=1e-3)
    rc = row_cover_analyze(HOSTS["k25"](), [0, 1], [2, 3, 4, 5, 6], 2)
    reps["sparse-core-rowcover"] = dataclasses.replace(
        reps["sparse-core"], rowcover=rc, notes=()
    )
    deloc = supersat_count(HOSTS["split60p"](), 2, "ktt")
    emptied_trace = dataclasses.replace(
        deloc.trace,
        final_graph=graphs.empty_graph(deloc.trace.final_graph.n),
        final_perron=None,
        alpha=0.0,
        gap_ratio=None,
        emptied=True,
    )
    reps["emptied"] = dataclasses.replace(
        deloc,
        trace=emptied_trace,
        branch="emptied",
        g_loc=None,
        count=0,
        count_method=None,
        copy_lower_bound=None,
        ratio=0.0,
        notes=("pruning removed every edge",),
    )
    return reps


@pytest.mark.parametrize("case", sorted(CLI_CASES))
def test_cli_report_bytes(case, tmp_path, capsys):
    rc = cli.main(cli_argv(case, tmp_path))
    out, err = capsys.readouterr()
    assert rc == CLI_CASES[case][3]
    want = (GOLDEN / golden_name(case)).read_text()
    assert (out if rc == 0 else err) == want


@pytest.fixture(scope="module")
def reports():
    return pipeline_reports()


@pytest.mark.parametrize(
    "case",
    ["delocalized-fallback", "dense-core", "sparse-core",
     "sparse-core-rowcover", "emptied"],
)
def test_pipeline_report_bytes(case, reports):
    rep = reports[case]
    assert rep.branch == case.replace("-rowcover", "")
    want = (GOLDEN / f"report-{case}.json").read_text()
    assert cli._render("pipeline", rep) == want
