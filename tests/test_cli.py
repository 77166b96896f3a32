"""Command-line interface: subcommands, JSON/CSV output, determinism, exits."""

import argparse
import ast
import dataclasses
import json
import re
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sslab import cli, graphs, homcounts, regularize, sidorenko, spectra, supersat
from sslab.graphs import complete_bipartite, path, split_graph, star, union, write_edge_list
from sslab.regularize import edge_distribution
from conftest import csr_rows, plain_report

DATA = Path(__file__).parent / "data"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "sslab.cli", *args],
        capture_output=True,
        text=True,
    )


def package_sources() -> list[Path]:
    import sslab

    return sorted(Path(sslab.__file__).parent.glob("*.py"))


def exception_classes() -> list[type]:
    """Every exception class that a module of the package defines at its
    top level, where a caller can name it to catch it."""
    import importlib

    found = []
    for p in package_sources():
        module = importlib.import_module("sslab" if p.stem == "__init__" else f"sslab.{p.stem}")
        for node in ast.parse(p.read_text(), str(p)).body:
            if isinstance(node, ast.ClassDef):
                cls = getattr(module, node.name)
                if issubclass(cls, BaseException):
                    found.append(cls)
    return found


# one instance of each exception class the package defines, raised as it
# raises them
ERROR_CATALOGUE = [
    graphs.SslabError("refused"),
    graphs.GraphError("loop at vertex 3", 0),
    graphs.CapExceededError("type class has 6000 tuples > cap 5000", 6000),
    graphs.ParseError("expected two vertex ids", 3),
    spectra.SpectraError("no edge (0, 1) in the graph"),
    spectra.NoEdgesError("perron requires at least one edge"),
    spectra.ConvergenceError("power iteration did not reach tol=1e-10", 1e-3),
    spectra.RegimeError("(p,q)=(3,2) outside 1 < p <= 2 <= q < inf"),
    homcounts.CountError("count_ktt needs t >= 2"),
    homcounts.PatternTooLargeError("pattern has 12 > 10 vertices"),
    homcounts.BudgetExceededError("exact-integer contraction would take ~10 operations", 10),
    sidorenko.SidorenkoError("host needs at least one edge"),
    sidorenko.NonBipartiteError("pattern must be bipartite"),
    sidorenko.DegenerateExponentError("2e = v: conjugate exponent is infinite"),
    regularize.RegularizeError("k must be even and >= 2"),
    supersat.SupersatError("input graph has no edges"),
    supersat.NotHeavyError("1 edges below the eta-heavy threshold", [(0, 1, 0.01)]),
    supersat.TooDelocalizedError("index window [] does not clear ell=1 (K=1)", 1, []),
    cli.UsageError("--m-range must be start:stop:step"),
]


def scoped_nodes(path: Path) -> list:
    """(scope, node) for every AST node of the module at `path`, its scope
    the module and the classes and functions around the node, dotted."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            found.append((scope, child))
            named = isinstance(child, (ast.FunctionDef, ast.ClassDef))
            visit(child, f"{scope}.{child.name}" if named else scope)

    visit(ast.parse(path.read_text(), str(path)), path.stem)
    return found


# the pipeline's refusal hosts: below the split threshold, above it, no edges
EVERY_HOST = {
    "cycle": lambda: graphs.cycle(40),
    "complete": lambda: graphs.complete(30),
    "edgeless": lambda: graphs.empty_graph(5),
}


@pytest.fixture()
def split_file(tmp_path):
    p = tmp_path / "split.txt"
    p.write_text(write_edge_list(split_graph(2, 60)))
    return str(p)


class TestGen:
    def test_split_gen_pins_size(self, tmp_path):
        r = run_cli("gen", "--family", "split", "--k", "2", "--m", "101")
        assert r.returncode == 0
        assert r.stdout.startswith("# n=52\n")
        assert r.stdout.count("\n") == 102  # header + 101 edges

    def test_gen_to_file_roundtrip(self, tmp_path):
        out = tmp_path / "g.txt"
        r = run_cli("gen", "--family", "gnm", "--n", "10", "--m", "15",
                    "--seed", "3", "--out", str(out))
        assert r.returncode == 0
        from sslab import read_edge_list, sample_gnm

        assert read_edge_list(out.read_text()) == sample_gnm(10, 15, 3)

    def test_gnm_requires_seed(self):
        r = run_cli("gen", "--family", "gnm", "--n", "10", "--m", "15")
        assert r.returncode == 2
        assert "seed" in r.stderr

    def test_unknown_family(self):
        r = run_cli("gen", "--family", "mystery", "--n", "4")
        assert r.returncode == 2

    @pytest.mark.parametrize(
        "args, missing",
        [
            (("--family", "split", "--m", "10"), "--k"),
            (("--family", "clique"), "--n"),
            (("--family", "star"), "--n"),
            (("--family", "complete-bipartite", "--a", "2"), "--b"),
            (("--family", "gnm", "--n", "5", "--seed", "1"), "--m"),
        ],
    )
    def test_missing_size_flag_is_usage_error(self, args, missing, capsys):
        from sslab.cli import main

        assert main(["gen", *args]) == 2
        err = capsys.readouterr().err
        assert missing in err and "Traceback" not in err


    @pytest.mark.parametrize(
        "args, flag",
        [
            (("--family", "cycle", "--n", "5", "--m", "7", "--k", "3", "--seed", "4"),
             "--k"),
            (("--family", "cycle", "--n", "5", "--m", "7"), "--m"),
            (("--family", "star", "--n", "3", "--seed", "4"), "--seed"),
            (("--family", "split", "--k", "2", "--m", "10", "--n", "5"), "--n"),
            (("--family", "gnm", "--n", "5", "--m", "3", "--seed", "1", "--a", "2"), "--a"),
            (("--family", "complete-bipartite", "--a", "2", "--b", "3", "--n", "4"), "--n"),
            (("--family", "empty", "--n", "3", "--b", "1"), "--b"),
        ],
    )
    def test_flag_the_family_does_not_read_is_usage_error(self, args, flag, capsys):
        from sslab.cli import main

        assert main(["gen", *args]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {flag} does not apply to family {args[1]}\n"


class TestSpectral:
    def test_fields_and_determinism(self, split_file):
        r1 = run_cli("spectral", "--in", split_file)
        r2 = run_cli("spectral", "--in", split_file)
        assert r1.returncode == 0
        assert r1.stdout == r2.stdout
        obj = json.loads(r1.stdout)
        assert obj["schema"] == "sslab.report.v1"
        assert obj["kind"] == "spectral"
        assert obj["m"] == 60
        assert obj["residual_below_tol"] is True
        assert list(obj) == sorted(obj)
        assert not any("time" in k for k in obj)

    def test_perron_component_after_a_smaller_one(self, tmp_path):
        # the star's component is the second one, by smallest vertex
        g = union(path(3), star(10))
        p = tmp_path / "g.txt"
        p.write_text(write_edge_list(g))
        r = run_cli("spectral", "--in", str(p))
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert obj["component"] == 1
        assert obj["lambda"] == pytest.approx(math.sqrt(10))
        assert edge_distribution(g).vertices == g.components[1] == tuple(range(3, 14))

    def test_missing_input(self):
        r = run_cli("spectral")
        assert r.returncode == 2
        r = run_cli("spectral", "--in", "/nonexistent/file.txt")
        assert r.returncode == 2


# the flag each pattern reads, and every pattern flag that a pattern does
# not read, on each subcommand that takes that pattern and that flag
OWN_PATTERN_FLAG = {"ktt": "--t", "c2t": "--t", "path": "--pn", "custom": "--pattern-file"}
STRAY_PATTERN_FLAGS = [
    ("hom", "ktt", "--pn"),
    ("hom", "c2t", "--pn"),
    ("hom", "path", "--t"),
    ("check", "ktt", "--pn"),
    ("check", "ktt", "--pattern-file"),
    ("check", "c2t", "--pn"),
    ("check", "c2t", "--pattern-file"),
    ("check", "path", "--t"),
    ("check", "path", "--pattern-file"),
    ("check", "custom", "--t"),
    ("check", "custom", "--pn"),
]


class TestHomAndCheck:
    def test_hom_consistency(self, split_file):
        r = run_cli("hom", "--in", split_file, "--pattern", "c2t", "--t", "2")
        obj = json.loads(r.stdout)
        assert obj["hom"] >= obj["inj"] >= 0
        assert obj["aut"] == 8
        assert obj["copies"] == obj["inj"] // 8

    def test_check_passes_on_split_host(self, split_file):
        r = run_cli("check", "--in", split_file, "--pattern", "ktt", "--t", "2")
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert obj["holds_i"] and obj["holds_ii"] and obj["holds_cert"]

    def test_check_ktt3_on_a_large_split_host(self, tmp_path):
        # opnorm's roundoff on S_{3,2*10^4} is no "iterate value decreased"
        p = tmp_path / "split.txt"
        p.write_text(write_edge_list(split_graph(3, 20000)))
        r = run_cli("check", "--in", str(p), "--pattern", "ktt", "--t", "3")
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["holds_cert"] is True

    def test_check_tree_pattern(self, split_file):
        r = run_cli("check", "--in", split_file, "--pattern", "path", "--pn", "3")
        obj = json.loads(r.stdout)
        assert obj["spectral_forms_applicable"] is False
        assert r.returncode == 0

    def test_check_custom_pattern_file(self, split_file, tmp_path):
        pf = tmp_path / "pat.txt"
        pf.write_text(write_edge_list(complete_bipartite(2, 2)))
        r = run_cli("check", "--in", split_file, "--pattern", "custom",
                    "--pattern-file", str(pf))
        assert r.returncode == 0

    def test_non_bipartite_pattern_is_domain_error(self, split_file, tmp_path):
        from sslab.graphs import complete

        pf = tmp_path / "tri.txt"
        pf.write_text(write_edge_list(complete(3)))
        r = run_cli("check", "--in", split_file, "--pattern", "custom",
                    "--pattern-file", str(pf))
        assert r.returncode == 2

    @pytest.mark.parametrize("command, pattern, flag", STRAY_PATTERN_FLAGS)
    def test_stray_pattern_flag_is_usage_error(self, command, pattern, flag, tmp_path, capsys):
        from sslab.cli import main

        host = tmp_path / "g.txt"
        host.write_text(write_edge_list(split_graph(2, 30)))
        pf = tmp_path / "pat.txt"
        pf.write_text(write_edge_list(complete_bipartite(2, 2)))
        value = {"--t": "2", "--pn": "3", "--pattern-file": str(pf)}
        own = OWN_PATTERN_FLAG[pattern]
        argv = [command, "--in", str(host), "--pattern", pattern, own, value[own]]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + [flag, value[flag]]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {flag} does not apply to pattern {pattern}\n"

    @pytest.mark.parametrize("pattern, edges", [
        ("path", [(0, 1)]),  # K_2, as --pn 2
        ("custom", [(0, 1), (2, 3)]),  # 2K_2
        ("custom", [(0, 1), (1, 2)]),  # P_3 plus an isolated vertex
    ])
    def test_check_pattern_with_2e_equal_to_v(self, pattern, edges, tmp_path, capsys):
        # 2e = v leaves s' infinite, but then v > e: only the density form
        # applies, rhs_i = M^e n^0 = M^e, and it needs no exponent
        from sslab.cli import main
        from sslab.graphs import Graph, sample_gnm

        host = tmp_path / "g.txt"
        host.write_text(write_edge_list(sample_gnm(30, 90, 1)))
        pf = tmp_path / "pat.txt"
        pf.write_text(write_edge_list(Graph.from_edges(2 * len(edges), edges)))
        own = ["--pn", "2"] if pattern == "path" else ["--pattern-file", str(pf)]
        assert main(["check", "--in", str(host), "--pattern", pattern, *own]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["rhs_i"] == 180 ** len(edges) and obj["holds_i"] is True
        assert obj["hom"] >= obj["rhs_i"]
        assert obj["spectral_forms_applicable"] is False
        assert "rhs_ii" not in obj and "holds_cert" not in obj

    def test_hom_has_no_custom_pattern(self, split_file):
        r = run_cli("hom", "--in", split_file, "--pattern", "custom")
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == "error: unknown pattern 'custom'\n"

    def test_bigint_rerun_over_budget_exits_2(self, tmp_path, monkeypatch, capsys):
        from sslab.cli import main
        from sslab.graphs import complete

        host = tmp_path / "k6.txt"
        host.write_text(write_edge_list(complete(6)))
        # hom(C_30, K_6) = 5^30 + 5 is past 2^52, so it needs the exact rerun
        args = ["check", "--in", str(host), "--pattern", "c2t", "--t", "15"]
        monkeypatch.setattr("sslab.homcounts.WORK_BUDGET", 100)
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: exact-integer contraction would take")
        monkeypatch.undo()
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["hom"] == 5**30 + 5

    def test_hom_copies_with_a_remainder_exit_2(self, tmp_path, monkeypatch, capsys):
        from sslab.cli import main
        from sslab.graphs import complete

        host = tmp_path / "k4.txt"
        host.write_text(write_edge_list(complete(4)))
        # inj(P_3, K_4) = 24, which a wrong aut of 5 does not divide
        monkeypatch.setattr(homcounts, "aut_order", lambda h: 5)
        assert main(["hom", "--in", str(host), "--pattern", "path", "--pn", "3"]) == 2
        assert capsys.readouterr() == ("", "error: inj = 24 is not divisible by aut = 5\n")


    def test_float_overflow_is_a_typed_error(self, tmp_path, capsys):
        # on G(30, 90) the path on 396 vertices puts check's rhs_i =
        # 180 * 6^394 past the float64 range, and lambda^378 (lambda =
        # 6.598...) is past it too
        from sslab.cli import main
        from sslab.graphs import sample_gnm

        host = tmp_path / "g.txt"
        host.write_text(write_edge_list(sample_gnm(30, 90, 1)))
        for argv, line in [
            (["check", "--pattern", "path", "--pn", "396"], "rhs_i leaves the float64 range"),
            (["regularize", "--k", "378"], "lambda^k = 6.598486960192456^378 leaves the float64 range"),
        ]:
            assert main([*argv, "--in", str(host)]) == 2
            assert capsys.readouterr() == ("", f"error: {line}\n")
        # C_138's M^e = 180^138 is past the range, but rhs_i = 6^138 is not
        assert main(["check", "--pattern", "c2t", "--t", "69", "--in", str(host)]) == 0
        assert json.loads(capsys.readouterr().out)["rhs_i"] == 2.42589809216e+107
        assert main(["check", "--pattern", "path", "--pn", "137", "--in", str(host)]) == 0
        assert main(["regularize", "--k", "376", "--in", str(host)]) == 0

    def test_spectral_right_hand_side_whose_factor_leaves_the_float_range(self, tmp_path, capsys):
        # K_{10,10} on K_{2,5000}: rhs_ii = lam^180 M^-80 with lam ~ 100 and
        # M = 20000.  lam^180 leaves the float64 range, rhs_ii ~ 8.27e15
        # does not, so it is rounded from the exact product
        from fractions import Fraction

        from sslab.cli import _f, main
        from sslab.sidorenko import check_suite

        g = complete_bipartite(2, 5000)
        rep = check_suite(complete_bipartite(10, 10), g)
        assert rep.rhs_ii == float(Fraction(rep.lam) ** 180 * Fraction(20000) ** -80)
        host = tmp_path / "k2b.txt"
        host.write_text(write_edge_list(g))
        assert main(["check", "--in", str(host), "--pattern", "ktt", "--t", "10"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert (obj["lambda"], obj["rhs_ii"]) == (_f(rep.lam), _f(rep.rhs_ii))
        assert obj["rhs_ii"] == pytest.approx(8.27e15, rel=1e-3)

    @pytest.mark.parametrize("field", ["holds_i", "holds_ii", "holds_iii", "holds_cert"])
    @pytest.mark.parametrize("value, code", [(True, 0), (False, 1), (None, 0)])
    def test_check_exits_1_exactly_on_a_false_verdict(
        self, field, value, code, split_file, monkeypatch, capsys
    ):
        # None is a form that does not apply to the pattern, not a failure
        import dataclasses

        import sslab.sidorenko
        from sslab.cli import main

        check_suite = sslab.sidorenko.check_suite
        monkeypatch.setattr(
            sslab.sidorenko,
            "check_suite",
            lambda *a, **kw: dataclasses.replace(check_suite(*a, **kw), **{field: value}),
        )
        assert main(["check", "--in", split_file, "--pattern", "ktt", "--t", "2"]) == code
        assert json.loads(capsys.readouterr().out).get(field) is value


class TestPipelineCommands:
    def test_prune_reports_trace(self, split_file):
        r = run_cli("prune", "--in", split_file, "--t", "2")
        obj = json.loads(r.stdout)
        assert obj["kind"] == "prune"
        assert obj["initial_m"] == 60
        assert obj["final_m"] + len(obj["steps"]) == 60

    def test_prune_requires_t(self, split_file):
        assert run_cli("prune", "--in", split_file).returncode == 2

    def test_partition_too_delocalized_is_clean(self, tmp_path):
        from sslab.graphs import cycle

        p = tmp_path / "cyc.txt"
        p.write_text(write_edge_list(cycle(40)))
        r = run_cli("partition", "--in", str(p), "--t", "2", "--eta", "0.1")
        assert r.returncode == 0
        obj = json.loads(r.stdout)
        assert obj["error"] == "too-delocalized"

    @pytest.mark.parametrize("host", ["cycle", "complete", "edgeless"])
    def test_c2t_past_the_pattern_limit_is_refused_on_every_host(
        self, host, tmp_path, capsys, monkeypatch
    ):
        # C_40 lies below the split threshold, K_30 above it, and the
        # edgeless host is refused for its missing edges: C_12 is refused on
        # all three, before the edge check and the Perron solve
        from sslab.cli import main

        g = EVERY_HOST[host]()
        p = tmp_path / "g.txt"
        p.write_text(write_edge_list(g))
        monkeypatch.setattr(supersat, "PerronBlocks", None)
        assert main(["pipeline", "--in", str(p), "--t", "6", "--pattern", "c2t"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines()[-1] == "error: pattern has 12 > 10 vertices"

    @pytest.mark.parametrize("host", ["cycle", "complete", "edgeless"])
    @pytest.mark.parametrize("eta", ["5", "nan", "-1", "0.25"])
    def test_bad_eta_is_refused_on_every_host(self, host, eta, tmp_path, capsys, monkeypatch):
        # C_40 lies below the split threshold, where nothing is pruned, K_30
        # above it, and the edgeless host is refused for its missing edges:
        # eta is refused on all three, before the edge check and the Perron solve
        from sslab.cli import main

        g = EVERY_HOST[host]()
        p = tmp_path / "g.txt"
        p.write_text(write_edge_list(g))
        monkeypatch.setattr(supersat, "PerronBlocks", None)
        argv = ["pipeline", "--in", str(p), "--t", "2", "--pattern", "c2t", "--eta", eta]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.splitlines()[-1] == "error: eta must lie in (0, 1/4)"

    def test_edgeless_host_is_refused(self, tmp_path, capsys):
        from sslab.cli import main

        p = tmp_path / "g.txt"
        p.write_text(write_edge_list(graphs.empty_graph(5)))
        assert main(["pipeline", "--in", str(p), "--t", "2", "--pattern", "ktt"]) == 2
        assert capsys.readouterr() == ("", "error: input graph has no edges\n")

    def test_pattern_rules_come_from_the_table(self):
        # the pipeline and the sweep ask `supersat.PATTERNS` what a pattern
        # refuses; neither names one
        scopes = {"supersat.supersat_count", "cli.cmd_sweep"}
        nodes = [(s, n) for p in package_sources() for s, n in scoped_nodes(p) if s in scopes]
        assert {s for s, _ in nodes} == scopes
        assert [
            f"{s}:{n.lineno}" for s, n in nodes
            if isinstance(n, ast.Constant) and n.value in supersat.PATTERNS
        ] == []

    def test_rowcover_explicit_sides(self, tmp_path):
        p = tmp_path / "k25.txt"
        p.write_text(write_edge_list(complete_bipartite(2, 5)))
        r = run_cli("rowcover", "--in", str(p), "--t", "2",
                    "--a-side", "0,1", "--d-side", "2,3,4,5,6")
        obj = json.loads(r.stdout)
        assert obj["variant"] == "many-copies"
        assert obj["copy_bound"] == 10

    @pytest.mark.parametrize(
        "sides, message",
        [
            (("--a-side", "0,x", "--d-side", "2,3"), "--a-side"),
            (("--a-side", "0,1", "--d-side", "5,999"), "999"),
            (("--a-side", "-1", "--d-side", "2,3"), "-1"),
            (("--a-side", "0,1"), "--d-side"),
            (("--d-side", "2,3"), "--a-side"),
            (("--a-side", "0,1", "--d-side", "2,3", "--eta", "0.01"), "--eta"),
        ],
    )
    def test_rowcover_bad_sides_are_usage_errors(
        self, tmp_path, capsys, sides, message
    ):
        from sslab.cli import main

        p = tmp_path / "split.txt"
        p.write_text(write_edge_list(split_graph(2, 60)))
        assert main(["rowcover", "--in", str(p), "--t", "2", *sides]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error:") and message in err

    def test_rowcover_overlapping_sides_name_the_rule(self, tmp_path, capsys):
        from sslab.cli import main

        p = tmp_path / "star.txt"
        p.write_text(write_edge_list(star(3)))
        argv = ["rowcover", "--in", str(p), "--t", "2", "--a-side", "0,1", "--d-side", "1,2"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: A and D sides must be disjoint: vertex 1 is in both\n"
        )

    def test_rowcover_singular_solve_past_the_cap_exits_2(self, tmp_path, capsys, monkeypatch):
        from sslab.cli import main

        p = tmp_path / "gnm.txt"
        p.write_text(write_edge_list(graphs.sample_gnm(40, 300, 3)))
        monkeypatch.setattr(spectra, "_MAX_ITER", 3)
        argv = ["rowcover", "--in", str(p), "--t", "2", "--a-side",
                ",".join(map(str, range(12))), "--d-side", ",".join(map(str, range(12, 40)))]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: top_singular: power iteration did not settle in 3 iterations\n"

    def test_regularize(self, tmp_path):
        p = tmp_path / "p3.txt"
        p.write_text(write_edge_list(star(2)))
        r = run_cli("regularize", "--in", str(p), "--k", "4", "--materialize")
        obj = json.loads(r.stdout)
        assert obj["d_k"] == 2 and obj["t_k_size"] == 12
        assert obj["fk_vertices"] == 12
        assert abs(obj["entropy_gap"] - obj["log_lambda"]) < 1e-9

    def test_regularize_solves_perron_once(self, tmp_path, monkeypatch, capsys):
        import sslab.regularize
        from sslab.cli import main

        solves = []
        perron = sslab.regularize.perron

        def counted(*args, **kwargs):
            solves.append(args)
            return perron(*args, **kwargs)

        monkeypatch.setattr(sslab.regularize, "perron", counted)
        p = tmp_path / "p3.txt"
        p.write_text(write_edge_list(star(2)))
        assert main(["regularize", "--in", str(p), "--k", "4"]) == 0
        assert json.loads(capsys.readouterr().out)["d_k"] == 2
        assert len(solves) == 1

    @pytest.mark.parametrize("t", ["3", "2"])
    def test_check_solves_perron_once(self, t, tmp_path, monkeypatch, capsys):
        # K_{3,3} takes the 4/3 -> 4 norm, K_{2,2} the 2 -> 2 one; both read
        # lam and the norm off one solve
        import sslab.sidorenko
        import sslab.spectra
        from sslab.cli import main

        solves = []
        perron = sslab.spectra.perron

        def counted(*args, **kwargs):
            solves.append(args)
            return perron(*args, **kwargs)

        monkeypatch.setattr(sslab.sidorenko, "perron", counted)
        monkeypatch.setattr(sslab.spectra, "perron", counted)
        p = tmp_path / "split.txt"
        p.write_text(write_edge_list(split_graph(3, 60)))
        assert main(["check", "--in", str(p), "--pattern", "ktt", "--t", t]) == 0
        assert json.loads(capsys.readouterr().out)["holds_cert"] is True
        assert len(solves) == 1

    def test_integer_arrays_serialize_whole(self):
        # the regularize report's n_mat: int and bool arrays go out as
        # their integers and words, float arrays still round each entry
        text = cli._render(
            "regularize",
            {
                "n_mat": np.arange(6, dtype=np.int64).reshape(2, 3),
                "bools": np.array([True, False]),
                "floats": np.array([[1 / 3]]),
            },
        )
        assert text == (
            '{\n  "bools": [\n    true,\n    false\n  ],\n'
            '  "floats": [\n    [\n      0.333333333333\n    ]\n  ],\n'
            '  "kind": "regularize",\n'
            '  "n_mat": [\n    [\n      0,\n      1,\n      2\n    ],\n'
            '    [\n      3,\n      4,\n      5\n    ]\n  ],\n'
            '  "schema": "sslab.report.v1"\n}\n'
        )

    def test_regularize_cap(self, tmp_path, monkeypatch, capsys):
        from sslab.cli import main

        p = tmp_path / "p3.txt"
        p.write_text(write_edge_list(star(2)))
        argv = ["regularize", "--in", str(p), "--k", "4", "--materialize"]
        # the type class has 12 tuples
        monkeypatch.setattr("sslab.regularize.FK_CAP", 11)
        assert main(argv) == 2
        assert "> cap 11" in capsys.readouterr().err
        monkeypatch.setattr("sslab.regularize.FK_CAP", 12)
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["fk_vertices"] == 12

    def test_pipeline(self, split_file):
        r1 = run_cli("pipeline", "--in", split_file, "--t", "2", "--pattern", "ktt")
        r2 = run_cli("pipeline", "--in", split_file, "--t", "2", "--pattern", "ktt")
        assert r1.returncode == 0 and r1.stdout == r2.stdout
        obj = json.loads(r1.stdout)
        assert obj["above_threshold"] is True
        assert obj["count"] > 0
        assert "elapsed" not in r1.stdout

    def test_pipeline_has_no_budget_flag(self, split_file, capsys):
        from sslab.cli import main

        argv = ["pipeline", "--in", split_file, "--t", "2", "--pattern", "ktt"]
        assert main(argv + ["--budget", "10"]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "unrecognized arguments: --budget 10" in out.err


class TestReportWriter:
    """`cli._render` writes the bytes `json.dumps(..., indent=2,
    sort_keys=True)` writes for the reference copy `plain_report` makes of
    the same report, on drawn values of every type a report holds."""

    # floats json spells apart, the sign of zero, subnormals, and values
    # that 12 significant digits round across a digit boundary
    FLOATS = [
        math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.225073858507e-308,
        999999999999.5, 0.99999999999995, -9.99999999999951e99, 1 / 3, 1e16, 1e-7,
    ]
    # quotes, backslashes, control characters, non-ASCII and a lone surrogate
    CHARS = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\u00e9", "\u2028", "\U0001f600", "\ud800"]

    @dataclasses.dataclass
    class Probe:
        first: object
        second: object = None

    @pytest.fixture(scope="class")
    def reports(self):
        """One report dataclass of each type the CLI writes."""
        host = split_graph(2, 60)
        trace = supersat.heavy_prune(union(star(20), graphs.sample_gnm(15, 30, 1)), 2, eta=1e-4)
        return [
            sidorenko.check_suite(complete_bipartite(2, 2), host),
            trace,
            supersat.partition_pruned(trace),
            supersat.row_cover_analyze(complete_bipartite(2, 5), [0, 1], [2, 3, 4, 5, 6], 2),
            regularize.build_regular(star(2), 4),
            supersat.supersat_count(host, 2, "ktt"),
        ]

    @classmethod
    def values(cls, reports):
        text = st.text(st.one_of(st.characters(), st.sampled_from(cls.CHARS)), max_size=8)
        ints = st.one_of(
            st.integers(-(2**70), 2**70), st.sampled_from([2**63, -(2**63) - 1, 2**64])
        )
        floats = st.one_of(st.floats(allow_subnormal=True), st.sampled_from(cls.FLOATS))
        shapes = hnp.array_shapes(min_dims=0, max_side=3)  # 0-d arrays too
        arrays = st.one_of(
            hnp.arrays(st.sampled_from([np.int64, np.uint64, np.int8]), shapes),
            hnp.arrays(np.bool_, shapes),
            hnp.arrays(np.float64, shapes, elements=floats),
        )
        leaves = st.one_of(
            st.none(), st.booleans(), ints, floats, text, arrays,
            floats.map(np.float64), st.sampled_from(reports),
        )
        # int keys whose string order is not their numeric order (2, 10)
        keys = st.one_of(text, st.integers(-20, 20), st.sampled_from([2, 10, "2", "10"]))

        def nest(inner):
            return st.one_of(
                st.lists(inner, max_size=4),
                st.lists(inner, max_size=4).map(tuple),
                st.dictionaries(keys, inner, max_size=4),
                st.builds(cls.Probe, inner, inner),
            )

        return st.recursive(leaves, nest, max_leaves=12)

    @staticmethod
    def reference(kind, part) -> str:
        obj = {"schema": cli.SCHEMA, "kind": kind}
        obj.update(cli._shape(part) if dataclasses.is_dataclass(part) else part)
        return json.dumps(plain_report(obj), sort_keys=True, indent=2) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_json_dumps(self, reports, data):
        kind = data.draw(st.text(max_size=6))
        values = self.values(reports)
        part = data.draw(st.one_of(
            st.dictionaries(st.text(max_size=4), values, max_size=5),
            st.builds(self.Probe, values, values),
            st.sampled_from(reports),
        ))
        text = cli._render(kind, part)
        assert text == self.reference(kind, part)
        assert text.isascii()

    def test_nesting_and_empties(self, reports):
        part = {
            "deep": [[[{}], ()], {"a": {"b": [[], {10: 1, 2: (0.1 + 0.2,)}]}}],
            "reports": reports,
        }
        text = cli._render("probe", part)
        assert text == self.reference("probe", part)
        assert '"10": 1,\n' in text and "[]" in text and "{}" in text

    @pytest.mark.parametrize("value", [np.int64(3), np.bool_(True), np.float32(0.5), 1j])
    def test_other_types_raise_in_both(self, value):
        part = {"a": [1, {"b": value}]}
        with pytest.raises(TypeError):
            self.reference("probe", part)
        with pytest.raises(TypeError):
            cli._render("probe", part)

    def test_internal_error_on_a_value_no_writer_takes(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "cmd_gen", lambda args: cli._emit(args, "gen", {"n": np.int64(3)}))
        assert cli.main(["gen", "--family", "star", "--n", "3"]) == 2
        assert capsys.readouterr() == (
            "", "error: internal: TypeError: Object of type int64 is not JSON serializable\n"
        )


class TestSweep:
    ARGS = (
        "sweep", "--pattern", "c2t", "--t", "2", "--m-range", "50:150:50",
        "--samples", "2", "--seed", "7", "--families", "gnm-balanced,split-t",
    )

    def test_matches_golden(self):
        r = run_cli(*self.ARGS)
        assert r.returncode == 0
        assert r.stdout == (DATA / "golden_sweep.csv").read_text()

    def test_t2_counter_matches_golden(self):
        # golden_sweep_t2.csv: the K_{2,2} sweep over all three families,
        # then the C_4 sweep on the perturbed family, each with its header
        common = ("--t", "2", "--m-range", "50:150:50", "--samples", "2", "--seed", "7")
        ktt = run_cli("sweep", "--pattern", "ktt", *common, "--families",
                      "gnm-balanced,split-t,split-t-minus-1-perturbed")
        c4 = run_cli("sweep", "--pattern", "c2t", *common, "--families",
                     "split-t-minus-1-perturbed")
        assert ktt.returncode == c4.returncode == 0
        assert ktt.stdout + c4.stdout == (DATA / "golden_sweep_t2.csv").read_text()

    def test_t3_counter_matches_golden(self):
        # golden_sweep_t3.csv: the C_6 sweep over all three families, which
        # counts by the contraction engine's shared Moebius sum
        r = run_cli("sweep", "--pattern", "c2t", "--t", "3", "--m-range", "60:120:30",
                    "--samples", "2", "--seed", "7", "--families",
                    "gnm-balanced,split-t,split-t-minus-1-perturbed")
        assert r.returncode == 0
        assert r.stdout == (DATA / "golden_sweep_t3.csv").read_text()

    def test_header_pinned(self):
        golden = (DATA / "golden_sweep.csv").read_text()
        assert golden.splitlines()[0] == (
            "schema,family,pattern,t,m,sample,seed,n,lambda,split_lambda,"
            "above_threshold,count,count_over_mt,sharp_constant,expected"
        )

    def test_budget_guard(self):
        r = run_cli("sweep", "--pattern", "ktt", "--t", "8",
                    "--m-range", "5000:5000:1", "--seed", "1")
        assert r.returncode == 2
        assert "--force" in r.stderr

    def test_bad_range(self):
        r = run_cli("sweep", "--pattern", "c2t", "--t", "2",
                    "--m-range", "50-150", "--seed", "1")
        assert r.returncode == 2
        r = run_cli("sweep", "--pattern", "c2t", "--t", "2",
                    "--m-range", "50:150:0", "--seed", "1")
        assert r.returncode == 2

    @pytest.mark.parametrize("m_range", ["0:0:1", "-5:10:5"])
    def test_range_start_below_1_is_usage_error(self, m_range):
        r = run_cli("sweep", "--pattern", "c2t", "--t", "2",
                    f"--m-range={m_range}", "--seed", "1")
        assert r.returncode == 2
        assert r.stderr == "error: --m-range start must be >= 1\n"

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--m-range", "60:50:1"], "--m-range stop must be >= start"),
            (["--families", ","], "--families names no family"),
            (["--families", ""], "--families names no family"),
            (["--families", "gnm-balanced,gnm-balanced"], "--families names a family twice"),
            (["--families", "split-t, gnm-balanced,split-t "], "--families names a family twice"),
        ],
    )
    def test_empty_or_repeated_rows_are_usage_errors(self, flags, message, capsys):
        # each would print a header-only CSV or every row twice
        from sslab.cli import main

        argv = ["sweep", "--pattern", "c2t", "--t", "2", "--m-range", "50:50:1", "--seed", "1"]
        assert main(argv + flags) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"error: {message}\n"

    @pytest.mark.parametrize("pattern", ["ktt", "c2t"])
    def test_t_below_2_is_usage_error(self, pattern):
        r = run_cli("sweep", "--pattern", pattern, "--t", "1",
                    "--m-range", "50:50:1", "--seed", "1")
        assert r.returncode == 2
        assert r.stderr == "error: sweep needs --t >= 2\n"

    def test_c2t_past_the_pattern_limit_exits_2(self, capsys):
        # before the estimate and any host: S_{6,15} = K_6 has fewer than 12
        # vertices, where count_c2t itself would answer 0
        from sslab.cli import main

        for family, m in [("split-t", 15), ("split-t", 100), ("gnm-balanced", 200)]:
            argv = ["sweep", "--pattern", "c2t", "--t", "6", "--m-range", f"{m}:{m}:1",
                    "--seed", "1", "--families", family]
            assert main(argv) == 2
            assert capsys.readouterr() == ("", "error: pattern has 12 > 10 vertices\n")

    def test_refusal_stops_at_the_first_pair_past_the_budget(self, capsys):
        # 10^10 values of m: the estimate walks the (family, m) pairs lazily
        # and stops once it passes WORK_BUDGET, with no list of rows
        from sslab.cli import main

        argv = ["sweep", "--pattern", "c2t", "--t", "2", "--families", "gnm-balanced",
                "--m-range", "100:10000000000:1", "--seed", "1"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "estimated work: at least 1000470798 elementary "
                                           "steps\nbudget exceeded; re-run with --force\n")

    def test_requires_seed(self):
        r = run_cli("sweep", "--pattern", "c2t", "--t", "2", "--m-range", "50:50:1")
        assert r.returncode == 2

    @staticmethod
    def _host_exists(family, t, m):
        """Whether the graph layer builds the family's host, tried directly."""
        from sslab.graphs import GraphError, SplitSpec, sample_gnm

        try:
            if family == "gnm-balanced":
                sample_gnm(math.floor(2 * math.sqrt(m)) - t, m, 1)
            elif family == "split-t":
                split_graph(t, m)
            else:  # an extra edge between two independent vertices
                split_graph(t - 1, m - 1)
                return SplitSpec(t - 1, m - 1).q >= 2
        except GraphError:
            return False
        return True

    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize("pattern", ["ktt", "c2t"])
    @pytest.mark.parametrize(
        "family", ["gnm-balanced", "split-t", "split-t-minus-1-perturbed"]
    )
    def test_small_m_gives_its_row_or_a_usage_error(self, family, pattern, t, capsys):
        from sslab.cli import main

        for m in range(1, 41):
            rc = main(["sweep", "--pattern", pattern, "--t", str(t), "--m-range",
                       f"{m}:{m}:1", "--seed", "1", "--families", family])
            out, err = capsys.readouterr()
            if self._host_exists(family, t, m):
                assert rc == 0 and err.startswith("estimated work: ")
                row = out.splitlines()[1].split(",")
                assert row[1:5] == [family, pattern, str(t), str(m)]
            else:
                assert rc == 2 and out == ""
                assert err == (f"error: --m-range: family {family} has no host "
                               f"with t={t} and m={m}\n")

    @pytest.mark.parametrize("t", [2, 3])
    @pytest.mark.parametrize(
        "family", ["gnm-balanced", "split-t", "split-t-minus-1-perturbed"]
    )
    def test_work_estimate_sizes_the_host_it_builds(self, family, t):
        # the estimate reads the host's vertex count and its false-twin
        # classes (vertices with equal neighbourhoods), counted here on the
        # host the sweep builds; a G(n,m) host's classes are known only
        # once it is drawn, so its estimate takes the n vertices instead
        from sslab.cli import _estimate_work, _sweep_host
        from sslab.supersat import PATTERNS

        for m in (50, 101, 600):
            g, _ = _sweep_host(family, t, m, 0, 1)
            classes = len(set(csr_rows(g)))
            bound = g.n if family == "gnm-balanced" else classes
            for pattern, rules in PATTERNS.items():
                assert g.edge_count == m
                assert _estimate_work(family, pattern, t, m) == rules.work(g.n, m, t, bound)
        if (family, t) == ("split-t-minus-1-perturbed", 3):
            # S_{2,599} plus one edge: the 2 clique vertices, the 2 ends of
            # the edge and the other 297 independent vertices
            g = _sweep_host(family, t, 600, 0, 1)[0]
            assert (g.n, len(set(csr_rows(g)))) == (301, 5)
            assert _estimate_work(family, "ktt", t, 600) == 5 + math.comb(6, 2) + math.comb(7, 3)

    def test_split_k33_sweep_runs_within_the_budget(self):
        # S_{3,30000} has 10 002 vertices but 4 twin classes: the class
        # recursion's 4 + C(5, 2) + C(6, 3) tries at most, where
        # C(10002, 3) > 10^9 subsets once needed --force
        r = run_cli("sweep", "--pattern", "ktt", "--t", "3", "--families", "split-t",
                    "--m-range", "30000:30000:1", "--seed", "1")
        assert r.returncode == 0, r.stderr
        assert r.stderr == "estimated work: 34 elementary steps\n"
        row = r.stdout.splitlines()[1].split(",")
        assert row[1:5] + row[7:8] + row[11:12] == [
            "split-t", "ktt", "3", "30000", "10002", str(math.comb(9999, 3))
        ]


class TestInputPastTheIndexRange:
    @pytest.mark.parametrize(
        "text",
        [
            "# n=99999999999999999999\n0 1\n",
            "0 99999999999999999999\n",
            # within np.intp, but n + 1 row pointers are past numpy's array size
            "# n=9223372036854775807\n0 1\n",
            "# n=2305843009213693952\n0 1\n",
            # within it, but n + 1 row pointers are past physical memory
            "# n=100000000000\n0 1\n",
            "0 1\n1 99999999999\n",
        ],
    )
    def test_is_a_clean_parse_error(self, tmp_path, capsys, text):
        from sslab.cli import main

        host = tmp_path / "huge.txt"
        host.write_text(text)
        assert main(["spectral", "--in", str(host)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line ") and "internal" not in err


class TestInputFileText:
    BAD = b"0 1\n\xff 2\n"

    @pytest.mark.parametrize("flag", ["--in", "--pattern-file"])
    def test_is_a_parse_error_at_its_line(self, tmp_path, capsys, flag):
        from sslab.cli import main

        bad, host = tmp_path / "bad.txt", tmp_path / "host.txt"
        bad.write_bytes(self.BAD)
        host.write_text(write_edge_list(star(4)))
        if flag == "--in":
            argv = ["spectral", "--in", str(bad)]
        else:
            argv = ["check", "--in", str(host), "--pattern", "custom", "--pattern-file", str(bad)]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: line 2: byte 0xff is not UTF-8\n")

    def test_reads_utf8_whatever_the_locale(self, tmp_path):
        # a comment in UTF-8 is read under a locale whose encoding is ASCII
        host = tmp_path / "host.txt"
        host.write_bytes("# g\u00e9n\u00e9r\u00e9\n".encode() + write_edge_list(star(4)).encode())
        env = {**os.environ, "LC_ALL": "C", "LANG": "C"}
        env.update(PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")  # keep the locale's ASCII
        r = subprocess.run(
            [sys.executable, "-m", "sslab.cli", "spectral", "--in", str(host)],
            capture_output=True, text=True, env=env,
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout == run_cli("spectral", "--in", str(host)).stdout

    def test_line_counts_as_the_reader_does(self, tmp_path, capsys):
        # a CR ends a line for the reader, so the bad byte sits on line 3
        from sslab.cli import main

        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"0 1\r\n1 2\r\xfe\n")
        assert main(["spectral", "--in", str(bad)]) == 2
        assert capsys.readouterr().err == "error: line 3: byte 0xfe is not UTF-8\n"

    def test_line_breaks_read_as_in_text_mode(self, tmp_path, monkeypatch):
        # `\r\n` and `\r` break lines as `\n` does, so the numpy pass reads
        # such a file without the line loop
        import sslab.graphs
        from sslab.cli import _load_graph

        g = split_graph(2, 30)
        host = tmp_path / "host.txt"
        lines = write_edge_list(g).splitlines()
        host.write_bytes(("\r\n".join(lines[:4]) + "\r" + "\r".join(lines[4:]) + "\r\n").encode())

        def no_loop(text):
            raise AssertionError("the line loop ran")

        monkeypatch.setattr(sslab.graphs, "_read_lines", no_loop)
        assert _load_graph(host) == g


class TestUnexpectedErrors:
    """A fault that escapes a subcommand is one stderr line and exit 2,
    never a traceback with exit 1, which `check` uses for a failed
    inequality."""

    ARGV = ["gen", "--family", "star", "--n", "3"]

    def _raise(self, monkeypatch, exc):
        def boom(args):
            raise exc

        monkeypatch.setattr("sslab.cli.cmd_gen", boom)

    def test_out_of_memory(self, monkeypatch, capsys):
        from sslab.cli import main

        self._raise(monkeypatch, MemoryError("Unable to allocate 7.28 TiB"))
        assert main(self.ARGV) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory: Unable to allocate 7.28 TiB\n"

    @pytest.mark.parametrize(
        "exc, line",
        [
            (AssertionError("bad state"), "AssertionError: bad state"),
            (KeyError(3), "KeyError: 3"),
            (ZeroDivisionError("division\nby zero"), "ZeroDivisionError: division by zero"),
        ],
    )
    def test_internal_error(self, monkeypatch, capsys, exc, line):
        from sslab.cli import main

        self._raise(monkeypatch, exc)
        assert main(self.ARGV) == 2
        assert capsys.readouterr().err == f"error: internal: {line}\n"

    def test_no_assert_in_the_package(self):
        # python -O drops asserts, so a check the package needs must raise
        import sslab

        sources = sorted(Path(sslab.__file__).parent.glob("*.py"))
        assert len(sources) > 1
        found = [
            f"{p.name}:{node.lineno}"
            for p in sources
            for node in ast.walk(ast.parse(p.read_text(), str(p)))
            if isinstance(node, ast.Assert)
        ]
        assert found == []

    def test_every_error_derives_from_the_root(self):
        # `cli.main` exits 2 on a `SslabError`, so an error class outside it
        # would print `error: internal:` for a refusal
        import sslab

        found = exception_classes()
        assert graphs.SslabError in found and sslab.SslabError is graphs.SslabError
        assert [c.__name__ for c in found].count("SslabError") == 1
        assert [c.__qualname__ for c in found if not issubclass(c, graphs.SslabError)] == []

    def test_the_catalogue_holds_every_error_class(self):
        classes = [type(exc) for exc in ERROR_CATALOGUE]
        assert sorted(map(repr, classes)) == sorted(map(repr, exception_classes()))

    @pytest.mark.parametrize("exc", ERROR_CATALOGUE, ids=lambda e: type(e).__name__)
    def test_every_error_is_a_refusal(self, monkeypatch, capsys, exc):
        from sslab.cli import main

        self._raise(monkeypatch, exc)
        assert main(self.ARGV) == 2
        assert capsys.readouterr() == ("", f"error: {exc}\n")

    def test_no_private_name_crosses_package_modules(self):
        # a module's _names are its own; what another module needs from it
        # gets a public name
        import sslab

        sources = sorted(Path(sslab.__file__).parent.glob("*.py"))
        modules = {p.stem for p in sources}
        found = []
        for p in sources:
            nodes = list(ast.walk(ast.parse(p.read_text(), str(p))))
            imports = [n for n in nodes if isinstance(n, ast.ImportFrom) and n.level == 1]
            # the names `from . import x` binds to package modules
            bound = {a.asname or a.name for n in imports if n.module is None for a in n.names}
            found += [
                f"{p.name}:{n.lineno} {n.module}.{a.name}"
                for n in imports
                if n.module in modules
                for a in n.names
                if a.name.startswith("_")
            ]
            found += [
                f"{p.name}:{n.lineno} {n.value.id}.{n.attr}"
                for n in nodes
                if isinstance(n, ast.Attribute)
                and n.attr.startswith("_")
                and isinstance(n.value, ast.Name)
                and n.value.id in bound
            ]
        assert found == []

    def test_no_unused_import_in_the_package(self):
        # a module-level import that no Name node loads (`np.x` loads `np`)
        # is dead code; `__init__` imports to re-export
        found = []
        for p in package_sources():
            if p.name == "__init__.py":
                continue
            tree = ast.parse(p.read_text(), str(p))
            loaded = {
                n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)
            }
            for node in tree.body:
                if isinstance(node, ast.Import):
                    bound = [a.asname or a.name.split(".")[0] for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    bound = [a.asname or a.name for a in node.names]
                else:
                    continue
                found += [f"{p.name}:{node.lineno} {name}" for name in bound
                          if name not in loaded]
        assert found == []

    def test_every_public_name_is_read(self):
        # a public function or class must be read, outside its own
        # definition, by package code, a demo or the acceptance criteria; a
        # helper that only its unit tests read belongs in the tests.
        # `__init__`'s re-exports are no read, and `main` runs `cmd_<name>`
        # for each subcommand
        root = Path(__file__).resolve().parent.parent

        def names(tree, skip=None):
            found, stack = set(), [tree]
            while stack:
                node = stack.pop()
                if node is not skip:
                    if isinstance(node, ast.Name):
                        found.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        found.add(node.attr)
                    stack.extend(ast.iter_child_nodes(node))
            return found

        trees = {p.stem: ast.parse(p.read_text(), str(p))
                 for p in package_sources() if p.name != "__init__.py"}
        readers = [*sorted((root / "demos").glob("*.py")), root / "tests" / "test_acceptance.py"]
        read = set().union(*(names(ast.parse(p.read_text(), str(p))) for p in readers))
        subparsers = next(a for a in cli._build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        read |= {f"cmd_{name}" for name in subparsers.choices}
        unread = []
        for stem, tree in trees.items():
            for node in tree.body:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                    continue
                seen = read.union(*(names(t, node if s == stem else None)
                                    for s, t in trees.items()))
                if node.name not in seen:
                    unread.append(f"{stem}.{node.name}")
        assert unread == []

    def test_dense_matrices_only_where_named(self):
        # the host adjacency is densified once, for the contraction engine;
        # the other two dense steps are small Perron blocks and the row
        # cover's Gram matrix.  Everything else reads the CSR.
        found = []
        for p in package_sources():
            assert "adjacency_matrix" not in p.read_text(), p.name
            found += [
                f"{scope}.{node.attr}"
                for scope, node in scoped_nodes(p)
                if isinstance(node, ast.Attribute) and node.attr in ("toarray", "todense")
            ]
        assert sorted(found) == [
            "homcounts._contract_sum.toarray",
            "spectra._Block._solve.toarray",
            "spectra.top_singular.toarray",
        ]

    def test_one_contraction_call_site(self):
        # every contraction step is one matrix product in
        # `homcounts._sum_out`; no module calls or imports `np.einsum` or
        # `np.einsum_path`, and the only other `@` in `homcounts` is
        # `_count_c4`'s sparse product
        found, products = [], []
        for p in package_sources():
            for scope, node in scoped_nodes(p):
                if isinstance(node, ast.Attribute) and node.attr in ("einsum", "einsum_path"):
                    found.append(f"{scope}.{node.attr}")
                elif isinstance(node, ast.alias) and node.name in ("einsum", "einsum_path"):
                    found.append(f"{scope} imports {node.name}")
                elif isinstance(node, ast.MatMult) and p.stem == "homcounts":
                    products.append(scope)
        assert found == []
        assert sorted(set(products)) == ["homcounts._count_c4", "homcounts._sum_out"]

    def test_one_report_writer(self):
        # every report's text comes from `cli._text`, which `_render` alone
        # calls; no module calls or imports `json.dump` or `json.dumps`, and
        # no `_plain` copy of a report is left to hand to one
        found, writers = [], []
        for p in package_sources():
            for scope, node in scoped_nodes(p):
                if isinstance(node, ast.Attribute) and node.attr in ("dump", "dumps"):
                    found.append(f"{scope}.{node.attr}")
                elif isinstance(node, ast.alias) and node.name in ("dump", "dumps"):
                    found.append(f"{scope} imports {node.name}")
                elif isinstance(node, ast.FunctionDef) and node.name == "_plain":
                    found.append(f"{scope} defines _plain")
                elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_text":
                    writers.append(scope)
        assert found == []
        assert sorted(set(writers)) == ["cli._render", "cli._text"]

    def test_one_owner_of_the_twin_classes(self):
        # `Graph.twin_quotient` alone finds the false-twin classes and
        # slices the CSR down to them; every counter reads that view
        names, slices = [], []
        for p in package_sources():
            for scope, node in scoped_nodes(p):
                if isinstance(node, ast.FunctionDef) and node.name == "_twins":
                    names.append(f"{scope} defines _twins")
                elif isinstance(node, ast.Call) and "_twins" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    names.append(f"{scope} calls _twins")
                elif isinstance(node, ast.alias) and node.name == "_twins":
                    names.append(f"{scope} imports _twins")
                elif isinstance(node, ast.Subscript) and any(
                    isinstance(n, ast.Name) and n.id == "reps" for n in ast.walk(node.slice)
                ):
                    slices.append(scope)
        assert sorted(names) == [
            "graphs defines _twins",
            "graphs.Graph.twin_quotient calls _twins",
        ]
        assert slices and set(slices) == {"graphs.Graph.twin_quotient"}


class TestReadme:
    README = Path(__file__).resolve().parent.parent / "README.md"

    def test_library_tour_runs(self):
        # the python block under "## Library tour", as a reader pastes it
        block = self.README.read_text().split("## Library tour", 1)[1]
        block = block.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})

    def test_install_names_every_test_dependency(self):
        # the `test` extra is the one list: CI's install step and the
        # README's Install section name each of its packages
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        root = self.README.parent
        with (root / "pyproject.toml").open("rb") as fh:
            extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
        packages = [re.match(r"[A-Za-z0-9_.-]+", spec).group() for spec in extra]
        assert "sympy" in packages
        workflow = (root / ".github" / "workflows" / "tier1.yml").read_text()
        step = workflow.split("- name: Install dependencies", 1)[1].split("- name:", 1)[0]
        run = step.split("run:", 1)[1].split()
        install = self.README.read_text().split("## Install", 1)[1].split("\n## ", 1)[0]
        assert [p for p in packages if p not in run] == []
        assert [p for p in packages if f"`{p}`" not in install] == []

    def test_command_line_block_runs(self, tmp_path):
        # every `sslab ...` line of the sh block under "## Command line", in
        # order and in one directory, so the documented commands cannot drift
        import sslab

        block = self.README.read_text().split("## Command line", 1)[1]
        block = block.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line) for line in lines if line.startswith("sslab ")]
        assert [argv[1] for argv in commands] == ["gen", "spectral", "check", "pipeline", "sweep"]
        env = dict(os.environ, PYTHONPATH=str(Path(sslab.__file__).resolve().parent.parent))
        for argv in commands:
            r = subprocess.run([sys.executable, "-m", "sslab.cli", *argv[1:]], cwd=tmp_path,
                               env=env, capture_output=True, text=True)
            assert r.returncode == 0, (argv, r.stderr)
        assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 30


class TestParsing:
    def test_unknown_subcommand(self):
        assert run_cli("frobnicate").returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ("spectral", "--in", "g.txt", "--t", "2"),
            ("spectral", "--in", "g.txt", "--json"),
            ("hom", "--in", "g.txt", "--pattern", "c2t", "--t", "2", "--tol", "1e-9"),
            ("prune", "--in", "g.txt", "--t", "2", "--seed", "1"),
            ("pipeline", "--in", "g.txt", "--t", "2", "--pattern", "ktt",
             "--tol", "1e-9"),
            ("regularize", "--in", "g.txt", "--k", "2", "--t", "2"),
            ("gen", "--family", "star", "--n", "3", "--in", "g.txt"),
            ("sweep", "--pattern", "c2t", "--t", "2", "--m-range", "50:50:1",
             "--seed", "1", "--in", "g.txt"),
            ("regularize", "--in", "g.txt", "--k", "4", "--materialize", "--cap", "5"),
        ],
    )
    def test_flag_the_subcommand_does_not_read_is_usage_error(self, argv, capsys):
        from sslab.cli import main

        assert main(list(argv)) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectral", "check"])
    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf", "-inf", "1e400"])
    def test_tol_must_be_positive_and_finite(self, command, tol, capsys):
        from sslab.cli import main

        # the host file does not exist: the value is refused before it is read
        argv = [command, "--in", "missing.txt", f"--tol={tol}"]
        if command == "check":
            argv += ["--pattern", "path"]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"argument --tol: must be positive and finite, got '{tol}'" in out.err

    def test_one_default_tolerance(self):
        # every Perron solve and both --tol flags default to spectra.TOL
        import inspect

        for f in (spectra.perron, spectra.PerronBlocks, spectra.opnorm, sidorenko.check_suite):
            assert inspect.signature(f).parameters["tol"].default is spectra.TOL, f
        for argv in (["spectral"], ["check", "--pattern", "path"]):
            args = cli._build_parser().parse_args([*argv, "--in", "g.txt"])
            assert args.tol is spectra.TOL

    def test_one_parser_and_no_value_carries_over(self, monkeypatch, capsys):
        # main parses with one parser per process; each call must still see
        # only its own flags and the defaults
        from sslab import cli

        seen = []
        for name in ("spectral", "check", "prune", "gen", "sweep"):
            monkeypatch.setattr(f"sslab.cli.cmd_{name}", lambda args: seen.append(args) or 0)
        runs = [
            (["spectral", "--in", "a.txt", "--tol", "1e-3", "--out", "o.json"],
             dict(command="spectral", infile="a.txt", tol=1e-3, out="o.json")),
            (["spectral", "--in", "b.txt"],
             dict(command="spectral", infile="b.txt", tol=1e-10, out=None)),
            (["prune", "--in", "a.txt", "--t", "3", "--eta", "0.1", "--out", "p.json"],
             dict(command="prune", infile="a.txt", t=3, eta=0.1, out="p.json")),
            (["prune", "--in", "a.txt", "--t", "2"],
             dict(command="prune", t=2, eta=None, out=None)),
            (["check", "--in", "a.txt", "--pattern", "path", "--tol", "1e-4", "--pn", "5"],
             dict(command="check", tol=1e-4, pn=5, pattern_file=None)),
            (["check", "--in", "a.txt", "--pattern", "c2t", "--t", "2"],
             dict(command="check", tol=1e-10, pn=None, t=2)),
            (["gen", "--family", "star", "--n", "3", "--out", "g.txt"],
             dict(command="gen", n=3, out="g.txt", seed=None)),
            (["sweep", "--pattern", "c2t", "--t", "2", "--m-range", "50:50:1", "--seed", "4",
              "--force"], dict(command="sweep", force=True, samples=1)),
            (["sweep", "--pattern", "ktt", "--t", "2", "--m-range", "50:50:1", "--seed", "5"],
             dict(command="sweep", pattern="ktt", force=False, samples=1, out=None)),
        ]
        for argv, want in runs:
            assert cli.main(argv) == 0
            got = vars(seen[-1])
            assert {k: got[k] for k in want} == want, argv
        assert len(seen) == len(runs)
        assert cli._build_parser() is cli._build_parser()
        # a call that fails to parse leaves nothing behind for the next one
        assert cli.main(["prune", "--in", "a.txt", "--t", "x"]) == 2
        assert cli.main(["prune", "--in", "a.txt", "--t", "2"]) == 0
        assert vars(seen[-1])["t"] == 2 and vars(seen[-1])["eta"] is None
        capsys.readouterr()

    def test_console_script_installed(self, tmp_path):
        # Builds the wrapper an installer generates from the declared entry
        # point, so the test checks this tree rather than whatever `sslab`
        # happens to be on PATH. The script imports `sslab` the way run_cli
        # does: from PYTHONPATH, or from site-packages when installed.
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            tomllib = pytest.importorskip("tomli")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        with pyproject.open("rb") as fh:
            entry = tomllib.load(fh)["project"]["scripts"]["sslab"]
        module, func = entry.split(":")
        bindir = tmp_path / "bin"
        bindir.mkdir()
        script = bindir / "sslab"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {func}\n"
            f"sys.exit({func}())\n"
        )
        script.chmod(0o755)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join([str(bindir), env.get("PATH", "")])

        def run(*args):
            return subprocess.run(["sslab", *args], capture_output=True,
                                  text=True, env=env)

        r = run("gen", "--family", "star", "--n", "3")
        assert r.returncode == 0, r.stderr
        assert r.stdout.startswith("# n=4")
        assert run("frobnicate").returncode == 2
