"""Command-line interface: subcommands, JSON/CSV output, determinism, exits."""

import ast
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sslab.graphs import complete_bipartite, path, split_graph, star, union, write_edge_list
from sslab.regularize import edge_distribution
from conftest import csr_rows

DATA = Path(__file__).parent / "data"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "sslab.cli", *args],
        capture_output=True,
        text=True,
    )


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

    def test_integer_arrays_serialize_whole(self):
        # the regularize report's n_mat: int and bool arrays go out as
        # their lists, float arrays still round each entry
        import numpy as np
        from sslab.cli import _plain

        ints = _plain(np.arange(6, dtype=np.int64).reshape(2, 3))
        assert ints == [[0, 1, 2], [3, 4, 5]] and type(ints[1][2]) is int
        assert _plain(np.array([True, False])) == [True, False]
        assert _plain(np.array([[1 / 3]])) == [[0.333333333333]]

    def test_regularize_cap(self, tmp_path, capsys):
        from sslab.cli import main

        p = tmp_path / "p3.txt"
        p.write_text(write_edge_list(star(2)))
        argv = ["regularize", "--in", str(p), "--k", "4", "--cap"]
        # the type class has 12 tuples
        assert main([*argv, "11"]) == 2
        assert capsys.readouterr().err == "error: --cap applies only with --materialize\n"
        assert main([*argv, "11", "--materialize"]) == 2
        assert "> cap 11" in capsys.readouterr().err
        assert main([*argv, "12", "--materialize"]) == 0
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

    @pytest.mark.parametrize("pattern", ["ktt", "c2t"])
    def test_t_below_2_is_usage_error(self, pattern):
        r = run_cli("sweep", "--pattern", pattern, "--t", "1",
                    "--m-range", "50:50:1", "--seed", "1")
        assert r.returncode == 2
        assert r.stderr == "error: sweep needs --t >= 2\n"

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
            assert _estimate_work(family, "ktt", t, 600) == math.comb(5 + 2, 3)

    def test_split_k33_sweep_runs_within_the_budget(self):
        # S_{3,30000} has 10 002 vertices but 4 twin classes: the class
        # recursion's C(6, 3) multisets, where C(10002, 3) > 10^9 subsets
        # once needed --force
        r = run_cli("sweep", "--pattern", "ktt", "--t", "3", "--families", "split-t",
                    "--m-range", "30000:30000:1", "--seed", "1")
        assert r.returncode == 0, r.stderr
        assert r.stderr == "estimated work: 20 elementary steps\n"
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
        ],
    )
    def test_is_a_clean_parse_error(self, tmp_path, capsys, text):
        from sslab.cli import main

        host = tmp_path / "huge.txt"
        host.write_text(text)
        assert main(["spectral", "--in", str(host)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line ") and "internal" not in err


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

    def test_dense_matrices_only_where_named(self):
        # the host adjacency is densified once, for the contraction engine;
        # the other two dense steps are small Perron blocks and the row
        # cover's Gram matrix.  Everything else reads the CSR.
        import sslab

        found = []

        def visit(node, scope, path):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                    inner = f"{scope}.{child.name}"
                if isinstance(child, ast.Attribute) and child.attr in ("toarray", "todense"):
                    found.append(f"{path.stem}{scope}.{child.attr}")
                visit(child, inner, path)

        for p in sorted(Path(sslab.__file__).parent.glob("*.py")):
            text = p.read_text()
            assert "adjacency_matrix" not in text, p.name
            visit(ast.parse(text, str(p)), "", p)
        assert sorted(found) == [
            "homcounts._contract_sum.toarray",
            "spectra._Block._solve.toarray",
            "spectra.top_singular.toarray",
        ]


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
