import argparse
import concurrent.futures
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import dpcolor.characterization
import dpcolor.cli
import dpcolor.cover
import dpcolor.solver
from dpcolor import (Multigraph, build_bad_complete, format_cover,
                     format_multigraph, parse_cover, product_reduction, solve)
from dpcolor.census import MAX_CENSUS_VECTORS
from dpcolor.cli import main
from dpcolor.cover import MAX_LIST_SIZE


DATA = Path(__file__).parent / "data"
GOLDEN = json.loads((DATA / "cli_golden.json").read_text())


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def k3_file(tmp_path):
    return write(tmp_path / "k3.graph", format_multigraph(Multigraph.complete(3)))


def test_validate_good_cover(tmp_path, capsys):
    cover = build_bad_complete(3, 2)
    cov = write(tmp_path / "c.cover", format_cover(cover))
    gra = write(tmp_path / "g.graph", format_multigraph(cover.base))
    assert main(["validate", cov, "--graph", gra]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_violation_exit_1(tmp_path, capsys):
    gra = write(tmp_path / "g.graph", "2\n1 2 1\n")
    cov = write(tmp_path / "c.cover", "2\n1 2\n1 1 2 1\n1 1 2 2\n")
    assert main(["validate", cov, "--graph", gra]) == 1
    out = capsys.readouterr().out
    assert out.count("bipartite degree") >= 1


def test_validate_strict_rejects(tmp_path, capsys):
    gra = write(tmp_path / "g.graph", "2\n1 2 1\n")
    cov = write(tmp_path / "c.cover", "2\n1 2\n1 1 2 1\n1 1 2 2\n")
    assert main(["--strict", "validate", cov, "--graph", gra]) == 2


def test_validate_parse_error_exit_2(tmp_path, capsys):
    cov = write(tmp_path / "c.cover", "")
    assert main(["validate", cov]) == 2
    assert "parse error" in capsys.readouterr().err


def test_solve_round_trip(tmp_path, capsys):
    cover = build_bad_complete(3, 1)
    gra = write(tmp_path / "g.graph", format_multigraph(cover.base))
    cov = write(tmp_path / "c.cover", format_cover(cover))
    assert main(["solve", gra, cov]) == 1
    assert "UNCOLORABLE" in capsys.readouterr().out


def test_chi_dp_cycle(tmp_path, capsys):
    gra = write(tmp_path / "c5.graph", format_multigraph(Multigraph.cycle(5)))
    assert main(["chi-dp", gra]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_chi_dp_of_an_edge_of_multiplicity_32(tmp_path, capsys):
    gra = write(tmp_path / "k2x32.graph", "2\n1 2 32\n")
    assert main(["chi-dp", gra]) == 0
    assert capsys.readouterr().out == "33\n"


def test_chi_dp_starts_above_the_largest_multiplicity(tmp_path, capsys):
    # on K2^1000 both bounds give 1001, so no search runs
    gra = write(tmp_path / "k2x1000.graph", "2\n1 2 1000\n")
    assert main(["chi-dp", gra]) == 0
    assert capsys.readouterr().out == "1001\n"
    # on K3^1000, chi_dp >= 1001 and 1001-lists on three vertices exceed the
    # transversal space cap, so the first search needed is refused at once
    gra = write(tmp_path / "k3x1000.graph", "3\n1 2 1000\n1 3 1000\n2 3 1000\n")
    assert main(["chi-dp", gra]) == 3
    assert capsys.readouterr().err == \
        "resource cap: transversal space exceeds cap 500000\n"


def test_check_critical_refuses_cell_masks_over_the_cap(tmp_path, capsys):
    # deleting an edge of K2^250 leaves a search over 250-lists: 62,500
    # transversals are under the space cap, but 62,500 cells of 62,500-bit
    # masks are not under the mask cap
    gra = write(tmp_path / "k2x250.graph", "2\n1 2 250\n")
    assert main(["check-critical", gra, "--k", "251"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("resource cap: cell masks of")
    assert f"exceed cap {dpcolor.solver.MAX_MASK_BITS}" in err


def test_degree_colorable_refuses_a_witness_above_the_list_cap(tmp_path, capsys):
    gra = write(tmp_path / "k2x1001.graph", f"2\n1 2 {MAX_LIST_SIZE + 1}\n")
    wit = tmp_path / "k2.cover"
    assert main(["degree-colorable", gra, "--witness", str(wit)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"resource cap: witness list size {MAX_LIST_SIZE + 1} "
                   f"exceeds cap {MAX_LIST_SIZE}\n")
    assert not wit.exists()
    # the verdict alone needs no witness
    assert main(["degree-colorable", gra]) == 1
    assert capsys.readouterr().out == "NOT-DEGREE-COLORABLE\n"
    # a colorable graph answers as before, however large its degrees
    heavy_triangle = write(tmp_path / "k3.graph",
                           f"3\n1 2 {MAX_LIST_SIZE}\n1 3 1\n2 3 1\n")
    assert main(["degree-colorable", heavy_triangle, "--witness", str(wit)]) == 0
    assert capsys.readouterr().out == "DEGREE-COLORABLE\n"
    assert not wit.exists()


def test_degree_colorable_witness_pipeline(tmp_path, capsys):
    bowtie = Multigraph.from_edges(
        5, [(1, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 5)])
    gra = write(tmp_path / "bow.graph", format_multigraph(bowtie))
    wit = str(tmp_path / "bow.cover")
    assert main(["degree-colorable", gra, "--witness", wit]) == 1
    assert "NOT-DEGREE-COLORABLE" in capsys.readouterr().out
    # witness round-trips through validate and solve
    assert main(["validate", wit, "--graph", gra]) == 0
    capsys.readouterr()
    assert main(["solve", gra, wit]) == 1
    assert "UNCOLORABLE" in capsys.readouterr().out
    # and the exhaustive oracle agrees
    assert main(["degree-colorable", gra, "--oracle"]) == 1


def test_oracle_refuses_a_total_degree_over_the_cap(tmp_path, capsys):
    gra = write(tmp_path / "k2x13.graph", format_multigraph(Multigraph.complete(2, 13)))
    assert main(["degree-colorable", gra, "--oracle"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "resource cap: total degree 26 exceeds cap 24\n"


def test_degree_colorable_positive(tmp_path, capsys):
    diamond = Multigraph.from_edges(4, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)])
    gra = write(tmp_path / "d.graph", format_multigraph(diamond))
    assert main(["degree-colorable", gra]) == 0
    assert "DEGREE-COLORABLE" in capsys.readouterr().out


def test_check_critical(tmp_path, capsys):
    gra = write(tmp_path / "k4.graph", format_multigraph(Multigraph.complete(4)))
    assert main(["check-critical", gra, "--k", "4"]) == 0
    out = capsys.readouterr().out
    assert "CRITICAL" in out and "chi_dp = 4" in out
    assert main(["check-critical", gra, "--k", "3"]) == 1


def test_reduce_then_solve(tmp_path, capsys, k3_file):
    c4 = Multigraph.cycle(4)
    gra = write(tmp_path / "c4.graph", format_multigraph(c4))
    lists = write(tmp_path / "c4.lists", "1 1 2\n2 1 2\n3 1 2\n4 1 2\n")
    out_cover = str(tmp_path / "c4.cover")
    assert main(["reduce", gra, lists, "-o", out_cover]) == 0
    assert main(["solve", gra, out_cover]) == 0
    assert "COLORABLE" in capsys.readouterr().out


def test_reduce_stdout_parses_back(tmp_path, capsys, k3_file):
    lists = write(tmp_path / "k3.lists", "1 a b\n2 a b\n3 a b\n")
    assert main(["reduce", k3_file, lists]) == 0
    text = capsys.readouterr().out
    cover = parse_cover(text, base=Multigraph.complete(3))
    assert not solve(cover).colorable  # triangle is not 2-choosable


def test_reduce_bad_lists(tmp_path, k3_file):
    lists = write(tmp_path / "bad.lists", "1 a a\n2 a\n3 a\n")
    assert main(["reduce", k3_file, lists]) == 2


def test_reduce_rejects_vertex_out_of_range(tmp_path, capsys, k3_file):
    for bad in ("99", "0", "-1"):
        lists = write(tmp_path / "bad.lists", f"1 a b\n{bad} a b\n2 a\n3 b\n")
        assert main(["reduce", k3_file, lists]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"parse error: line 2: vertex {bad} out of range 1..3\n"


def test_reduce_refuses_a_list_above_the_size_cap(tmp_path, capsys, k3_file):
    long = " ".join(f"c{i}" for i in range(MAX_LIST_SIZE + 1))
    lists = write(tmp_path / "long.lists", f"1 a\n2 {long}\n3 a\n")
    assert main(["reduce", k3_file, lists]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"resource cap: list size {MAX_LIST_SIZE + 1} of vertex 2 "
                            f"exceeds cap {MAX_LIST_SIZE}\n")
    at_cap = " ".join(f"c{i}" for i in range(MAX_LIST_SIZE))
    lists = write(tmp_path / "cap.lists", f"1 {at_cap}\n2 {at_cap}\n3 {at_cap}\n")
    out_cover = str(tmp_path / "cap.cover")
    assert main(["reduce", k3_file, lists, "-o", out_cover]) == 0
    assert main(["--format", "lines", "solve", k3_file, out_cover]) == 0
    assert capsys.readouterr().out == "colorable 1 2 3\n"


def test_census_lines(capsys):
    assert main(["--format", "lines", "census", "--max-n", "3", "--max-mult", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4  # K1, K2, P3, K3
    for line in lines:
        parts = line.split()
        assert len(parts) == 6
    # K1 line: chi 1, degree-uncolorable
    assert lines[0] == "g0 1 0 1 0/1 not-degree-colorable"
    # K3 line: chi 3, slack 2*3-2*3=0
    assert lines[3].endswith("not-degree-colorable")


def test_census_text_header(capsys):
    assert main(["census", "--max-n", "2", "--max-mult", "2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# id n 2E chi_dp slack verdict")


def test_census_workers_match_serial(monkeypatch, capsys):
    mapped = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            results = list(super().map(fn, *iterables, **kwargs))
            mapped.append(len(results))
            return iter(results)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    argv = ["census", "--max-n", "3", "--max-mult", "2"]
    assert main(argv + ["--workers", "1"]) == 0
    serial = capsys.readouterr().out
    assert mapped == []
    assert main(argv + ["--workers", "2"]) == 0
    assert capsys.readouterr().out == serial
    assert mapped == [10]  # the pool made every record
    assert len(serial.splitlines()) == 11  # a header and 10 records


def test_census_workers_capped_by_cpus_and_records(monkeypatch, capsys):
    # a process pool starts all max_workers processes at the first task, so
    # an outsized --workers must never reach it; the fake runs in-process
    asked = []

    class FakePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    argv = ["census", "--max-n", "3", "--max-mult", "2"]
    assert main(argv + ["--workers", "1000000"]) == 0
    assert asked == [3]
    assert main(["census", "--max-n", "2", "--max-mult", "1", "--workers", "1000000"]) == 0
    assert asked == [3, 2]  # K1 and K2: two records


def test_missing_file_is_parse_error(capsys):
    assert main(["chi-dp", "/nonexistent/file.graph"]) == 2


def test_node_budget_flag(tmp_path, capsys):
    gra = write(tmp_path / "k33.graph",
                format_multigraph(Multigraph.complete(4, 2)))
    assert main(["--node-budget", "1", "chi-dp", gra]) == 3
    assert "resource cap" in capsys.readouterr().err


def test_dpcolor_env_variables_change_nothing(k3_file, monkeypatch, capsys):
    # settings come from flags alone; no environment variable is read
    monkeypatch.setenv("DPCOLOR_NODE_BUDGET", "1")
    monkeypatch.setenv("DPCOLOR_STRICT", "maybe")
    monkeypatch.setenv("DPCOLOR_OUTPUT_FORMAT", "xml")
    assert main(["chi-dp", k3_file]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("3\n", "")


def test_out_of_range_flags_are_input_errors(k3_file, capsys):
    for argv, message in (
            (["--node-budget", "0", "chi-dp", k3_file], "node_budget must be positive"),
            (["census", "--workers", "0"], "worker_count must be positive"),
            (["census", "--max-mult", "-1"], "max_mult must be nonnegative")):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {message}\n"


@pytest.mark.parametrize("max_n", ["0", "-3"])
def test_census_refuses_max_n_below_one(capsys, max_n):
    assert main(["census", "--max-n", max_n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: max_n must be positive\n"


def test_unwritable_output_is_an_input_error(tmp_path, capsys, k3_file):
    missing = tmp_path / "missing"
    bowtie = str(DATA / "bowtie.graph")
    lists = write(tmp_path / "k3.lists", "1 a b\n2 a b\n3 a b\n")
    for argv, path in ((["degree-colorable", bowtie, "--witness"], missing / "w"),
                       (["reduce", k3_file, lists, "-o"], missing / "o")):
        assert main(argv + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no verdict before a failed write
        assert captured.err == (f"input error: cannot write {path}: "
                                "No such file or directory\n")


def test_solve_long_path_cover_exit_0(tmp_path, capsys):
    n = 1500
    cover = product_reduction(Multigraph.path(n), 2)
    gra = write(tmp_path / "p.graph", format_multigraph(cover.base))
    cov = write(tmp_path / "p.cover", format_cover(cover))
    assert main(["--format", "lines", "solve", gra, cov]) == 0
    out = capsys.readouterr().out.split()
    assert out[0] == "colorable" and len(out) == n + 1


def test_unexpected_exception_exits_4(tmp_path, monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(dpcolor.cli, "solve", crash)
    cover = build_bad_complete(3, 1)
    gra = write(tmp_path / "g.graph", format_multigraph(cover.base))
    cov = write(tmp_path / "c.cover", format_cover(cover))
    assert main(["solve", gra, cov]) == 4
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: injected\n"


def test_solve_validates_once(tmp_path, monkeypatch, capsys):
    # cmd_solve checks the cover conditions once, in solve's walk over the
    # cross edges; only a cover that fails the walk reaches iter_violations,
    # which words the message
    walks, reports = [], []
    walk = dpcolor.solver._conflict_masks
    report = dpcolor.cover.iter_violations
    monkeypatch.setattr(dpcolor.solver, "_conflict_masks",
                        lambda cover: walks.append(cover) or walk(cover))
    for module in (dpcolor.cover, dpcolor.cli):
        monkeypatch.setattr(module, "iter_violations",
                            lambda cover: reports.append(cover) or report(cover))
    gra = write(tmp_path / "g.graph", "2\n1 2 1\n")
    cov = write(tmp_path / "c.cover", "2\n1 2\n1 1 2 1\n1 1 2 2\n")
    assert main(["solve", gra, cov]) == 2
    assert capsys.readouterr().err == ("input error: pair (1, 2), color (1, 1): "
                                       "bipartite degree 2 exceeds multiplicity 1\n")
    assert len(walks) == 1 and len(reports) == 1
    good = build_bad_complete(3, 1)
    gra = write(tmp_path / "k3.graph", format_multigraph(good.base))
    cov = write(tmp_path / "k3.cover", format_cover(good))
    assert main(["solve", gra, cov]) == 1
    assert len(walks) == 2 and len(reports) == 1


def test_strict_validates_once(monkeypatch, capsys):
    # under --strict the command's own pass over the violations is the only
    # one: a valid cover is walked once, and an invalid one is refused with
    # its first violation
    reports = []
    report = dpcolor.cover.iter_violations
    for module in (dpcolor.cover, dpcolor.cli):
        monkeypatch.setattr(module, "iter_violations",
                            lambda cover: reports.append(cover) or report(cover))
    graph = ["--graph", str(DATA / "k3.graph")]
    assert main(["--strict", "validate", str(DATA / "k3-bad.cover")] + graph) == 0
    assert capsys.readouterr().out == "valid\n"
    assert len(reports) == 1
    graph = ["--graph", str(DATA / "edge.graph")]
    assert main(["--strict", "validate", str(DATA / "edge-overfull.cover")] + graph) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("parse error: strict mode: pair (1, 2), color (1, 1): "
                            "bipartite degree 2 exceeds multiplicity 1\n")
    assert len(reports) == 2


def test_degree_colorable_builds_a_witness_only_when_asked(tmp_path, monkeypatch, capsys):
    # the block decision builds and re-checks an uncolorable cover only for
    # --witness; without it the verdict and its output are the same
    checks = []
    check = dpcolor.characterization.validate_cover
    monkeypatch.setattr(dpcolor.characterization, "validate_cover",
                        lambda cover: checks.append(cover) or check(cover))
    bowtie = str(DATA / "bowtie.graph")
    assert main(["degree-colorable", bowtie]) == 1
    assert capsys.readouterr().out == "NOT-DEGREE-COLORABLE\n"
    assert checks == []
    wit = str(tmp_path / "bowtie.cover")
    assert main(["degree-colorable", bowtie, "--witness", wit]) == 1
    assert capsys.readouterr().out == f"NOT-DEGREE-COLORABLE\nwitness written to {wit}\n"
    assert len(checks) == 1
    assert parse_cover(Path(wit).read_text()) == checks[0]


def test_strict_solve_words_the_walk_failure(tmp_path, monkeypatch, capsys):
    # --strict solve refuses an invalid cover as a parse error with the text
    # solve's CoverInvalid carries, after a single walk and a single report
    walks, reports = [], []
    walk = dpcolor.solver._conflict_masks
    report = dpcolor.cover.iter_violations
    monkeypatch.setattr(dpcolor.solver, "_conflict_masks",
                        lambda cover: walks.append(cover) or walk(cover))
    monkeypatch.setattr(dpcolor.cover, "iter_violations",
                        lambda cover: reports.append(cover) or report(cover))
    gra = write(tmp_path / "g.graph", "2\n1 2 1\n")
    cov = write(tmp_path / "c.cover", "2\n1 2\n1 1 2 1\n1 1 2 2\n")
    assert main(["--strict", "solve", gra, cov]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("parse error: strict mode: pair (1, 2), color (1, 1): "
                            "bipartite degree 2 exceeds multiplicity 1\n")
    assert len(walks) == 1 and len(reports) == 1


def test_flag_overrides_a_bad_env_value(monkeypatch, capsys):
    # the flag alone sets the budget; the variable is never read
    monkeypatch.setenv("DPCOLOR_NODE_BUDGET", "abc")
    k4 = str(DATA / "k4.graph")
    assert main(["--node-budget", "5", "chi-dp", k4]) == 3
    assert capsys.readouterr().err == ("resource cap: cover search exceeded "
                                       "node budget 5\n")
    assert main(["--node-budget", "1000", "chi-dp", k4]) == 0
    assert capsys.readouterr().out == "4\n"


def test_main_calls_share_no_state(capsys):
    # main() reuses one parser: a flag given to one call must not carry over
    # to the next, so two calls in one process answer as two fresh processes
    k4 = str(DATA / "k4.graph")
    calls = [["--format", "lines", "--node-budget", "5", "chi-dp", k4], ["chi-dp", k4]]
    src = str(Path(dpcolor.cli.__file__).resolve().parents[1])
    for argv in calls:
        code = main(argv)
        captured = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "dpcolor.cli", *argv],
                              capture_output=True, text=True, timeout=30,
                              env={**os.environ, "PYTHONPATH": src})
        assert (code, captured.out, captured.err) == (
            proc.returncode, proc.stdout, proc.stderr)
    assert [main(argv) for argv in calls] == [3, 0]
    assert capsys.readouterr().out == "4\n"
    assert dpcolor.cli.build_parser() is dpcolor.cli.build_parser()


def test_oracle_refuses_a_disconnected_graph(capsys):
    argv = ["degree-colorable", str(DATA / "two-parts.graph"), "--oracle"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: oracle needs a connected multigraph\n"


def test_huge_vertex_count_is_refused(tmp_path, capsys):
    gra = write(tmp_path / "huge.graph", "100000000\n")
    assert main(["chi-dp", gra]) == 3
    assert "vertex count 100000000 exceeds cap 100000" in capsys.readouterr().err
    cov = write(tmp_path / "huge.cover", "100000000\n")
    assert main(["validate", cov]) == 3


def test_huge_list_size_is_refused(tmp_path, capsys):
    gra = write(tmp_path / "edge.graph", "2\n1 2 1\n")
    cov = write(tmp_path / "huge.cover", "2\n1000000000 1000000000\n1 1 2 1\n")
    assert main(["solve", gra, cov]) == 3
    assert "list size 1000000000 exceeds cap 1000" in capsys.readouterr().err
    assert main(["validate", cov]) == 3


@pytest.mark.parametrize("argv", [["chi-dp"], ["check-critical", "--k", "3"]],
                         ids=["chi-dp", "check-critical"])
def test_many_isolated_vertices_reach_the_space_cap_fast(tmp_path, argv):
    # a triangle plus 99,997 isolated vertices: degeneracy, which chi_dp
    # computes before its first search, must stay near linear in n for the
    # transversal-space cap to refuse in time; a subprocess, so a hang fails
    # at the timeout instead of stalling the suite
    gra = write(tmp_path / "wide.graph", "100000\n1 2 1\n2 3 1\n1 3 1\n")
    src = str(Path(dpcolor.cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "dpcolor.cli", argv[0], gra, *argv[1:]],
                          capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 3
    assert "transversal space exceeds cap" in proc.stderr


def test_check_critical_on_a_long_path_is_fast(tmp_path):
    # deleting an edge leaves 19,998 pairs that can all block the one
    # transversal of the 1-lists: picking the target must not cost a pass
    # over the pairs for each of those counts; a subprocess, so a hang
    # fails at the timeout
    n = 20_000
    gra = write(tmp_path / "path.graph",
                f"{n}\n" + "".join(f"{v} {v + 1} 1\n" for v in range(1, n)))
    src = str(Path(dpcolor.cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "dpcolor.cli", "--format", "lines",
                           "check-critical", gra, "--k", "2"],
                          capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "not-critical 2 19998/1 edge:1:2\n", "")


@pytest.mark.parametrize("max_n, max_mult", [(4, 1000), (2, 100_000_000)])
def test_cli_refuses_an_oversized_census_fast(max_n, max_mult):
    # a subprocess, so a scan that starts fails at the timeout instead of
    # stalling the suite
    src = str(Path(dpcolor.cli.__file__).resolve().parents[1])
    argv = [sys.executable, "-m", "dpcolor.cli", "census",
            "--max-n", str(max_n), "--max-mult", str(max_mult)]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=10,
                          env={**os.environ, "PYTHONPATH": src})
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == f"resource cap: census vector count exceeds cap {MAX_CENSUS_VECTORS}\n"


def test_import_leaves_out_dataclasses():
    # dataclasses pulls in inspect and ast, about 1 MB of resident memory in
    # every process that imports dpcolor
    src = str(Path(dpcolor.cli.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import dpcolor.cli, dpcolor.census; "
            "sys.exit('dataclasses' in sys.modules)")
    assert subprocess.run([sys.executable, "-S", "-c", code]).returncode == 0


def run_case(case, workdir):
    """(exit code, stdout, {name: text} of the files written) of one corpus
    case run in workdir.  An argument "@name" is the input file
    tests/data/name."""
    argv = [str(DATA / a[1:]) if a.startswith("@") else a for a in case["argv"]]
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    files = {name: (Path(workdir) / name).read_text() for name in sorted(os.listdir(workdir))}
    return code, out.getvalue(), files


@pytest.mark.parametrize("case", GOLDEN, ids=[case["id"] for case in GOLDEN])
def test_golden_corpus(case, tmp_path):
    """Stdout, exit code and written files match the recorded corpus byte
    for byte; output files are written to the working directory.

    Rewrite entries only for an intended change of output:
    ``PYTHONPATH=src python tests/test_cli.py --record ID ...``.
    """
    assert run_case(case, tmp_path) == (case["exit"], case["stdout"], case["files"])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(
        description="Rewrite the named entries of tests/data/cli_golden.json "
                    "from what the current code prints and writes.")
    parser.add_argument("--record", nargs="+", required=True, metavar="ID")
    ids = parser.parse_args().record
    cases = {case["id"]: case for case in GOLDEN}
    unknown = [i for i in ids if i not in cases]
    if unknown:
        parser.error(f"unknown corpus id: {' '.join(unknown)}")
    for i in ids:
        with tempfile.TemporaryDirectory() as tmp:
            cases[i]["exit"], cases[i]["stdout"], cases[i]["files"] = run_case(cases[i], tmp)
    (DATA / "cli_golden.json").write_text(
        "[\n" + ",\n".join(json.dumps(case) for case in GOLDEN) + "\n]\n")
    print(f"rewrote {len(ids)} of {len(GOLDEN)} entries")
