import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given

import qbounds.cli as cli
from qbounds import from_arc_list, gen_directed_cycle
from qbounds.cli import (
    EXIT_FAILURE,
    EXIT_NO_CONVERGENCE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RESOURCE,
    EXIT_USAGE,
    EdgeListParseError,
    main,
    parse_edge_list,
    serialize_edge_list,
)

from conftest import digraphs

STAR = "n 4\n1 2\n2 1\n1 3\n3 1\n1 4\n4 1\n"


# --- edge-list parsing -----------------------------------------------------------


def test_parse_basic():
    g = parse_edge_list("n 3\n1 2\n2 3\n3 1\n")
    assert g == gen_directed_cycle(3)


def test_parse_without_header_infers_n():
    g = parse_edge_list("1 2\n2 3\n3 1\n")
    assert g.n == 3


def test_parse_header_adds_isolated_vertices():
    g = parse_edge_list("n 5\n1 2\n2 1\n")
    assert g.n == 5
    assert g.m == 2


def test_parse_comments_and_blanks():
    text = "# a triangle\nn 3\n\n1 2  # first arc\n2 3\n3 1\n\n"
    assert parse_edge_list(text) == gen_directed_cycle(3)


def test_parse_rejects_loop_with_line_number():
    with pytest.raises(EdgeListParseError, match="line 2: loop arc"):
        parse_edge_list("1 2\n2 2\n")


def test_parse_rejects_zero_based_ids():
    with pytest.raises(EdgeListParseError, match="1-based"):
        parse_edge_list("0 1\n")


def test_parse_rejects_id_beyond_header():
    with pytest.raises(EdgeListParseError, match="exceeds declared vertex count"):
        parse_edge_list("n 2\n1 3\n")


def test_parse_rejects_late_or_duplicate_header():
    with pytest.raises(EdgeListParseError, match="header must come before"):
        parse_edge_list("1 2\nn 3\n")
    with pytest.raises(EdgeListParseError, match="duplicate header"):
        parse_edge_list("n 3\nn 3\n1 2\n")


def test_parse_rejects_garbage_tokens():
    with pytest.raises(EdgeListParseError, match="expected an arc line"):
        parse_edge_list("1 2 3\n")
    with pytest.raises(EdgeListParseError, match="must be integers"):
        parse_edge_list("a b\n")


def test_parse_rejects_empty_document():
    with pytest.raises(EdgeListParseError, match="no arcs"):
        parse_edge_list("# nothing here\n")
    with pytest.raises(EdgeListParseError, match="no arcs"):
        parse_edge_list("n 4\n")


def test_serialize_writes_header_and_sorted_arcs(star4):
    assert serialize_edge_list(star4) == "n 4\n1 2\n1 3\n1 4\n2 1\n3 1\n4 1\n"


@given(digraphs())
def test_round_trip(g):
    assert parse_edge_list(serialize_edge_list(g)) == g


# --- compute ----------------------------------------------------------------------


def test_compute_table(tmp_path, capsys):
    f = tmp_path / "star.edges"
    f.write_text(STAR)
    assert main(["compute", "--input", str(f)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "q = 4.0000" in out
    assert "indeg_sqrt" in out and "4.7321" in out
    assert "is_bidirectional_star" in out


def test_compute_inline_equals_file(tmp_path, capsys):
    f = tmp_path / "c3.edges"
    f.write_text("n 3\n1 2\n2 3\n3 1\n")
    main(["compute", "--input", str(f)])
    from_file = capsys.readouterr().out
    main(["compute", "--inline", "n 3; 1 2; 2 3; 3 1"])
    from_inline = capsys.readouterr().out
    assert from_file == from_inline


def test_compute_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(STAR))
    assert main(["compute", "--input", "-"]) == EXIT_OK
    assert "q = 4.0000" in capsys.readouterr().out


def test_compute_json_csv_same_numbers(capsys):
    inline = "n 3; 1 2; 2 3; 3 1"
    main(["compute", "--inline", inline, "--format", "json"])
    tree = json.loads(capsys.readouterr().out)
    main(["compute", "--inline", inline, "--format", "csv"])
    csv_lines = capsys.readouterr().out.splitlines()
    header = csv_lines[0].split(",")
    values = csv_lines[1].split(",")
    by_name = dict(zip(header, values))
    assert float(by_name["q"]) == tree["spectral"]["q"]
    for entry in tree["bounds"]:
        cell = by_name[entry["id"]]
        if entry["value"] is None:
            assert cell == ""
        else:
            assert float(cell) == entry["value"]


def test_compute_json_witnesses_are_one_based(capsys):
    main(["compute", "--inline", "n 3; 1 2; 2 3; 3 1", "--format", "json"])
    tree = json.loads(capsys.readouterr().out)
    arc_entry = next(e for e in tree["bounds"] if e["id"] == "arc_deg_sum")
    assert arc_entry["witness_kind"] == "arc"
    assert arc_entry["witness"] == [1, 2]
    assert arc_entry["equals_q"] is True


def test_compute_equality_markers(capsys):
    main(["compute", "--inline", "n 3; 1 2; 2 3; 3 1"])
    out = capsys.readouterr().out
    for line in out.splitlines():
        if line.startswith("deg_extremes"):
            assert "=" not in line  # 2.5 > q = 2
        if line.startswith("arc_deg_sum"):
            assert " =" in line


def test_compute_byte_identical_runs(capsys):
    args = ["compute", "--inline", "n 3; 1 2; 2 3; 3 1", "--format", "json"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


def test_compute_requires_exactly_one_source(capsys):
    assert main(["compute"]) == EXIT_USAGE
    assert (
        main(["compute", "--input", "x", "--inline", "1 2"]) == EXIT_USAGE
    )
    err = capsys.readouterr().err
    assert "exactly one of --input or --inline" in err


def test_compute_missing_file_is_parse_error(capsys):
    assert main(["compute", "--input", "/nonexistent/file.edges"]) == EXIT_PARSE
    assert "cannot read" in capsys.readouterr().err


def test_compute_malformed_input(capsys):
    assert main(["compute", "--inline", "n 3; 1 1"]) == EXIT_PARSE
    assert "loop arc" in capsys.readouterr().err


def test_compute_bad_tol_and_iter(capsys):
    assert main(["compute", "--inline", "1 2; 2 1", "--tol", "-1"]) == EXIT_USAGE
    assert main(["compute", "--inline", "1 2; 2 1", "--max-iter", "0"]) == EXIT_USAGE


def test_compute_non_convergence_exit(capsys):
    # the star needs two matvecs to close its enclosure
    rc = main(["compute", "--inline", STAR.replace("\n", ";"), "--max-iter", "1"])
    assert rc == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("no convergence: ")
    # the best Collatz-Wielandt enclosure reached is part of the report
    assert "best enclosure [2.0, 6.0]" in err


@pytest.mark.parametrize(
    "error, shown",
    [
        (MemoryError("Unable to allocate 74.5 GiB"), "Unable to allocate 74.5 GiB"),
        (MemoryError(), "out of memory"),
    ],
)
def test_compute_memory_error_exit(monkeypatch, capsys, error, shown):
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "spectral_radius", exhausted)
    rc = main(["compute", "--inline", STAR.replace("\n", ";")])
    assert rc == EXIT_RESOURCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"resource error: {shown}\n"


def test_unknown_flag_is_usage_error(capsys):
    assert main(["compute", "--frobnicate"]) == EXIT_USAGE


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
def test_closed_stdout_ends_by_sigpipe(tmp_path):
    # about 430 kB of json, far more than a pipe buffers, so the process
    # is still writing when the reader goes away
    path = tmp_path / "path.edges"
    n = 10_000
    path.write_text(f"n {n}\n" + "".join(f"{i} {i + 1}\n" for i in range(1, n)))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    argv = [sys.executable, "-m", "qbounds.cli", "compute", "--input",
            str(path), "--format", "json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert err == b""


# --- sweep ------------------------------------------------------------------------


def test_sweep_small_pass(capsys):
    rc = main(["sweep", "--count", "15", "--seed", "3"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "dominance" in out
    assert "PASS" in out
    assert "checked 15 graphs" in out


def test_sweep_zero_count_warns(capsys):
    rc = main(["sweep", "--count", "0"])
    assert rc == EXIT_OK
    assert "warning: empty corpus" in capsys.readouterr().out


def test_sweep_p_zero_gives_cycles(capsys):
    rc = main(["sweep", "--count", "10", "--n", "3..3", "--p", "0", "--seed", "1"])
    assert rc == EXIT_OK


def test_sweep_json(capsys):
    rc = main(["sweep", "--count", "5", "--format", "json"])
    assert rc == EXIT_OK
    tree = json.loads(capsys.readouterr().out)
    assert tree["passed"] is True
    assert tree["graph_count"] == 5
    assert tree["failures"] == []


def test_sweep_flag_validation(capsys):
    assert main(["sweep", "--n", "five"]) == EXIT_USAGE
    assert main(["sweep", "--n", "6..3"]) == EXIT_USAGE
    assert main(["sweep", "--p", "1.5"]) == EXIT_USAGE
    assert main(["sweep", "--count", "-2"]) == EXIT_USAGE


def test_sweep_deterministic_output(capsys):
    args = ["sweep", "--count", "8", "--seed", "99", "--format", "json"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


# --- reconstruct --------------------------------------------------------------------


def test_reconstruct_custom_triangle(capsys):
    rc = main(
        ["reconstruct", "--n", "3", "--q", "2.0", "--row", "arc_deg_sum=2.0",
         "--tol", "1e-6"]
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "1 match(es)" in out
    assert "n 3" in out


def test_reconstruct_no_match_exit_and_table(capsys):
    rc = main(["reconstruct", "--n", "3", "--q", "2.3", "--tol", "1e-6"])
    assert rc == EXIT_FAILURE
    out = capsys.readouterr().out
    assert "no candidate reproduced the target row" in out
    assert "nearest candidate" in out
    assert "deviation" in out


def test_reconstruct_allow_empty(capsys):
    rc = main(
        ["reconstruct", "--n", "3", "--q", "2.3", "--tol", "1e-6", "--allow-empty"]
    )
    assert rc == EXIT_OK


def test_reconstruct_needs_target(capsys):
    assert main(["reconstruct"]) == EXIT_USAGE
    assert "--preset" in capsys.readouterr().err


def test_reconstruct_bad_row_key(capsys):
    rc = main(["reconstruct", "--n", "3", "--q", "2.0", "--row", "nope=1"])
    assert rc == EXIT_USAGE
    assert "unknown bound" in capsys.readouterr().err


def test_reconstruct_g2_preset_refuses_with_guidance(capsys):
    rc = main(["reconstruct", "--preset", "g2"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "not desk scale" in err
    assert "--m" in err  # the guidance names the narrowing flags


def test_reconstruct_json(capsys):
    rc = main(
        ["reconstruct", "--n", "3", "--q", "2.0", "--row", "arc_deg_sum=2.0",
         "--tol", "1e-6", "--format", "json"]
    )
    assert rc == EXIT_OK
    tree = json.loads(capsys.readouterr().out)
    assert tree["candidates_visited"] == 63
    assert len(tree["matches"]) == 1
    assert tree["matches"][0]["edge_list"].startswith("n 3\n")


def _assert_one_usage_line(capsys, argv, fragment):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("usage error: ")
    assert fragment in lines[0]


def test_reconstruct_rejects_nan_tolerance(capsys):
    _assert_one_usage_line(
        capsys, ["reconstruct", "--n", "3", "--q", "2.0", "--tol", "nan"],
        "tolerance",
    )


def test_reconstruct_rejects_nan_q(capsys):
    _assert_one_usage_line(
        capsys, ["reconstruct", "--n", "3", "--q", "nan"], "q must be finite"
    )


def test_reconstruct_rejects_infinite_row_value(capsys):
    _assert_one_usage_line(
        capsys,
        ["reconstruct", "--n", "3", "--q", "2.0", "--row", "arc_deg_sum=inf"],
        "arc_deg_sum",
    )


def test_reconstruct_rejects_single_vertex(capsys):
    _assert_one_usage_line(
        capsys, ["reconstruct", "--n", "1", "--q", "2.0"], "n >= 2"
    )


def test_reconstruct_rejects_negative_tolerance(capsys):
    _assert_one_usage_line(
        capsys, ["reconstruct", "--n", "3", "--q", "2.0", "--tol", "-1"],
        "tolerance",
    )


# --- golden outputs -----------------------------------------------------------------
#
# Each file under data/golden holds the exact stdout of one command. The
# commands print no number that depends on floating-point summation
# order: regular digraphs, where q = 2d after one matvec with residual 0,
# reducible digraphs made of size-one blocks, and the tables and pass
# counts of sweep and reconstruct.

GOLDEN = Path(__file__).parent / "data" / "golden"
CYCLE5 = "n 5; 1 2; 2 3; 3 4; 4 5; 5 1"
K4 = "n 4; " + "; ".join(
    f"{i} {j}" for i in range(1, 5) for j in range(1, 5) if i != j
)
README_SWEEP = ["sweep", "--count", "100", "--n", "3..12", "--p", "0.2,0.3,0.5",
                "--seed", "42"]
GOLDEN_COMMANDS = {
    "compute_cycle5_json": ["compute", "--inline", CYCLE5, "--format", "json"],
    "compute_cycle5_csv": ["compute", "--inline", CYCLE5, "--format", "csv"],
    "compute_k4_json": ["compute", "--inline", K4, "--format", "json"],
    "compute_k4_csv": ["compute", "--inline", K4, "--format", "csv"],
    "compute_path3_table": ["compute", "--inline", "n 3; 1 2; 2 3"],
    "sweep_readme_table": README_SWEEP,
    "sweep_readme_json": README_SWEEP + ["--format", "json"],
    "reconstruct_gstar_table": ["reconstruct", "--preset", "gstar"],
    "reconstruct_g1_table": ["reconstruct", "--preset", "g1"],
    "reconstruct_custom_n3_table": [
        "reconstruct", "--n", "3", "--q", "2.0", "--row", "arc_deg_sum=2.0",
        "--tol", "1e-6",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_output(name, capsys):
    assert main(GOLDEN_COMMANDS[name]) == EXIT_OK
    out = capsys.readouterr().out.encode()
    assert out == (GOLDEN / f"{name}.out").read_bytes()
