import io
import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qbounds.cli as cli
import qbounds.edgelist as edgelist
from qbounds import (
    INVARIANTS,
    RandomCorpusSpec,
    from_arc_list,
    gen_directed_cycle,
    random_corpus,
)
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


def test_parse_reports_the_first_faulty_line():
    # the header comes first, so an arc's range is checked at its own line
    message = "line 2: arc endpoint 5 exceeds declared vertex count 3"
    with pytest.raises(EdgeListParseError, match=message):
        parse_edge_list("n 3\n1 5\nfoo bar baz\n")


def test_parse_rejects_late_or_duplicate_header():
    with pytest.raises(EdgeListParseError, match="header must come before"):
        parse_edge_list("1 2\nn 3\n")
    with pytest.raises(EdgeListParseError, match="duplicate header"):
        parse_edge_list("n 3\nn 3\n1 2\n")


@pytest.mark.parametrize("header, message", [
    ("n", "header must be 'n <count>'"),
    ("n 3 4", "header must be 'n <count>'"),
    ("n x", "vertex count is not an integer: 'x'"),
    # int() takes both, but only ASCII decimal tokens are counts here
    ("n 1_0", "vertex count is not an integer: '1_0'"),
    ("n \u0663", "vertex count is not an integer: '\u0663'"),
    ("n 0", "vertex count must be positive"),
    ("n 3037000500", "vertex count 3037000500 is too large"),
])
def test_parse_rejects_malformed_header(header, message):
    with pytest.raises(EdgeListParseError, match=f"line 1: {re.escape(message)}"):
        parse_edge_list(f"{header}\n1 2\n")


@pytest.mark.parametrize("text", ["n " + "1" * 5000 + "\n1 2\n", "1 " + "2" * 5000 + "\n"],
                         ids=["count", "endpoint"])
def test_parse_refuses_long_digit_strings_as_too_large(text):
    # int() raises past 4,300 digits; the message counts them instead
    with pytest.raises(EdgeListParseError, match="^line 1: .* of 5000 digits is too large$") as exc:
        parse_edge_list(text)
    assert len(str(exc.value)) < 200


def test_parse_rejects_garbage_tokens():
    with pytest.raises(EdgeListParseError, match="expected an arc line"):
        parse_edge_list("1 2 3\n")
    with pytest.raises(EdgeListParseError, match="must be integers"):
        parse_edge_list("a b\n")
    # int() reads 1_0 as 10 and the Arabic-Indic digit as 3, but only ASCII
    # decimal tokens are integers here
    for line in ("1_0 2", "1 \u0663"):
        with pytest.raises(EdgeListParseError, match="line 2: arc endpoints must be integers"):
            parse_edge_list(f"n 11\n{line}\n")


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


# plain documents take the array path; the rest mix in everything that
# sends a document, or one of its lines, to the line walk
_PLAIN = [str(k) for k in range(1, 13)] + ["007", "0"]
_PLAIN_IDS = st.sampled_from(_PLAIN)
_IDS = st.sampled_from(_PLAIN * 2 + [
    "+2", "-1", "1_0", "\u0663", "2\u0663", "3037000499", "3037000500", "9" * 19,
    "4611686018427387904", "9223372036854775807", "9223372036854775808",
    "1" + "0" * 19, "18446744073709551617",
])
_PLAIN_GAPS = st.sampled_from([" ", "  ", "\t", " \t"])
_GAPS = st.one_of(_PLAIN_GAPS, st.sampled_from(["\x0b", "\x0c", "\x1c", "\u00a0"]))


@st.composite
def _edge_list_documents(draw):
    plain = draw(st.booleans())
    ids, gaps = (_PLAIN_IDS, _PLAIN_GAPS) if plain else (_IDS, _GAPS)
    kinds = ["arc"] * 6 + ["blank", "odd"] + ([] if plain else ["comment", "late n"])
    edges = st.sampled_from(["", "", " ", "\t", "  \t "])
    lines = []
    if draw(st.booleans()):
        lines.append(draw(edges) + "n" + draw(gaps) + draw(ids) + draw(edges))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind == "arc":
            line = draw(ids) + draw(gaps) + draw(ids)
        elif kind == "blank":
            line = ""
        elif kind == "comment":
            line = draw(st.sampled_from(["# c", "1 2 # c", "# a\x0b3 3"]))
        elif kind == "odd":
            line = " ".join(draw(st.lists(ids, min_size=1, max_size=3)))
        else:
            line = "n " + draw(ids)
        lines.append(draw(edges) + line + draw(edges))
    ends = st.just("\n") if plain else st.sampled_from(["\n"] * 6 + ["\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _parsed(parse, text):
    try:
        return parse(text)
    except EdgeListParseError as exc:
        return str(exc), exc.line_number


@settings(max_examples=300)
@given(_edge_list_documents())
@example("1\n2 3 4\n")  # six tokens, but no line holds two
@example("n 3\n1 2\n3 1\n3 5\n")
@example("1 2\n2 18446744073709551617\n")
def test_array_path_agrees_with_line_walk(text):
    assert _parsed(parse_edge_list, text) == _parsed(edgelist._parse_lines, text)


def test_plain_documents_take_the_array_path(monkeypatch):
    texts = ("n 3\n1 2\n2 3\n3 1\n", "1 2\n2 3\n3 1", " n\t5 \n\n1 2 \n\t2  1\n\n",
             "n 2\n1 2\n1 2\n", "0001 2\n2 1\n")
    walked = [edgelist._parse_lines(text) for text in texts]

    def refuse(text):
        raise AssertionError(f"{text!r} reached the line walk")

    monkeypatch.setattr(edgelist, "_parse_lines", refuse)
    assert [parse_edge_list(text) for text in texts] == walked


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


def test_compute_non_utf8_file_is_parse_error(tmp_path, capsys):
    # a byte that is not UTF-8 raised UnicodeDecodeError out of main; it
    # is a parse error naming the line of the byte, as on stdin
    f = tmp_path / "bad.edges"
    f.write_bytes(b"n 3\n1 2\n2 3\n3 1\n\xff\n")
    assert main(["compute", "--input", str(f)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 5:") and "0xff" in err


def test_compute_non_utf8_stdin_is_parse_error(monkeypatch, capsys):
    # a strict UTF-8 stdin (as under PYTHONIOENCODING=utf-8:strict) raised
    # UnicodeDecodeError out of main; its bytes are read as a file's are
    def stdin(data):
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="strict")

    monkeypatch.setattr("sys.stdin", stdin(b"n 3\n1 2\n2 3\n3 1\n# \xff\n"))
    assert main(["compute", "--input", "-"]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("parse error: line 5:") and "0xff" in err
    monkeypatch.setattr("sys.stdin", stdin(STAR.encode()))
    assert main(["compute", "--input", "-"]) == EXIT_OK
    assert "q = 4.0000" in capsys.readouterr().out


def test_compute_malformed_input(capsys):
    assert main(["compute", "--inline", "n 3; 1 1"]) == EXIT_PARSE
    assert "loop arc" in capsys.readouterr().err


def test_compute_bad_tol_and_iter(capsys):
    assert main(["compute", "--inline", "1 2; 2 1", "--tol", "-1"]) == EXIT_USAGE
    assert main(["compute", "--inline", "1 2; 2 1", "--max-iter", "0"]) == EXIT_USAGE


def test_compute_rejects_infinite_tol(capsys):
    # without the check q would be 3.0 after one step; it is 2.618...
    argv = ["compute", "--inline", "n 4; 1 2; 2 3; 3 4; 4 1; 1 3", "--format", "csv"]
    assert main(argv + ["--tol", "inf"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tol must be positive" in captured.err


def test_compute_non_convergence_exit(capsys):
    # the star needs two matvecs to close its enclosure
    rc = main(["compute", "--inline", STAR.replace("\n", ";"), "--max-iter", "1"])
    assert rc == EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("no convergence: ")
    # the best Collatz-Wielandt enclosure reached is part of the report
    assert "best enclosure [2.0, 6.0]" in err


def test_compute_non_convergence_prints_no_nan(tmp_path):
    # a bidirected K4 whose vertex 1 starts a 600-vertex chain back to
    # vertex 2: the iterate underflows to 0 along the chain, and the run
    # still reports a finite enclosure, with no numpy warning on stderr
    k4 = [f"{i} {j}" for i in range(1, 5) for j in range(1, 5) if i != j]
    chain = ["1 5"] + [f"{v} {v + 1}" for v in range(5, 604)] + ["604 2"]
    path = tmp_path / "k4_chain.edges"
    path.write_text("n 604\n" + "\n".join(k4 + chain) + "\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "qbounds.cli", "compute", "--input", str(path),
            "--max-iter", "2000"]
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == EXIT_NO_CONVERGENCE
    assert "best enclosure [4.0, 8.0]" in done.stderr
    assert "nan" not in done.stderr and "RuntimeWarning" not in done.stderr


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
    capsys.readouterr()
    _assert_one_usage_line(capsys, ["sweep", "--n", "3..5..7"],
                           "--n expects 'A..B' or a single integer, got '3..5..7'")


def test_sweep_table_prints_each_counterexample(monkeypatch, capsys):
    def always_unhappy(s):
        return [f"synthetic failure for digraph {k}" for k in range(len(s.cols))]

    monkeypatch.setitem(INVARIANTS, "always_unhappy", always_unhappy)
    rc = main(["sweep", "--count", "2", "--n", "3..3", "--p", "0", "--seed", "1"])
    assert rc == EXIT_FAILURE
    out = capsys.readouterr().out
    assert f"{'always_unhappy':<24} FAIL (2 failures)\n" in out
    corpus = random_corpus(RandomCorpusSpec(count=2, n_min=3, n_max=3,
                                            arc_probabilities=(0.0,), seed=1))
    for k, (label, g) in enumerate(corpus):
        edges = "".join(f"  {line}\n" for line in serialize_edge_list(g).splitlines())
        assert (f"\ncounterexample [always_unhappy] {label}\n"
                f"  synthetic failure for digraph {k}\n{edges}") in out
    assert out.endswith("checked 2 graphs, 20 checks\n")


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
    _assert_one_usage_line(
        capsys, ["reconstruct", "--n", "3", "--q", "2", "--row", "arc_deg_sum=x"],
        "bad value for 'arc_deg_sum' in --row: 'x'",
    )


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


def test_reconstruct_rejects_a_bound_named_twice_in_row(capsys):
    # before, the last value was searched for and the run exited 3
    _assert_one_usage_line(
        capsys,
        ["reconstruct", "--n", "3", "--q", "2",
         "--row", "arc_deg_sum=2,arc_deg_sum=3"],
        "--row names arc_deg_sum more than once",
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


@pytest.mark.parametrize("flags", [
    ["--q", "99", "--n", "5", "--row", "arc_deg_sum=1"],
    ["--q", "5"],
])
def test_reconstruct_preset_rejects_custom_target_flags(capsys, flags):
    _assert_one_usage_line(
        capsys, ["reconstruct", "--preset", "g1", *flags],
        "cannot be combined with --preset",
    )


def test_reconstruct_preset_takes_narrowing_flags(capsys):
    assert main(["reconstruct", "--preset", "gstar"]) == EXIT_OK
    plain = capsys.readouterr().out
    # gstar already fixes m = 9 and its tolerance is 5e-4
    rc = main(["reconstruct", "--preset", "gstar", "--m", "9", "--tol", "5e-4"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == plain


def test_reconstruct_refuses_a_space_over_the_budget_at_once(capsys):
    # C(40 * 39, 5) candidates: counted, not enumerated
    assert main(["reconstruct", "--n", "40", "--q", "3", "--m", "5"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 2
    assert "76,498,888,674,312 candidates" in err[0]
    assert "not desk scale" in err[0]
    assert err[1].startswith("hint: ")


def test_reconstruct_refuses_more_than_62_vertices_without_a_hint(capsys):
    # n = 63 does not fit the search, and no narrowing of the space helps,
    # whether it holds 3,906 candidates or 2^3906 - 1
    for flags in (["--m", "1"], []):
        _assert_one_usage_line(
            capsys, ["reconstruct", "--n", "63", "--q", "3", *flags],
            "n = 63 is above the search limit of 62 vertices",
        )


def test_reconstruct_max_candidates_sets_the_budget(capsys):
    # the n = 3 space holds 2^6 - 1 = 63 candidates
    argv = ["reconstruct", "--n", "3", "--q", "2.0", "--row", "arc_deg_sum=2.0",
            "--tol", "1e-6"]
    assert main(argv + ["--max-candidates", "62"]) == EXIT_USAGE
    assert "63 candidates exceed the budget of 62" in capsys.readouterr().err
    assert main(argv) == EXIT_OK
    plain = capsys.readouterr().out
    assert main(argv + ["--max-candidates", "63"]) == EXIT_OK
    assert capsys.readouterr().out == plain
    # a nonpositive budget is a usage error with no narrowing hint
    _assert_one_usage_line(capsys, ["reconstruct", "--preset", "g1",
                                    "--max-candidates", "-3"],
                           "max_candidates must be positive, got -3")


def test_reconstruct_narrowing_hint_only_on_refusal(capsys):
    assert main(["reconstruct", "--preset", "g2"]) == EXIT_USAGE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert err[1].startswith("hint: pass --m")
    # a bad constraint is a bad target, not a space too large to search
    for flags, fragment in [
        (["--n", "3", "--q", "2", "--outdeg-seq", "1,1"], "length"),
        (["--n", "3", "--q", "2", "--m", "99"], "m must lie in [1, 6]"),
        (["--preset", "g2", "--m", "99"], "m must lie in [1, 30]"),
    ]:
        _assert_one_usage_line(capsys, ["reconstruct", *flags], fragment)


# --- golden outputs -----------------------------------------------------------------
#
# Each file under data/golden holds the exact stdout of one command. Most
# commands print no number that depends on floating-point summation
# order: regular digraphs, where q = 2d after one matvec with residual 0,
# reducible digraphs made of size-one blocks, and the tables and pass
# counts of sweep and reconstruct. The g2 candidate and the G* search
# print q to the last bit, so they pin the solver's summation order.

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
    "compute_g2_candidate_json": [
        "compute", "--input", str(Path(__file__).parent / "data" / "g2_candidate.edges"),
        "--format", "json",
    ],
    "sweep_readme_table": README_SWEEP,
    "sweep_readme_json": README_SWEEP + ["--format", "json"],
    "reconstruct_gstar_table": ["reconstruct", "--preset", "gstar"],
    "reconstruct_gstar_json": ["reconstruct", "--preset", "gstar", "--format", "json"],
    "reconstruct_g1_table": ["reconstruct", "--preset", "g1"],
    "reconstruct_custom_n3_table": [
        "reconstruct", "--n", "3", "--q", "2.0", "--row", "arc_deg_sum=2.0",
        "--tol", "1e-6",
    ],
    # a nearest miss whose table prints bound-row columns
    "reconstruct_nearest_row_table": [
        "reconstruct", "--n", "3", "--q", "2.3", "--row",
        "arc_deg_sum=4.0,deg_extremes=3.0", "--tol", "1e-6", "--allow-empty",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_golden_output(name, capsys):
    assert main(GOLDEN_COMMANDS[name]) == EXIT_OK
    out = capsys.readouterr().out.encode()
    assert out == (GOLDEN / f"{name}.out").read_bytes()
