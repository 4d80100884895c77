"""Command line interface.

Three subcommands:

  compute      read one digraph (edge-list file, stdin, or --inline) and
               report q, the classification flags, and the full bound row
  sweep        run the invariant suite over a seeded random corpus
  reconstruct  search for digraphs matching a target value row, either a
               bundled preset (gstar, g1, g2) or flag-specified

Exit codes: 0 success, 1 usage error, 2 unreadable or malformed input,
3 invariant or match failure, 4 spectral non-convergence, 5 out of memory.

Vertex ids are 1-based in files and in all rendered output; the Python
API underneath is 0-based. Human tables round to 4 decimals for display;
csv and json carry full precision of the same numbers.
"""

import argparse
import csv
import dataclasses
import io
import json
import signal
import sys

from .bounds import BoundId, ROW_ORDER, all_bounds
from .digraph import classify
from .edgelist import EdgeListParseError, parse_edge_list, serialize_edge_list
from .spectral import ConvergenceError, spectral_radius
from .verify import (
    PRESETS,
    RandomCorpusSpec,
    ReconstructionTarget,
    random_corpus,
    reconstruct,
    sweep,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_FAILURE = 3
EXIT_NO_CONVERGENCE = 4
EXIT_RESOURCE = 5

EQUALITY_TOL = 1e-9


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route through _UsageError
    # instead so usage problems map to exit code 1
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="qbounds", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate one digraph")
    p_compute.add_argument("--input", help="edge-list file, or '-' for stdin")
    p_compute.add_argument(
        "--inline",
        help="edge-list text passed directly; ';' starts a new line",
    )
    p_compute.add_argument("--format", choices=("table", "csv", "json"),
                           default="table")
    p_compute.add_argument("--tol", type=float, default=1e-12)
    p_compute.add_argument("--max-iter", type=int, default=1_000_000)
    p_compute.set_defaults(func=cmd_compute)

    p_sweep = sub.add_parser("sweep", help="invariant sweep over a random corpus")
    p_sweep.add_argument("--count", type=int, default=100)
    p_sweep.add_argument("--n", default="3..12",
                         help="vertex count range 'A..B' (or a single value)")
    p_sweep.add_argument("--p", default="0.2,0.3,0.5",
                         help="comma-separated arc probabilities")
    p_sweep.add_argument("--seed", type=int, default=42)
    p_sweep.add_argument("--format", choices=("table", "json"), default="table")
    p_sweep.set_defaults(func=cmd_sweep)

    p_rec = sub.add_parser("reconstruct", help="search digraphs matching a value row")
    p_rec.add_argument("--preset", choices=sorted(PRESETS))
    p_rec.add_argument("--n", type=int, help="vertex count for a custom target")
    p_rec.add_argument("--q", type=float, help="target spectral radius")
    p_rec.add_argument(
        "--row",
        help="expected bounds as 'name=value,...' (names as in compute output)",
    )
    p_rec.add_argument("--m", type=int, help="fix the arc count")
    p_rec.add_argument(
        "--outdeg-seq",
        help="fix the per-vertex outdegrees, comma-separated",
    )
    p_rec.add_argument("--tol", type=float)
    p_rec.add_argument("--allow-empty", action="store_true",
                       help="exit 0 even when nothing matches")
    p_rec.add_argument("--format", choices=("table", "json"), default="table")
    p_rec.set_defaults(func=cmd_reconstruct)
    return parser


# ---------------------------------------------------------------------------
# compute


def _read_graph(args):
    if (args.input is None) == (args.inline is None):
        raise _UsageError("exactly one of --input or --inline is required")
    if args.inline is not None:
        text = args.inline.replace(";", "\n")
    elif args.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise EdgeListParseError(0, f"cannot read {args.input}: {exc}") from exc
    return parse_edge_list(text)


def _witness_payload(bv):
    """Witness rendered with 1-based ids, tagged by kind."""
    if bv.witness is None:
        return None, None
    if bv.id is BoundId.HONG_YOU:
        return "sorted_position", bv.witness + 1
    if isinstance(bv.witness, tuple):
        return "arc", [bv.witness[0] + 1, bv.witness[1] + 1]
    return "vertex", bv.witness + 1


def _compute_report(g, tol, max_iter):
    outdeg = g.data.outdeg
    flags = classify(g)
    result = spectral_radius(g, tol=tol, max_iter=max_iter)
    bound_entries = []
    for bv in all_bounds(g):
        kind, payload = _witness_payload(bv)
        bound_entries.append(
            {
                "id": bv.id.value,
                "value": bv.value,
                "reason": bv.reason,
                "witness_kind": kind,
                "witness": payload,
                "equals_q": (
                    bv.value is not None and abs(bv.value - result.q) <= EQUALITY_TOL
                ),
            }
        )
    return {
        "graph": {
            "n": g.n,
            "m": g.m,
            "max_outdeg": int(outdeg.max()),
            "min_outdeg": int(outdeg.min()),
            "classification": dataclasses.asdict(flags),
        },
        "spectral": {
            "q": result.q,
            "residual": result.residual,
            "iterations": result.iterations,
            "per_component": [list(item) for item in result.per_component],
        },
        "bounds": bound_entries,
    }


def _render_compute_table(report):
    graph = report["graph"]
    lines = [
        "digraph: n={n} m={m} max_outdeg={max_outdeg} min_outdeg={min_outdeg}".format(
            **graph
        )
    ]
    active = [name for name, on in graph["classification"].items() if on]
    lines.append("classes: " + (", ".join(active) if active else "(none)"))
    spectral = report["spectral"]
    lines.append(
        "q = {:.4f}   (residual {:.2e}, {} iterations)".format(
            spectral["q"], spectral["residual"], spectral["iterations"]
        )
    )
    lines.append("")
    lines.append(f"{'bound':<18} {'value':>9}    witness")
    for entry in report["bounds"]:
        if entry["value"] is None:
            lines.append(
                f"{entry['id']:<18} {'n/a':>9}    ({entry['reason']})"
            )
            continue
        marker = " =" if entry["equals_q"] else "  "
        witness = ""
        if entry["witness_kind"] == "arc":
            witness = "arc {}->{}".format(*entry["witness"])
        elif entry["witness_kind"] == "vertex":
            witness = f"vertex {entry['witness']}"
        elif entry["witness_kind"] == "sorted_position":
            witness = f"sorted position {entry['witness']}"
        lines.append(
            f"{entry['id']:<18} {entry['value']:>9.4f}{marker}  {witness}"
        )
    return "\n".join(lines) + "\n"


def _render_compute_csv(report):
    graph = report["graph"]
    spectral = report["spectral"]
    header = ["n", "m", "max_outdeg", "min_outdeg", "q", "residual", "iterations"]
    values = [
        graph["n"], graph["m"], graph["max_outdeg"], graph["min_outdeg"],
        repr(spectral["q"]), repr(spectral["residual"]), spectral["iterations"],
    ]
    for entry in report["bounds"]:
        header.append(entry["id"])
        values.append("" if entry["value"] is None else repr(entry["value"]))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerow(values)
    return buffer.getvalue()


def cmd_compute(args):
    g = _read_graph(args)
    if not args.tol > 0:
        raise _UsageError(f"--tol must be positive, got {args.tol}")
    if args.max_iter < 1:
        raise _UsageError(f"--max-iter must be at least 1, got {args.max_iter}")
    report = _compute_report(g, args.tol, args.max_iter)
    if args.format == "json":
        print(json.dumps(report, indent=2))
    elif args.format == "csv":
        print(_render_compute_csv(report), end="")
    else:
        print(_render_compute_table(report), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _parse_range(text):
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise _UsageError(
            f"--n expects 'A..B' or a single integer, got {text!r}"
        ) from None
    if lo < 2 or hi < lo:
        raise _UsageError(f"need 2 <= A <= B in --n, got {text!r}")
    return lo, hi


def _parse_probabilities(text):
    try:
        probs = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise _UsageError(f"--p expects comma-separated floats, got {text!r}") from None
    if not probs or any(not 0.0 <= p <= 1.0 for p in probs):
        raise _UsageError("--p values must lie in [0, 1]")
    return probs


def _sweep_payload(report):
    return {
        "description": report.description,
        "graph_count": report.graph_count,
        "invariants": list(report.invariants),
        "checks_run": report.checks_run,
        "passed": report.passed,
        "failures": [dataclasses.asdict(f) for f in report.failures],
    }


def cmd_sweep(args):
    if args.count < 0:
        raise _UsageError("--count must be nonnegative")
    n_min, n_max = _parse_range(args.n)
    probs = _parse_probabilities(args.p)
    spec = RandomCorpusSpec(
        count=args.count, n_min=n_min, n_max=n_max,
        arc_probabilities=probs, seed=args.seed,
    )
    corpus = random_corpus(spec)
    description = (
        f"random corpus: count={args.count} n={n_min}..{n_max} "
        f"p={','.join(str(p) for p in probs)} seed={args.seed}"
    )
    report = sweep(corpus, description=description)
    if args.format == "json":
        print(json.dumps(_sweep_payload(report), indent=2))
    else:
        print(report.description)
        if args.count == 0:
            print("warning: empty corpus, nothing was checked")
        for name in report.invariants:
            failed = [f for f in report.failures if f.invariant == name]
            status = "PASS" if not failed else f"FAIL ({len(failed)} failures)"
            print(f"{name:<24} {status}")
        for failure in report.failures:
            print()
            print(f"counterexample [{failure.invariant}] {failure.label}")
            print(f"  {failure.detail}")
            for line in failure.edge_list.rstrip("\n").splitlines():
                print(f"  {line}")
        print(f"checked {report.graph_count} graphs, {report.checks_run} checks")
    return EXIT_OK if report.passed else EXIT_FAILURE


# ---------------------------------------------------------------------------
# reconstruct


_ROW_KEYS = {bid.value: bid for bid in ROW_ORDER}


def _parse_row(text):
    row = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, value = chunk.partition("=")
        name = name.strip()
        if name not in _ROW_KEYS:
            raise _UsageError(
                f"unknown bound {name!r} in --row; valid names: "
                + ", ".join(sorted(_ROW_KEYS))
            )
        try:
            row[_ROW_KEYS[name]] = float(value)
        except ValueError:
            raise _UsageError(f"bad value for {name!r} in --row: {value!r}") from None
    return row


def _build_target(args):
    if args.preset:
        target = PRESETS[args.preset]
        overrides = {}
        if args.m is not None:
            overrides["m"] = args.m
        if args.outdeg_seq is not None:
            overrides["outdeg_sequence"] = _parse_outdeg_seq(args.outdeg_seq)
        if args.tol is not None:
            overrides["tolerance"] = args.tol
        return dataclasses.replace(target, **overrides) if overrides else target
    if args.n is None or args.q is None:
        raise _UsageError("a custom target needs --n and --q (or use --preset)")
    return ReconstructionTarget(
        n=args.n,
        q=args.q,
        row=_parse_row(args.row) if args.row else {},
        m=args.m,
        tolerance=args.tol if args.tol is not None else 5e-4,
        outdeg_sequence=(
            _parse_outdeg_seq(args.outdeg_seq) if args.outdeg_seq else None
        ),
        name="custom",
    )


def _parse_outdeg_seq(text):
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise _UsageError(
            f"--outdeg-seq expects comma-separated integers, got {text!r}"
        ) from None


def _match_payload(match):
    return {
        "q": match.q,
        "max_deviation": match.max_deviation,
        "edge_list": serialize_edge_list(match.digraph),
        "row": [
            {"id": bv.id.value, "value": bv.value, "reason": bv.reason}
            for bv in match.row
        ],
    }


def _deviation_lines(target, match):
    expected = dict(target.row)
    lines = [f"  {'column':<18} {'target':>10} {'found':>14} {'deviation':>12}"]
    lines.append(
        f"  {'q':<18} {target.q:>10.4f} {match.q:>14.6f} "
        f"{abs(match.q - target.q):>12.2e}"
    )
    for bv in match.row:
        if bv.id not in expected:
            continue
        found = "n/a" if bv.value is None else f"{bv.value:.6f}"
        dev = (
            "inf" if bv.value is None
            else f"{abs(bv.value - expected[bv.id]):.2e}"
        )
        lines.append(
            f"  {bv.id.value:<18} {expected[bv.id]:>10.4f} {found:>14} {dev:>12}"
        )
    return lines


def cmd_reconstruct(args):
    try:
        target = _build_target(args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    try:
        report = reconstruct(target)
    except ValueError as exc:
        raise _UsageError(
            f"{exc}\nhint: pass --m (and optionally --outdeg-seq) to narrow "
            f"the search space"
        ) from exc
    if args.format == "json":
        payload = {
            "target": target.name,
            "candidates_visited": report.candidates_visited,
            "matches": [_match_payload(m) for m in report.matches],
            "nearest_miss": (
                _match_payload(report.nearest_miss) if report.nearest_miss else None
            ),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"target {target.name or 'custom'}: visited "
            f"{report.candidates_visited} candidates, "
            f"{len(report.matches)} match(es) up to isomorphism"
        )
        for k, match in enumerate(report.matches):
            print()
            print(f"match {k}: q = {match.q:.6f}, max deviation = "
                  f"{match.max_deviation:.2e}")
            for line in serialize_edge_list(match.digraph).rstrip("\n").splitlines():
                print(f"  {line}")
        if not report.matches:
            print()
            print("no candidate reproduced the target row; the stored row and")
            print("the search space disagree (reference-row discrepancy)")
            if report.nearest_miss is not None:
                print(
                    f"nearest candidate (max deviation "
                    f"{report.nearest_miss.max_deviation:.4e}):"
                )
                for line in _deviation_lines(target, report.nearest_miss):
                    print(line)
                for line in serialize_edge_list(
                    report.nearest_miss.digraph
                ).rstrip("\n").splitlines():
                    print(f"  {line}")
    if report.matches or args.allow_empty:
        return EXIT_OK
    return EXIT_FAILURE


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EdgeListParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConvergenceError as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except MemoryError as exc:
        print(f"resource error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE


def entrypoint():
    # Python ignores SIGPIPE, so a closed stdout (qbounds ... | head)
    # would raise BrokenPipeError; with the default disposition the
    # process ends the way cat does, silently, by the signal.
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
