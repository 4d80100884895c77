"""Correctness gates. Each returns a list of problems; an empty list means
the operation's output is correct. An operation that fails its gate
counts as failed in the run's `failed` total."""

import json
import math

Q_TOLERANCE = 1e-9
BOUND_RELATIVE_TOLERANCE = 1e-12
REPLAY_TOLERANCE = 1e-12


def check_compute(returncode, stdout, n, m, q_lo, q_hi, row) -> list:
    """`qbounds compute --format json` output against reference data: q
    within Q_TOLERANCE of the enclosure [q_lo, q_hi], every bound within
    BOUND_RELATIVE_TOLERANCE of the reference row, and the same reason
    for every inapplicable bound."""
    if returncode != 0:
        return [f"compute exited with code {returncode}"]
    try:
        report = json.loads(stdout)
        graph, q = report["graph"], report["spectral"]["q"]
        bounds = {entry["id"]: entry for entry in report["bounds"]}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"compute output is not the expected JSON: {exc!r}"]
    problems = []
    if (graph.get("n"), graph.get("m")) != (n, m):
        problems.append(f"graph size {graph.get('n')}, {graph.get('m')} != {n}, {m}")
    if not (isinstance(q, float) and q_lo - Q_TOLERANCE <= q <= q_hi + Q_TOLERANCE):
        problems.append(f"q = {q!r} outside reference enclosure [{q_lo!r}, {q_hi!r}]")
    if sorted(bounds) != sorted(row):
        problems.append(f"bound ids {sorted(bounds)} != {sorted(row)}")
        return problems
    for bid, (value, reason) in row.items():
        got_value, got_reason = bounds[bid].get("value"), bounds[bid].get("reason")
        if value is None:
            if got_value is not None or got_reason != reason:
                problems.append(
                    f"{bid}: expected inapplicable ({reason!r}), got "
                    f"{got_value!r} ({got_reason!r})"
                )
        elif not isinstance(got_value, float) or (
            abs(got_value - value) > BOUND_RELATIVE_TOLERANCE * abs(value)
        ):
            problems.append(f"{bid}: {got_value!r} != reference {value!r}")
    return problems


def check_sweep(report, graph_count, invariant_count) -> list:
    problems = []
    if not report.passed:
        first = report.failures[0]
        problems.append(
            f"{len(report.failures)} invariant failures, first "
            f"{first.invariant} on {first.label}: {first.detail}"
        )
    if report.graph_count != graph_count:
        problems.append(f"graph_count {report.graph_count} != {graph_count}")
    if report.checks_run != graph_count * invariant_count:
        problems.append(
            f"checks_run {report.checks_run} != {graph_count * invariant_count}"
        )
    return problems


def check_reconstruct(report, candidates, deviation_ceiling,
                      spectral_radius, all_bounds) -> list:
    """No match, every candidate visited, and a nearest miss whose
    deviation replays through spectral_radius and all_bounds and does not
    exceed deviation_ceiling."""
    problems = []
    if report.candidates_visited != candidates:
        problems.append(
            f"candidates_visited {report.candidates_visited} != {candidates}"
        )
    if report.matches != ():
        problems.append(f"expected no match, got {len(report.matches)}")
    miss = report.nearest_miss
    if miss is None:
        problems.append("no nearest miss reported")
        return problems
    target = report.target
    values = {bv.id: bv.value for bv in all_bounds(miss.digraph)}
    deviations = [abs(spectral_radius(miss.digraph).q - target.q)]
    for bid, expected in target.row:
        value = values[bid]
        deviations.append(math.inf if value is None else abs(value - expected))
    replayed = max(deviations)
    if not abs(replayed - miss.max_deviation) <= REPLAY_TOLERANCE:
        problems.append(
            f"nearest-miss deviation {miss.max_deviation!r} replays as {replayed!r}"
        )
    if not miss.max_deviation <= deviation_ceiling:
        problems.append(
            f"nearest-miss deviation {miss.max_deviation!r} above {deviation_ceiling!r}"
        )
    return problems
