"""Flat edge-list format.

Line oriented: an optional header "n <count>" first, then one arc per
line as "<i> <j>", ids 1-based; ids and count are ASCII decimal. "#"
starts a comment anywhere on a line; blank lines are skipped. Without a
header the vertex count is the largest id mentioned. serialize always
writes the header so trailing isolated vertices survive a round trip.

parse_edge_list reads a document in one of two ways. A document whose
first line is the header "n <digits>" or an arc line, and whose other
lines hold only ASCII digits, spaces and tabs, is decoded whole by numpy
and handed to Digraph.from_arrays. Every other document (comments,
"\r", signs, other whitespace, non-ASCII text, "_"), and every one that
the array path refuses, takes the line walk, which reads it line by line
and is the only writer of parse errors and their line numbers.
"""

import re

import numpy as np

from .digraph import Digraph


class EdgeListParseError(ValueError):
    """Malformed edge-list input; line_number is 1-based."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def parse_edge_list(text: str) -> Digraph:
    header = re.match(r"[ \t]*n[ \t]+([0-9]+)[ \t]*(?:\n|\Z)", text)
    body = text[header.end():] if header else text
    if body.isascii() and not body.encode().translate(None, b"0123456789 \t\n"):
        # the -1s close the lines, and each line holds no token or two
        values = np.fromstring(body.replace("\n", " -1 "), dtype=np.int64, sep=" ")
        closes = np.flatnonzero(values < 0)
        counts = np.diff(closes, prepend=-1, append=values.size) - 1
        ids = np.delete(values, closes)
        if ids.size and ((counts == 0) | (counts == 2)).all():
            try:
                # an id too long for int64 reads as its largest value,
                # which no vertex count admits
                n = int(header[1]) if header else int(ids.max())
                return Digraph.from_arrays(n, ids[0::2] - 1, ids[1::2] - 1)
            except ValueError:
                pass  # the line walk names the faulty line
    return _parse_lines(text)


def _parse_lines(text: str) -> Digraph:
    declared_n = None
    arcs = []  # (i, j), already 0-based
    lines = text.splitlines()
    for line_number, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if arcs:
                raise EdgeListParseError(
                    line_number, "header must come before any arc line"
                )
            if declared_n is not None:
                raise EdgeListParseError(line_number, "duplicate header line")
            if len(tokens) != 2:
                raise EdgeListParseError(line_number, "header must be 'n <count>'")
            declared_n = _integer(line_number, tokens[1], "vertex count")
            if declared_n is None:
                raise EdgeListParseError(
                    line_number, f"vertex count is not an integer: {tokens[1]!r}"
                )
            if declared_n < 1:
                raise EdgeListParseError(line_number, "vertex count must be positive")
            header_line = line_number
            continue
        if len(tokens) != 2:
            raise EdgeListParseError(
                line_number, f"expected an arc line '<i> <j>', got {line!r}"
            )
        i, j = (_integer(line_number, token, "arc endpoint") for token in tokens)
        if i is None or j is None:
            raise EdgeListParseError(
                line_number, f"arc endpoints must be integers, got {line!r}"
            )
        if i < 1 or j < 1:
            raise EdgeListParseError(line_number, "vertex ids are 1-based")
        if i == j:
            raise EdgeListParseError(line_number, f"loop arc {i} -> {j} is not allowed")
        if declared_n is not None and max(i, j) > declared_n:
            raise EdgeListParseError(
                line_number,
                f"arc endpoint {max(i, j)} exceeds declared vertex count {declared_n}",
            )
        arcs.append((i - 1, j - 1))

    if not arcs:
        raise EdgeListParseError(max(len(lines), 1), "no arcs in document")
    n = declared_n
    if n is None:
        n = 1 + max(max(i, j) for i, j in arcs)
        header_line = len(lines)
    try:
        return Digraph(n, arcs)
    except ValueError as exc:  # a vertex count too large for int64 arc keys
        raise EdgeListParseError(header_line, str(exc)) from None


def _integer(line_number: int, token: str, what: str):
    """The value of an ASCII decimal token, a sign allowed, else None.
    int() alone would also read 1_0 as 10 and non-ASCII digits, and it
    raises past 4,300 digits: a token of more than 10 digits, leading
    zeros aside, exceeds every vertex count (3,037,000,499 at most) and
    is refused as too large, unconverted."""
    digits = token[1:] if token[0] in "+-" else token
    if not (digits.isascii() and digits.isdigit()):
        return None
    digits = digits.lstrip("0") or "0"
    if len(digits) > 10:
        raise EdgeListParseError(line_number, f"{what} of {len(digits)} digits is too large")
    return -int(digits) if token[0] == "-" else int(digits)


def serialize_edge_list(g: Digraph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{i + 1} {j + 1}" for i, j in g.sorted_arcs())
    return "\n".join(lines) + "\n"
