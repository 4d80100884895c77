"""Flat edge-list format.

Line oriented: an optional header "n <count>" first, then one arc per
line as "<i> <j>", ids 1-based; ids and count are ASCII decimal. "#"
starts a comment anywhere on a line; blank lines are skipped. Without a
header the vertex count is the largest id mentioned. serialize always
writes the header so trailing isolated vertices survive a round trip.
"""

from .digraph import Digraph


class EdgeListParseError(ValueError):
    """Malformed edge-list input; line_number is 1-based."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def parse_edge_list(text: str) -> Digraph:
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
            try:
                # int() alone would also read 1_0 as 10, and non-ASCII digits
                if not tokens[1].isascii() or "_" in tokens[1]:
                    raise ValueError(tokens[1])
                declared_n = int(tokens[1])
            except ValueError:
                raise EdgeListParseError(
                    line_number, f"vertex count is not an integer: {tokens[1]!r}"
                ) from None
            if declared_n < 1:
                raise EdgeListParseError(line_number, "vertex count must be positive")
            continue
        if len(tokens) != 2:
            raise EdgeListParseError(
                line_number, f"expected an arc line '<i> <j>', got {line!r}"
            )
        try:
            if "_" in line or not (tokens[0].isascii() and tokens[1].isascii()):
                raise ValueError(line)
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise EdgeListParseError(
                line_number, f"arc endpoints must be integers, got {line!r}"
            ) from None
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
    return Digraph(n, frozenset(arcs))


def serialize_edge_list(g: Digraph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{i + 1} {j + 1}" for i, j in g.sorted_arcs())
    return "\n".join(lines) + "\n"
