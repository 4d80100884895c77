"""Search for a 6-vertex digraph matching the bundled g2 value row.

The row alone pins down more structure than is obvious: the arc-max of
d_i + d_j equals 5 while the extreme-degree bound evaluates to 5.5 only
for max outdegree 3 and min outdegree 1 with 12 arcs, and the sorted
outdegree chain bound hits 3 + sqrt(3) only for the multiset
(3, 2, 2, 2, 2, 1).  Fixing that sequence cuts the candidate space from
2^30 to C(5,3) * C(5,2)^4 * C(5,1) = 500_000, which takes about 0.3 s on
one core of a shared 2-core x86-64 machine.

Usage: python3 scripts/find_g2.py [--all]

Prints every match (up to isomorphism) as an edge list.  Redirect the
output or copy the first block into a file to feed `qbounds compute`.
The summary on stderr gives the elapsed time and how many candidates
left the search at each stage.
"""

import argparse
import dataclasses
import sys
import time

from qbounds import PRESETS, reconstruct, serialize_edge_list

OUTDEG_SEQUENCE = (3, 2, 2, 2, 2, 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--all", action="store_true",
                        help="print every match, not just the first")
    args = parser.parse_args()

    target = dataclasses.replace(PRESETS["g2"], outdeg_sequence=OUTDEG_SEQUENCE)
    start = time.perf_counter()
    report = reconstruct(target)
    elapsed = time.perf_counter() - start

    print(
        f"visited {report.candidates_visited} candidates in {elapsed:.1f} s, "
        f"{len(report.matches)} match(es) up to isomorphism",
        file=sys.stderr,
    )
    for stage, count in dataclasses.asdict(report.stages).items():
        print(f"  {stage:<22} {count}", file=sys.stderr)
    if not report.matches:
        print("no match; nearest miss:", file=sys.stderr)
        if report.nearest_miss is not None:
            print(f"  max deviation {report.nearest_miss.max_deviation:.3e}",
                  file=sys.stderr)
            print(serialize_edge_list(report.nearest_miss.digraph),
                  file=sys.stderr, end="")
        return 1

    shown = report.matches if args.all else report.matches[:1]
    for k, match in enumerate(shown):
        if k:
            print()
        print(f"# q = {match.q!r}, max deviation = {match.max_deviation:.3e}")
        print(serialize_edge_list(match.digraph), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
