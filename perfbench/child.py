"""Fresh-interpreter side of the benchmark.

  child.py setup <workload> <input>
      import qbounds and load the workload's prepared input, nothing else;
      the parent times the whole process as one set-up sample.
  child.py corpus <seed> <output>
      write the sweep_corpus input for <seed> to <output>, so that the
      process that runs sweep() never holds the generator's copies.
  child.py compute <input> <stats-out> <trace 0|1>
      run `qbounds compute --input <input> --format json` through
      qbounds.cli.main, then write this process's peak RSS (and, traced,
      the per-layer counts) to <stats-out> as JSON.

qbounds is imported from the src/ directory next to this one, never from
an installed copy.
"""

import dataclasses
import json
import resource
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _import_qbounds():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qbounds

    if Path(qbounds.__file__).resolve().parent != SRC / "qbounds":
        raise ImportError(f"qbounds imported from {qbounds.__file__}, not {SRC}")
    return qbounds


# sweep_corpus: one fixed random_corpus, each graph relabeled by a
# permutation drawn from the run seed. A fresh corpus per seed would change
# the work itself (arc totals differ by several percent between corpus
# seeds); relabeling changes the inputs but not the work.
SWEEP_GRAPHS = 600
SWEEP_CORPUS_SEED = 0


def write_corpus(seed, path):
    import numpy as np

    qbounds = _import_qbounds()
    spec = qbounds.RandomCorpusSpec(
        count=SWEEP_GRAPHS, n_min=3, n_max=60,
        arc_probabilities=(0.02, 0.05, 0.1, 0.5), seed=SWEEP_CORPUS_SEED,
    )
    rng = np.random.default_rng(seed)
    corpus = []
    for label, g in qbounds.random_corpus(spec):
        relabel = rng.permutation(g.n).tolist()
        arcs = sorted((relabel[i], relabel[j]) for i, j in g.arcs)
        corpus.append([label, g.n, arcs])
    Path(path).write_text(json.dumps(corpus), encoding="utf-8")


def load_input(workload, path):
    """The workload's prepared input as the operation takes it: the
    sweep corpus, the reconstruction target, or the edge-list text."""
    qbounds = _import_qbounds()
    import qbounds.cli  # noqa: F401  (the compute workloads enter here)

    text = Path(path).read_text(encoding="utf-8")
    if workload == "sweep_corpus":
        corpus = [
            (label, qbounds.Digraph(n, frozenset(map(tuple, arcs))))
            for label, n, arcs in json.loads(text)
        ]
        if not corpus:
            raise ValueError("empty corpus")
        return corpus
    if workload == "reconstruct_g2":
        spec = json.loads(text)
        return dataclasses.replace(
            qbounds.PRESETS[spec["preset"]],
            outdeg_sequence=tuple(spec["outdeg_sequence"]),
        )
    if not text:
        raise ValueError(f"empty input {path}")
    return text


def compute(path, stats_out, traced):
    _import_qbounds()
    from qbounds import cli

    argv = ["compute", "--input", path, "--format", "json"]
    layers = None
    if traced:
        from tracer import Tracer  # this script's directory is on sys.path

        with Tracer() as tracer:
            code = cli.main(argv)
        layers = tracer.snapshot()
    else:
        code = cli.main(argv)
    sys.stdout.flush()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(stats_out).write_text(
        json.dumps({"peak_rss_mb": peak_kib / 1024, "trace": layers}),
        encoding="utf-8",
    )
    return code


def main(argv):
    if len(argv) == 3 and argv[0] == "setup":
        load_input(argv[1], argv[2])
        return 0
    if len(argv) == 3 and argv[0] == "corpus":
        write_corpus(int(argv[1]), argv[2])
        return 0
    if len(argv) == 4 and argv[0] == "compute" and argv[3] in ("0", "1"):
        return compute(argv[1], argv[2], argv[3] == "1")
    print(__doc__, file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
