"""End-to-end and per-layer benchmark for qbounds.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in a closed loop with one client: one operation at a
time, the next one starting when the previous one has finished, until S
seconds have passed (at least one whole operation). Every operation's
output goes through its workload's correctness gate (gates.py).

Workloads (the seed only shapes inputs; qbounds never sees it):

  reconstruct_g2    reconstruct() on the g2 preset with outdegree sequence
                    (3,2,2,2,2,1): 500,000 candidates through the
                    early-reject prefilter, almost all time in digraph and
                    bounds. One operation takes longer than typical --seconds
                    values; the input is fixed, the seed does not change it.
  sweep_corpus      sweep() over random_corpus(600 graphs, n = 3..60,
                    p in {0.02, 0.05, 0.1, 0.5}, seed): all nine invariants
                    on medium graphs.
  compute_sparse    a fresh process per operation runs
                    cli.main(["compute", "--input", FILE, "--format", "json"])
                    on a Hamiltonian cycle plus uniform arcs, n = 1500,
                    about 10,500 arcs, relabeled by the seed: dense build_q
                    and matvec cost, and the memory case.
  compute_periodic  the same cold compute on a seeded relabeling of a
                    directed 400-cycle plus one chord: tiny graph data but a
                    spectral gap of 1 - O(1/n^2), so power iterations dominate.

Set-up samples (a fresh interpreter that imports qbounds and loads the
prepared input) are interleaved with the loop: half of SETUP_SAMPLES
before the first operation, one after each operation, and the rest after
the last, so that they span the run as the operations do.

Output: human-readable lines (machine and input facts, every metric with
its unit, the per-layer table when traced), then one JSON line
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones (setup_s, wall_s, items_per_s, peak_rss_mb);
with --trace 1 they are the per-layer ones, from one extra operation run
under tracer.Tracer after the untraced loop. Untraced operations run with
no wrapper installed.
"""

import os

# Pin the BLAS pools before numpy loads; children inherit the setting.
# One operation at a time on one thread keeps a small shared machine quiet.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
CHILD = HERE / "child.py"

SETUP_SAMPLES = 16
CHILD_TIMEOUT_S = 170

G2_OUTDEG_SEQUENCE = (3, 2, 2, 2, 2, 1)
G2_CANDIDATES = 500_000
# nearest-miss deviation of the early-reject heuristic at the seed commit;
# an exact nearest miss can only be closer
G2_DEVIATION_CEILING = 0.2876087064293973
SWEEP_INVARIANTS = 9
SPARSE_N = 1500
SPARSE_EXTRA_ARCS = 9_000
SPARSE_INSTANCE_SEED = 3
PERIODIC_N = 400

# Entry points report self time only: each is called once per operation.
ENTRY_LAYERS = ("verify.reconstruct", "verify.sweep", "cli.main")


@dataclasses.dataclass
class Outcome:
    wall_s: float
    problems: list
    peak_rss_mb: float | None = None  # cold-process operations only
    trace: dict | None = None  # Tracer.snapshot() of a traced operation


def _child_env():
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    return env


def _write_edge_list(path, n, src, dst):
    order = sorted(zip(src.tolist(), dst.tolist()))
    lines = [f"n {n}"] + [f"{i + 1} {j + 1}" for i, j in order]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class InProcessWorkload:
    """Operations that call qbounds in this process."""

    def run(self, traced):
        from tracer import Tracer

        tracer = Tracer() if traced else None
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            result = self.operation()
            wall = time.perf_counter() - start
        return Outcome(wall, self.check(result),
                       trace=tracer.snapshot() if tracer else None)


class ReconstructG2(InProcessWorkload):
    name = "reconstruct_g2"

    def __init__(self, seed, workdir):
        import child

        self.item_count = math.prod(math.comb(5, d) for d in G2_OUTDEG_SEQUENCE)
        self.facts = {"n": 6, "m": sum(G2_OUTDEG_SEQUENCE),
                      "candidates": self.item_count}
        self.input_path = workdir / "g2_target.json"
        self.input_path.write_text(json.dumps(
            {"preset": "g2", "outdeg_sequence": G2_OUTDEG_SEQUENCE}))
        self.target = child.load_input(self.name, self.input_path)

    def operation(self):
        from qbounds import verify

        return verify.reconstruct(self.target)

    def check(self, report):
        import gates
        from qbounds import bounds, spectral

        return gates.check_reconstruct(
            report, G2_CANDIDATES, G2_DEVIATION_CEILING,
            spectral.spectral_radius, bounds.all_bounds,
        )


class SweepCorpus(InProcessWorkload):
    """sweep() over the corpus of child.write_corpus. A child process
    generates it, and this process loads it as a set-up sample does, so
    that peak_rss_mb covers the loaded input and sweep() only."""

    name = "sweep_corpus"

    def __init__(self, seed, workdir):
        import child

        self.input_path = workdir / "corpus.json"
        subprocess.run(
            [sys.executable, "-s", str(CHILD), "corpus", str(seed),
             str(self.input_path)],
            check=True, timeout=CHILD_TIMEOUT_S, env=_child_env(), cwd=ROOT)
        self.corpus = child.load_input(self.name, self.input_path)
        self.item_count = len(self.corpus)
        sizes = [g.n for _, g in self.corpus]
        self.facts = {"graphs": len(self.corpus), "n_min": min(sizes),
                      "n_max": max(sizes), "n_total": sum(sizes),
                      "m_total": sum(g.m for _, g in self.corpus)}

    def operation(self):
        from qbounds import verify

        return verify.sweep(self.corpus)

    def check(self, report):
        import gates

        import child

        return gates.check_sweep(report, child.SWEEP_GRAPHS, SWEEP_INVARIANTS)


class ColdCompute:
    """`qbounds compute` in a fresh interpreter per operation, checked
    against reference.py, which does not use qbounds. The input is
    base_graph() with vertices relabeled by a seeded permutation."""

    item_count = 1

    def __init__(self, seed, workdir):
        import numpy as np
        import reference

        n, src, dst = self.base_graph()
        label = np.random.default_rng(seed).permutation(n)
        src, dst = label[src], label[dst]
        self.n, self.m = n, len(src)
        self.facts = {"n": n, "m": self.m}
        self.input_path = workdir / f"{self.name}.edges"
        _write_edge_list(self.input_path, n, src, dst)
        self.q_lo, self.q_hi, self.facts["reference_iterations"] = (
            reference.q_enclosure(n, src, dst)
        )
        self.row = reference.bound_row(n, src, dst)
        self.stats_path = workdir / "child_stats.json"

    def run(self, traced):
        import gates

        command = [sys.executable, "-s", str(CHILD), "compute",
                   str(self.input_path), str(self.stats_path), str(int(traced))]
        self.stats_path.unlink(missing_ok=True)
        start = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, env=_child_env(), cwd=ROOT)
        wall = time.perf_counter() - start
        problems = gates.check_compute(proc.returncode, proc.stdout, self.n,
                                       self.m, self.q_lo, self.q_hi, self.row)
        if proc.returncode != 0:
            problems.append(proc.stderr.strip()[-2000:])
            return Outcome(wall, problems)
        stats = json.loads(self.stats_path.read_text())
        return Outcome(wall, problems, stats["peak_rss_mb"], stats["trace"])


class ComputeSparse(ColdCompute):
    name = "compute_sparse"

    @staticmethod
    def base_graph():
        """Hamiltonian cycle plus SPARSE_EXTRA_ARCS distinct uniform arcs.

        Power-iteration counts on such graphs are heavy tailed (instance
        seeds 0..11 need 304 to 6,159 matvecs: ties among the largest
        outdegrees close the spectral gap), so every run uses this one
        typical instance (653 matvecs) and the run seed only relabels it.
        n = 1500 keeps the dense Q (18 MB) in cache: at n = 3000 (72 MB)
        every matvec streams from DRAM, and on a shared 2-vCPU VM its time
        varied by 20% between samples against 6% for in-cache work.
        """
        import numpy as np

        rng = np.random.default_rng(SPARSE_INSTANCE_SEED)
        n = SPARSE_N
        perm = rng.permutation(n)
        # distinct ordered pairs i != j, coded as i * (n - 1) + (j - (j > i))
        codes = rng.choice(n * (n - 1), size=SPARSE_EXTRA_ARCS, replace=False)
        i, k = np.divmod(codes, n - 1)
        j = k + (k >= i)
        pairs = np.unique(np.concatenate([
            np.stack([perm, np.roll(perm, -1)], axis=1),
            np.stack([i, j], axis=1),
        ]), axis=0)
        return n, pairs[:, 0], pairs[:, 1]


class ComputePeriodic(ColdCompute):
    name = "compute_periodic"

    @staticmethod
    def base_graph():
        """Directed cycle 1 -> 2 -> ... -> n -> 1 plus the chord 1 -> 3."""
        import numpy as np

        n = PERIODIC_N
        src = np.concatenate([np.arange(n), [0]])
        dst = np.concatenate([(np.arange(n) + 1) % n, [2]])
        return n, src, dst


WORKLOADS = {cls.name: cls for cls in
             (ReconstructG2, SweepCorpus, ComputeSparse, ComputePeriodic)}


def attempt(workload, traced):
    """One operation; an exception is a failed operation, not a crash."""
    start = time.perf_counter()
    try:
        return workload.run(traced)
    except Exception:
        traceback.print_exc()
        return Outcome(time.perf_counter() - start, ["operation raised"])


def setup_sample(workload):
    """Wall time of one fresh interpreter that imports qbounds and loads
    the prepared input."""
    command = [sys.executable, "-s", str(CHILD), "setup", workload.name,
               str(workload.input_path)]
    start = time.perf_counter()
    proc = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, env=_child_env(), cwd=ROOT)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return elapsed


def closed_loop(workload, seconds):
    """Untraced operations until `seconds` have passed, with set-up
    samples interleaved; returns (outcomes, set-up samples)."""
    setup = [setup_sample(workload) for _ in range(SETUP_SAMPLES // 2)]
    outcomes = []
    deadline = time.perf_counter() + seconds
    while True:
        outcomes.append(attempt(workload, traced=False))
        setup.append(setup_sample(workload))
        if time.perf_counter() >= deadline:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(workload))
    return outcomes, setup


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "qbounds").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def facts(workload, seed):
    import numpy

    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        **workload.facts,
    }


def end_to_end(workload, outcomes, setup_s):
    walls = [o.wall_s for o in outcomes]
    wall = statistics.median(walls)
    if isinstance(workload, ColdCompute):
        peaks = [o.peak_rss_mb for o in outcomes if o.peak_rss_mb is not None]
        peak = statistics.median(peaks) if peaks else math.nan
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "items_per_s": {"value": workload.item_count / wall, "unit": "1/s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }


def per_layer(trace, traced_wall, untraced_wall):
    layers = trace["layers"]
    metrics = {}
    for name, stats in layers.items():
        if name not in ENTRY_LAYERS:
            metrics[f"{name}.calls"] = {"value": stats["calls"], "unit": "count"}
    metrics["spectral.spectral_radius.iterations"] = {
        "value": trace["iterations"], "unit": "count"}
    for name, stats in layers.items():
        metrics[f"{name}.self_s"] = {"value": stats["self_s"], "unit": "s"}
    metrics["trace.overhead_ratio"] = {
        "value": traced_wall / untraced_wall, "unit": "ratio"}
    return metrics


def print_layer_table(trace):
    print(f"{'layer':<34} {'calls':>10} {'self_s':>11} {'total_s':>11}")
    for name, stats in trace["layers"].items():
        print(f"{name:<34} {stats['calls']:>10} {stats['self_s']:>11.4f} "
              f"{stats['total_s']:>11.4f}")
    print(f"{'spectral.spectral_radius.iterations':<34} {trace['iterations']:>10}")


def run(args, workdir):
    workload = WORKLOADS[args.workload](args.seed, workdir)
    print("facts " + json.dumps(facts(workload, args.seed), sort_keys=True))
    outcomes, setup = closed_loop(workload, args.seconds)
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setup)}")
    untraced_wall = statistics.median(o.wall_s for o in outcomes)
    traced = attempt(workload, traced=True) if args.trace else None
    attempted = len(outcomes) + (traced is not None)
    failures = [o for o in outcomes + [traced] if o is not None and o.problems]
    for outcome in failures:
        print("FAILED: " + "; ".join(outcome.problems), file=sys.stderr)
    walls = sorted(o.wall_s for o in outcomes)
    print(f"wall_s samples ({len(walls)} operations, median {untraced_wall:.4f} s,"
          f" min {walls[0]:.4f} s, max {walls[-1]:.4f} s):"
          f" {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"error_rate {len(failures) / attempted:.4f} "
          f"({len(failures)} failed / {attempted} attempted)")
    if args.trace:
        if traced.trace is None:
            metrics = {}
        else:
            print_layer_table(traced.trace)
            metrics = per_layer(traced.trace, traced.wall_s, untraced_wall)
    else:
        metrics = end_to_end(workload, outcomes, statistics.median(setup))
    for name, metric in metrics.items():
        print(f"{name} {metric['value']} {metric['unit']}")
    return {"correct": not failures and bool(metrics), "attempted": attempted,
            "failed": len(failures), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qbounds" / "__init__.py").is_file():
        print(f"error: no qbounds sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qbounds

    if Path(qbounds.__file__).resolve().parent != SRC / "qbounds":
        print(f"error: qbounds imported from {qbounds.__file__}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
