"""One workload run of the sparsemh benchmark, in a fresh interpreter.

``run.py`` starts this file with ``PYTHONPATH=src``. It generates the
workload's inputs from the seed, passes the correctness gate, runs every
input once untimed to get its reference output, then drives
``sparsemh.cli.main`` in-process in a closed loop (one client, next call
after the previous one returns) until the time is up. Its last stdout line
is one JSON object that ``run.py`` turns into the benchmark's result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import sparsemh.cli
from sparsemh.datasets import smallworld_path

import calibration
import spans

GOLDEN = Path("tests/golden/smallworld_report.json")
DIGEST_PIN = Path(__file__).with_name("digests.json")
DEFAULT_SEED = 42
ANALYZE_KEYS = ("strata", "excluded", "weights", "indicators")
GENERATED_AT = re.compile(rb'"generated_at": "[^"]*"')
SIM_PSI = ("0.2", "1", "10")

# full size, and the tiny size the smoke test uses
SIZES = {
    "full": {"small_per_k": 10, "wide_k": 20_000, "sim_datasets": 10_000, "sim_reps": 4},
    "tiny": {"small_per_k": 1, "wide_k": 300, "sim_datasets": 200, "sim_reps": 2},
}


@dataclass(frozen=True)
class Op:
    """One CLI call, the outputs it writes, and the work it covers (strata or datasets)."""

    base: list[str]
    items: int
    outputs: tuple[Path, ...]
    kind: str  # "analyze" or "sim"
    threads: int = 1
    # False for an input that hits a known defect: it runs in the untimed
    # reference pass, which reports its failure, but not in the timed loop
    timed: bool = True

    def argv(self, threads: int | None = None) -> list[str]:
        if self.kind == "analyze":
            return self.base
        return self.base + ["--threads", str(self.threads if threads is None else threads)]


def _write_csv(path: Path, a, b, n1, n2) -> None:
    """One stratum per row: a ~ Bin(n1, p1), b ~ Bin(n2, p1); c and d complete the columns."""
    cells = zip(a.tolist(), b.tolist(), (n1 - a).tolist(), (n2 - b).tolist())
    lines = ["stratum,a,b,c,d"] + [f"s{i + 1},{a},{b},{c},{d}" for i, (a, b, c, d) in enumerate(cells)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _analyze_op(csv: Path, out: Path, items: int, timed: bool = True) -> Op:
    return Op(["analyze", str(csv), "--format", "json", "--out", str(out)], items, (out,), "analyze",
              timed=timed)


def build_analyze_small(rng, seed: int, run_dir: Path, size: dict) -> list[Op]:
    # smallworld's shape: few strata, small columns, empty columns included.
    # K ~ U{4..50} is drawn stratified (every K equally often, in seeded
    # order) so the mix of dataset sizes, which sets the latency, is the same
    # for every seed. A dataset with a stratum that filter_informative keeps
    # (both columns non-empty) but whose row a + b or c + d is empty hits the
    # empty-row defect: it is generated and run in the reference pass, which
    # reports the defect, but it is not timed.
    ops = []
    out = run_dir / "report.json"
    ks = rng.permutation(np.repeat(np.arange(4, 51), size["small_per_k"]))
    for i, k in enumerate(ks.tolist()):
        n = rng.integers(0, 61, size=(k, 2))
        while (both_empty := (n.sum(axis=1) == 0)).any():
            n[both_empty] = rng.integers(0, 61, size=(int(both_empty.sum()), 2))
        p1 = rng.uniform(0.05, 0.6, size=k)
        n1, n2 = n[:, 0], n[:, 1]
        csv = run_dir / f"small_{i:04d}.csv"
        a, b = rng.binomial(n1, p1), rng.binomial(n2, p1)
        _write_csv(csv, a, b, n1, n2)
        empty_row = ((n1 > 0) & (n2 > 0) & ((a + b == 0) | (a + b == n1 + n2))).any()
        ops.append(_analyze_op(csv, out, k, timed=not empty_row))
    return ops


def build_analyze_wide(rng, seed: int, run_dir: Path, size: dict) -> list[Op]:
    # The paper's desk design (n1 = 100, n2 = 1000, psi = 1) at K strata.
    # About one seed in 700 draws a stratum with a = b = 0; analyze then
    # fails on the empty-row defect that analyze-small already measures, and
    # this throughput workload would time no completed op. Such strata are
    # redrawn.
    k = size["wide_k"]
    p1 = rng.uniform(0.01, 0.2, size=k)
    a, b = rng.binomial(100, p1), rng.binomial(1000, p1)
    while (empty := (a + b == 0)).any():
        a[empty], b[empty] = rng.binomial(100, p1[empty]), rng.binomial(1000, p1[empty])
    csv = run_dir / "wide.csv"
    _write_csv(csv, a, b, 100, 1000)
    return [_analyze_op(csv, run_dir / "report.json", k)]


def _sim_ops(study: str, threads: int):
    # the acceptance suite's desk design at its three psi values
    def build(rng, seed: int, run_dir: Path, size: dict) -> list[Op]:
        ops = []
        for psi in SIM_PSI:
            prefix = run_dir / f"{study}_psi{psi}"
            base = [
                "simulate", study, "--k", "30", "--n-mentioned", "100", "--n-not-mentioned", "1000",
                "--datasets", str(size["sim_datasets"]), "--reps", str(size["sim_reps"]),
                "--psi", psi, "--seed", str(seed), "--out", str(prefix),
            ]
            outputs = (prefix.parent / (prefix.name + ".csv"), prefix.parent / (prefix.name + ".json"))
            ops.append(Op(base, size["sim_datasets"] * size["sim_reps"], outputs, "sim", threads))
        return ops

    return build


WORKLOADS = {
    "analyze-small": build_analyze_small,
    "analyze-wide": build_analyze_wide,
    "sim-coverage": _sim_ops("coverage", threads=1),
    "sim-bias-t2": _sim_ops("bias", threads=2),
}


def build_ops(workload: str, seed: int, run_dir: Path, size: dict) -> list[Op]:
    rng = np.random.default_rng(np.random.SeedSequence((seed, sorted(WORKLOADS).index(workload))))
    return WORKLOADS[workload](rng, seed, run_dir, size)


# --------------------------------------------------------------------------
# running one op and checking what it wrote

def _first_line(text: str) -> str:
    line = text.strip().splitlines()[0] if text.strip() else ""
    # labels and counts differ per dataset; the bucket is the message shape
    return re.sub(r"\d+", "N", re.sub(r"'[^']*'", "'...'", line))


def run_op(argv: list[str]) -> tuple[float, str | None]:
    """Wall time of one ``cli.main`` call and its failure bucket (None on success)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            outcome = sparsemh.cli.main(argv)
        except (Exception, SystemExit) as exc:  # an escaped exception is a failed op
            outcome = exc
        wall = time.perf_counter() - start
    if isinstance(outcome, BaseException):
        return wall, f"{type(outcome).__name__}: {_first_line(str(outcome))}"
    if outcome != 0:
        return wall, f"exit {outcome}: {_first_line(err.getvalue())}"
    return wall, None


def fingerprint(op: Op, failure: str | None) -> str:
    """Exact identity of one op's outcome; only the report timestamp is masked."""
    if failure is not None:
        return "FAIL " + failure
    h = hashlib.sha256()
    for path in op.outputs:
        data = path.read_bytes()
        h.update(GENERATED_AT.sub(b'"generated_at": ""', data) if op.kind == "analyze" else data)
    return h.hexdigest()


def output_digest(op: Op, failure: str | None) -> str:
    """Digest of the parts of the output that later changes must keep."""
    if failure is not None:
        return "FAIL " + failure
    if op.kind == "analyze":
        report = json.loads(op.outputs[0].read_bytes())
        payload = json.dumps({k: report[k] for k in ANALYZE_KEYS}, sort_keys=True)
    else:
        records = json.loads(op.outputs[1].read_bytes())["records"]
        payload = op.outputs[0].read_text(encoding="utf-8") + json.dumps(records, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def correctness_gate(run_dir: Path) -> str | None:
    """Render bundled smallworld and compare it exactly to the golden report."""
    out = run_dir / "smallworld.json"
    _, failure = run_op(["analyze", str(smallworld_path()), "--format", "json", "--out", str(out)])
    if failure is not None:
        return f"smallworld analyze failed: {failure}"
    got = json.loads(out.read_bytes())
    want = json.loads(GOLDEN.read_bytes())
    for report in (got, want):
        report.pop("source", None)
        report.get("meta", {}).pop("generated_at", None)
    return None if got == want else "smallworld report differs from tests/golden/smallworld_report.json"


# --------------------------------------------------------------------------
# timed loop

@dataclass
class Phase:
    """Every op of one closed-loop phase, in order."""

    walls: list = field(default_factory=list)
    items: list = field(default_factory=list)
    failures: list = field(default_factory=list)  # failure bucket per op, None for a completed op
    traced: list = field(default_factory=list)  # whether spans were recorded for the op
    calibration: list = field(default_factory=list)
    # per op: reference speed over the speed the kernels run right after it measured
    speeds: list = field(default_factory=list)
    mismatches: int = 0

    def subset(self, traced: bool) -> "Phase":
        keep = [t == traced for t in self.traced]

        def pick(values):
            return [v for v, k in zip(values, keep) if k]

        return Phase(pick(self.walls), pick(self.items), pick(self.failures), pick(self.traced))

    @property
    def done_walls(self) -> list[float]:
        return [w for w, f in zip(self.walls, self.failures) if f is None]


def timed_loop(ops: list[Op], refs: list[str], seconds: float, threads=None, tracer=None) -> Phase:
    """Cycle through the inputs until ``seconds`` have passed; the op in flight completes.

    With a ``tracer``, every second op runs with it installed (at least one
    of each), so traced and untraced ops share the machine's drift and their
    medians give the tracing overhead.

    After an op, the calibration kernel runs for its share of the op's time.
    The median of those kernels sets the speed of that op and of the ops
    before it that ran no kernel (short ops share one), so each op is scaled
    for the machine's speed at the moment it ran.
    """
    phase = Phase()
    deadline = time.perf_counter() + seconds
    i = 0
    budget = 0.0
    while True:
        op = ops[i % len(ops)]
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.op = i
            tracer.install()
        try:
            wall, failure = run_op(op.argv(threads))
        finally:
            if traced:
                tracer.uninstall()
        phase.walls.append(wall)
        phase.items.append(op.items)
        phase.failures.append(failure)
        phase.traced.append(traced)
        if fingerprint(op, failure) != refs[i % len(ops)]:
            phase.mismatches += 1
        budget += calibration.SHARE * wall
        block = []
        while budget > 0.0:
            block.append(calibration.timed_kernel(op.kind))
            budget -= block[-1]
        if block:
            speed = calibration.REF_MS[op.kind] / (statistics.median(block) * 1e3)
            phase.speeds += [speed] * (len(phase.walls) - len(phase.speeds))
            phase.calibration += block
        i += 1
        if time.perf_counter() >= deadline and (tracer is None or i >= 2):
            # the first op always runs kernels, so the last speed exists
            phase.speeds += phase.speeds[-1:] * (len(phase.walls) - len(phase.speeds))
            return phase


def pool_loop(ops, refs, seconds) -> tuple[spans.Tracer, Phase]:
    """Untraced ops at their own thread count, with only ``_run_reps`` timed."""
    pool = spans.Tracer(["simulation._run_reps"])
    pool.install()
    try:
        return pool, timed_loop(ops, refs, seconds)
    finally:
        pool.uninstall()


def tail_percentile(walls: list[float]) -> tuple[float, float] | None:
    """Highest whole percentile with at least ten samples beyond it, and its value."""
    if len(walls) < 100:
        return None
    q = float(int(100 * (1 - 10 / len(walls))))
    return q, float(np.percentile(walls, q))


def end_to_end_metrics(phase: Phase) -> tuple[dict, dict]:
    """The end-to-end metrics, and the raw figures they were scaled from."""
    done = [f is None for f in phase.failures]
    if not any(done):  # time the failed ops rather than report nothing
        done = [True] * len(done)
    walls = [w for w, d in zip(phase.walls, done) if d]
    items = [n for n, d in zip(phase.items, done) if d]
    norm = [w * s for w, s, d in zip(phase.walls, phase.speeds, done) if d]
    raw = {
        "op_p50_ms": statistics.median(walls) * 1e3,
        "items_per_s": sum(items) / sum(walls),
        "calibration_ms": statistics.median(phase.calibration) * 1e3,
    }
    return {
        "op_p50_norm_ms": (statistics.median(norm) * 1e3, "ms"),
        "items_per_norm_s": (sum(items) / sum(norm), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }, raw


# --------------------------------------------------------------------------
# per-layer metrics from a traced phase

def layer_metrics(tracer: spans.Tracer, traced: Phase, untraced: Phase, kind: str,
                  pool: spans.Tracer | None, pool_phase: Phase | None, threads: int) -> dict:
    """Per-op means of self time and counters; fractions are totals over the phase.

    ``pool`` timed ``_run_reps`` in ``pool_phase``, run untraced at ``threads``
    workers; the traced ops ran the same studies on one thread.
    """
    ops = len(traced.walls)
    summary = tracer.summary()
    count = tracer.counters.get

    def frac(num, den):
        return num / den if den else 0.0

    m = {f"{name}.self_s": (self_s / ops, "s") for name, (self_s, _, _) in summary.items()}
    del m["simulation._run_reps.self_s"]
    for name, counter, unit in (
        ("tables.parse_csv", "bytes", "B"),
        ("variance._skm_log_variance", "bytes_in", "B"),
        ("variance._rbg_log_variance", "bytes_in", "B"),
        ("report.render_json", "bytes", "B"),
        ("simulation._draw_count_matrices_streamed", "draws", "count"),
        ("simulation._draw_count_matrices_streamed", "bytes_out", "B"),
        ("simulation.StudySummary.write", "bytes", "B"),
    ):
        m[f"{name}.{counter}"] = (count((name, counter), 0) / ops, unit)
    ratios = summary["estimators.stratum_ratios"][2]
    m["estimators.stratum_ratios.calls"] = (ratios / ops, "count")
    m["estimators.stratum_ratios.calls_per_stratum"] = (
        frac(ratios, sum(traced.items)) if kind == "analyze" else 0.0, "ratio"
    )
    m["tables.filter_informative.kept_frac"] = (
        frac(count(("tables.filter_informative", "kept"), 0), count(("tables.filter_informative", "seen"), 0)),
        "ratio",
    )
    ln = "simulation._ln_mhq_from_counts"
    m[f"{ln}.defined_frac"] = (frac(count((ln, "defined"), 0), count((ln, "replicates"), 0)), "ratio")

    pool_eff = wait_s = 0.0
    pool_wall = pool.summary()["simulation._run_reps"][1] / len(pool_phase.walls) if pool else 0.0
    if pool_wall:
        # worker-seconds of rep work per study, against what the pool had
        rep_s = (summary["simulation._bias_rep"][1] + summary["simulation._coverage_rep"][1]) / ops
        pool_eff = rep_s / (threads * pool_wall)
        wait_s = threads * pool_wall - rep_s
    m["simulation._run_reps.pool_eff"] = (pool_eff, "ratio")
    m["simulation._run_reps.wait_s"] = (wait_s, "s")
    m["trace.overhead_frac"] = (statistics.median(traced.walls) / statistics.median(untraced.walls) - 1.0, "ratio")
    m["trace.missing"] = (len(tracer.missing), "count")
    return m


# --------------------------------------------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(SIZES), required=True)
    parser.add_argument("--run-dir", type=Path, required=True)
    parser.add_argument("--spans-out", type=Path, required=True)
    args = parser.parse_args()

    ops = build_ops(args.workload, args.seed, args.run_dir, SIZES[args.size])
    problems = []
    gate = correctness_gate(args.run_dir)
    if gate is not None:
        problems.append(gate)

    # reference outputs: one untimed pass, at --threads 1 for every study
    refs, digests, ref_failures = [], [], []
    for op in ops:
        _, failure = run_op(op.argv(threads=1))
        refs.append(fingerprint(op, failure))
        digests.append(output_digest(op, failure))
        ref_failures.append(failure)
    digest = hashlib.sha256("\n".join(digests).encode("utf-8")).hexdigest()
    pinned = json.loads(DIGEST_PIN.read_text(encoding="utf-8")).get(args.workload)
    if args.size == "full" and args.seed == DEFAULT_SEED and pinned is not None and digest != pinned:
        problems.append(f"output digest {digest} differs from the pinned {pinned}")

    # the known defect, as the reference pass saw it on the untimed inputs
    probe = [f for op, f in zip(ops, ref_failures) if not op.timed]
    known: dict[str, int] = {}
    for failure in probe:
        if failure is not None:
            known[failure] = known.get(failure, 0) + 1
    timed = [(op, ref) for op, ref in zip(ops, refs) if op.timed]
    ops, refs = [op for op, _ in timed], [ref for _, ref in timed]

    kind, threads = ops[0].kind, ops[0].threads
    info = {"digest": digest, "known_defect": {"inputs": len(probe), "failures": known}}
    if not args.trace:
        phases = [timed_loop(ops, refs, args.seconds)]
        metrics, info["raw"] = end_to_end_metrics(phases[0])
        tail = tail_percentile(phases[0].done_walls)
        if tail is not None:
            info["tail"] = {"percentile": tail[0], "ms": tail[1] * 1e3, "samples": len(phases[0].done_walls)}
        info["children_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    else:
        # spans are only collected in this process, so a pooled workload is
        # traced at --threads 1 and its pool timed in an untraced phase
        pool = pool_phase = None
        phases = []
        seconds = args.seconds
        if threads > 1:
            seconds /= 2
            pool, pool_phase = pool_loop(ops, refs, seconds)
            phases.append(pool_phase)
        tracer = spans.Tracer()
        phases.append(timed_loop(ops, refs, seconds, threads=1, tracer=tracer))
        metrics = layer_metrics(tracer, phases[-1].subset(True), phases[-1].subset(False),
                                kind, pool, pool_phase, threads)
        info["missing"] = tracer.missing
        info["spans"] = len(tracer.starts)
        tracer.write(args.spans_out)

    failures: dict[str, int] = {}
    for phase in phases:
        for failure in phase.failures:
            if failure is not None:
                failures[failure] = failures.get(failure, 0) + 1
    mismatches = sum(p.mismatches for p in phases)
    if mismatches:
        problems.append(f"{mismatches} timed ops wrote other output than their reference run")
    info.update(failures=failures, problems=problems, numpy=np.__version__)
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(len(p.walls) for p in phases),
        "failed": sum(failures.values()),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "info": info,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
