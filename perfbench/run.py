"""sparsemh benchmark: ``analyze`` latency and ``simulate`` throughput.

Run from the root of a source checkout (the package need not be installed):

    python3 perfbench/run.py --workload analyze-small --seed 42 --seconds 15 --trace 0

Each run measures ``setup_s`` (the import of ``sparsemh.cli`` in fresh
interpreters, median of several), then starts one fresh interpreter for the
workload (``worker.py``) with ``PYTHONPATH=src``. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` prints the per-layer metrics of a traced
run. The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine, the output digest, failure buckets of timed ops, the known defect
seen on untimed inputs, and the tail latency.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

BENCH_DIR = Path(__file__).resolve().parent
WORKLOADS = ("analyze-small", "analyze-wide", "sim-coverage", "sim-bias-t2")
REQUIRED = (Path("src/sparsemh/cli.py"), Path("tests/golden/smallworld_report.json"))
WORK_DIR = Path(".perfbench_work")
SETUP_PROBES = 9
# times the import, then the calibration kernel in the same interpreter
IMPORT_PROBE = """
import statistics, sys, time
t = time.perf_counter()
import sparsemh.cli
t = time.perf_counter() - t
sys.path.insert(0, sys.argv[1])
import calibration
calibration.timed_kernel("setup")
print(t, statistics.median(calibration.timed_kernel("setup") for _ in range(5)))
"""
# the worker may overrun --seconds by one op plus its set-up and reference pass
WORKER_TIMEOUT_S = 170.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path("src").resolve())
    env.pop("SPARSEMH_THREADS", None)
    return env


def measure_setup(env: dict) -> tuple[float, list[float]]:
    """Median import time of ``sparsemh.cli`` over fresh interpreters, and the raw times.

    Each probe's time is scaled to the reference speed by the mixed
    calibration kernel run right after it (see ``calibration.py``). One
    untimed probe first writes the bytecode caches, which a user's installed
    package already has.
    """
    scaled, raw = [], []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(BENCH_DIR)], env=env, capture_output=True,
            text=True, timeout=60, check=True,
        ).stdout
        if i:
            import_s, kernel_s = map(float, out.split())
            raw.append(import_s)
            scaled.append(import_s * calibration.REF_MS["setup"] / (kernel_s * 1e3))
    return statistics.median(scaled), raw


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without leaving it."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input for the smoke test")
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    missing = [str(p) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: run from the root of a sparsemh checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    env = _env()
    run_dir = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, setup_samples = measure_setup(env)
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--size", args.size, "--run-dir", str(run_dir),
             "--spans-out", str(WORK_DIR / f"spans-{args.workload}.csv")],
            env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        worker_s = time.perf_counter() - started
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except subprocess.CalledProcessError as exc:
        print(f"error: importing sparsemh.cli failed:\n{exc.stderr}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        print(f"error: the workload process exited {proc.returncode}:\n{proc.stderr}", file=sys.stderr)
        return 3
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    info = result.pop("info")

    if not args.trace:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    machine = {
        "nproc": os.cpu_count(), "cpu": cpu_model(), "python": platform.python_version(),
        "numpy": info.pop("numpy"), "commit": git_commit(),
    }
    print(f"machine: {json.dumps(machine)}")
    print(f"run: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"size={args.size} worker_wall_s={worker_s:.1f} setup_raw_s={[round(s, 4) for s in setup_samples]}")
    print(f"digest: {info.pop('digest')}")
    for bucket, count in sorted(info.pop("failures").items(), key=lambda kv: -kv[1]):
        print(f"failed: {count} x {bucket}")
    known = info.pop("known_defect")
    for bucket, count in sorted(known["failures"].items(), key=lambda kv: -kv[1]):
        print(f"known defect: {count} of {known['inputs']} untimed inputs x {bucket}")
    for problem in info.pop("problems"):
        print(f"incorrect: {problem}")
    if "tail" in info:
        tail = info.pop("tail")
        print(f"tail: p{tail['percentile']:g} = {tail['ms']:.3f} ms (raw wall time) over {tail['samples']} completed ops")
    for missing_name in info.pop("missing", []):
        print(f"missing: {missing_name}")
    for key, value in info.items():
        print(f"{key}: {value}")
    for name, metric in sorted(result["metrics"].items()):
        print(f"metric: {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
