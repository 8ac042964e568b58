"""infconv benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload desk_entropic --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all            # every workload in turn

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Each run sets up the workload in
fresh processes (``setup_s`` is the median of five), then the last of them
runs a warm-up job followed by timed jobs, one after another, for at least
``--seconds`` and at least the workload's ``min_jobs``.
Outputs are checked after every job.  With ``--trace 1`` untraced and traced
jobs alternate and the per-layer numbers of ``BENCHMARK.json`` are reported
instead; the spans are written to ``benchmarks/traces/``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print every
metric with its unit, the failure ratio and the environment stamp.  BLAS
runs on one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Names only: this process starts workers and never imports numpy or infconv.
WORKLOADS = ("desk_entropic", "narrow_spectral", "oracle_grid")
SETUPS = 5
TIMEOUT_S = 170.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a 2-core machine two threads made single desk jobs
# swing by about 10% against about 4% with one.
BLAS_THREADS = 1


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def _run_worker(args: list[str], env: dict[str, str], deadline: float) -> dict:
    """Start worker.py, wait for it and return its last stdout line as JSON."""
    command = [sys.executable, str(HERE / "worker.py"), *args, "--t0", repr(_now())]
    proc = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - _now(), 1.0))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker timed out: {' '.join(args)}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}: {' '.join(args)}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict[str, str]) -> dict:
    deadline = _now() + TIMEOUT_S
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=HERE / ".work"))
    common = ["--workload", name, "--seed", str(seed), "--workdir", str(workdir)]
    try:
        setups = []
        if not trace:
            for _ in range(SETUPS - 1):
                setups.append(_run_worker([*common, "--seconds", "0", "--setup-only"], env, deadline)["setup_s"])
        extra = ["--trace", "1", "--trace-out", str(HERE / "traces" / f"{name}-seed{seed}.json")] if trace else []
        result = _run_worker([*common, "--seconds", str(seconds), *extra], env, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = result["summary"]
    setups.append(summary["setup_s"])
    summary["setup_s"] = statistics.median(setups)
    result["setups"] = setups
    return result


def _report(name: str, result: dict, trace: bool, spec: dict) -> dict[str, dict]:
    """Print one workload's numbers and return its metrics in result format."""
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    values = result["layers"] if trace else result["summary"]
    metrics = {key: {"value": values[key], "unit": units[key]} for key in units}
    s = result["summary"]
    print(f"[{name}] env " + " ".join(f"{k}={v}" for k, v in result["env"].items()))
    print(f"[{name}] job_s {s['job_s']:.4f} s (q1 {s['job_q1_s']:.4f}, q3 {s['job_q3_s']:.4f}, "
          f"{s['jobs']} jobs); set-ups {', '.join(f'{v:.3f}' for v in result['setups'])} s")
    for key, metric in metrics.items():
        print(f"[{name}] {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"[{name}] rel_error = {s['rel_error']:.6g}; "
          f"fail_ratio = {result['failed']}/{result['attempted']}")
    for problem in result["problems"]:
        print(f"[{name}] FAILED CHECK: {problem}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if not (ROOT / "src" / "infconv" / "__init__.py").is_file():
        print(f"infconv sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        print("--seed must be a non-negative 63-bit integer", file=sys.stderr)
        return 2

    env = _worker_env()
    (HERE / ".work").mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    correct = True
    metrics: dict[str, dict] = {}
    for name in names:
        result = run_workload(name, args.seed, seconds, bool(args.trace), env)
        found = _report(name, result, bool(args.trace), spec)
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and not result["problems"]
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update({prefix + key: value for key, value in found.items()})

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
