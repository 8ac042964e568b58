"""One benchmark process: set up a workload, then run its jobs in a closed loop.

Started by ``run.py``; not meant to be run by hand.  The last stdout line is
one JSON object.  With ``--setup-only`` the process stops once set-up is done
and reports only the set-up time, measured from ``--t0``, the parent's
CLOCK_MONOTONIC reading taken just before it started this process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy

from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _import_package():
    if not (SRC / "infconv" / "__init__.py").is_file():
        raise SystemExit(f"infconv sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import infconv

    if Path(infconv.__file__).resolve().parent != SRC / "infconv":
        raise SystemExit(f"imported infconv from {infconv.__file__}, not from {SRC}")


def layer_metrics(tracer, batch_size: int) -> dict[str, float]:
    """Per-layer numbers of one traced job (names as in BENCHMARK.json)."""
    own = tracer.self_times()
    out: dict[str, float] = {}
    for layer in LAYERS:
        spans = [s for s in tracer.spans if s.name.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = len(spans)
        out[f"{layer}.self_s"] = sum(own[s.ident] for s in spans)
        out[f"{layer}.errors"] = sum(s.error for s in spans)

    def inclusive(select) -> float:
        return sum(s.end - s.start for s in tracer.spans if select(s))

    counts = tracer.counts
    forwards = counts.get("net.forward_calls", 0)
    out.update({
        "net.forward_train_s": inclusive(lambda s: s.name == "net.forward" and s.size <= batch_size),
        "net.forward_eval_s": inclusive(lambda s: s.name == "net.forward" and s.size > batch_size),
        "net.backward_s": inclusive(lambda s: s.name == "net.backward"),
        "net.madds": counts.get("net.madds", 0),
        "net.forward_distinct_ratio": len(tracer.forward_keys) / forwards if forwards else 1.0,
        "optim.adam_s": inclusive(lambda s: s.name == "optim.adam_step"),
        "measures.empirical_s": inclusive(lambda s: s.name == "measures.empirical"),
        "measures.eval_s": inclusive(
            lambda s: s.name in ("measures.eval_with_grad", "measures.evaluate")
        ),
        "sharing.steps": counts.get("sharing.steps", 0),
        "sharing.batch_loss_s": inclusive(lambda s: s.name == "sharing.batch_loss_and_cotangents"),
        "sampling.draw_s": inclusive(lambda s: s.name == "sampling.draw"),
        "sampling.stratified_s": inclusive(lambda s: s.name == "sampling.stratified_sample"),
        "analytic.infconv_s": inclusive(lambda s: s.name == "analytic.analytic_infconv"),
        "oracle.candidates": counts.get("oracle.candidates", 0),
        "oracle.solve_s.linear": inclusive(lambda s: s.path == "linear"),
        "oracle.solve_s.entropic": inclusive(lambda s: s.path == "entropic"),
        "oracle.stability_s": inclusive(lambda s: s.name == "sharing.spectral_stability_check"),
        "cli.write_s": inclusive(lambda s: s.name == "cli.write_report_files"),
    })
    return out


# Counts that must repeat exactly from one traced job to the next.
COUNTS = ("net.madds", "sharing.steps", "oracle.candidates") + tuple(
    f"{layer}.{kind}" for layer in LAYERS for kind in ("calls", "errors")
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = _now() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    plain = Tracer()  # never entered: its api() hands back the original functions
    reference = workload.job(plain.api)  # warm-up; its outputs are the reference
    problems = workload.check(reference, reference)

    untraced: list[float] = []
    traced: list[float] = []
    tracers: list[Tracer] = []
    outputs = []
    attempted = failed = 0
    start = _now()

    def run_job(tracer: Tracer | None) -> None:
        nonlocal attempted, failed
        attempted += 1
        t = _now()
        try:
            if tracer is None:
                out = workload.job(plain.api)
            else:
                with tracer:
                    out = workload.job(tracer.api)
        except Exception as exc:  # a failing job is counted, the loop goes on
            traceback.print_exc()
            failed += 1
            problems.append(f"job raised {exc!r}")
            return
        elapsed = _now() - t
        (untraced if tracer is None else traced).append(elapsed)
        outputs.append(out)
        bad = workload.check(out, reference)
        if bad:
            failed += 1
            problems.extend(bad)

    if args.trace:
        # untraced and traced jobs alternate, so drift hits both sides alike
        while len(tracers) < 2 or _now() - start < args.seconds:
            run_job(None)
            tracer = Tracer(job=len(tracers) + 1)
            run_job(tracer)
            tracers.append(tracer)
    else:
        while attempted < workload.min_jobs or _now() - start < args.seconds:
            run_job(None)
    if not untraced or (args.trace and len(traced) < 2):
        raise SystemExit(f"too few jobs completed: {problems[:3]}")

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    q1, job_s, q3 = _quartiles(untraced)
    summary = {
        "jobs": len(untraced),
        "job_s": job_s,
        "job_q1_s": q1,
        "job_q3_s": q3,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "pooled_risk": statistics.median(o.pooled_risk for o in outputs),
        "risk_ratio": statistics.median(o.risk_ratio for o in outputs),
        "rel_error": statistics.median(o.rel_error for o in outputs),
    }

    layers = {}
    if tracers:
        per_job = [layer_metrics(t, workload.batch_size) for t in tracers]
        for name in COUNTS:
            if len({m[name] for m in per_job}) != 1:
                problems.append(f"count {name} differs between traced jobs: {[m[name] for m in per_job]}")
        if per_job[0]["sharing.steps"] != workload.expected_steps:
            problems.append(
                f"traced {per_job[0]['sharing.steps']} training steps, expected {workload.expected_steps}"
            )
        expected_candidates = outputs[-1].detail.get("candidates", 0)
        if per_job[0]["oracle.candidates"] != expected_candidates:
            problems.append(
                f"traced {per_job[0]['oracle.candidates']} oracle candidates, expected {expected_candidates}"
            )
        layers = {
            name: per_job[0][name] if name in COUNTS else statistics.median(m[name] for m in per_job)
            for name in per_job[0]
        }
        layers["trace.overhead_s"] = statistics.median(traced) - job_s
        if args.trace_out is not None:
            args.trace_out.parent.mkdir(parents=True, exist_ok=True)
            args.trace_out.write_text(json.dumps({
                "workload": args.workload,
                "seed": args.seed,
                "layers": layers,
                "functions": [t.by_function() for t in tracers],
                "spans": [t.dump() for t in tracers],
            }))

    print(json.dumps({
        "env": {
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "summary": summary,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
