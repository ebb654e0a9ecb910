"""The benchmark run: inputs, repeated jobs, correctness gate, metrics.

``run.py`` is the command; this module holds what it does, so that tests
can drive single jobs.  Importing it needs ``src`` on ``sys.path``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.autograd import blas_thread_info, get_backend
from repro.flare import SimulatorRunner, set_console_level

from .layers import LayerTracer, read_records
from .report import (
    E2E_METRICS,
    LAYER_METRICS,
    JobResult,
    end_to_end,
    per_layer,
)
from .workloads import (
    WORKLOADS,
    JobClock,
    build_inputs,
    final_quality,
    make_job,
    weights_digest,
)

__all__ = ["main", "run_job"]

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _source_digest() -> str:
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _commit() -> str | None:
    try:
        completed = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                   capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if completed.returncode != 0:
        return None  # a checkout without git: source_digest identifies it
    return completed.stdout.strip()


def _provenance(args, work_dir: Path) -> dict:
    parent = blas_thread_info()
    worker = parent
    for path in sorted(work_dir.glob("blas-*.json")):
        info = json.loads(path.read_text())
        if info.get("pid") != os.getpid():
            worker = info
            break
    try:
        nproc = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        nproc = os.cpu_count() or 1
    return {"commit": _commit(), "source_digest": _source_digest(),
            "nproc": nproc, "backend": get_backend(),
            "blas_parent": parent, "blas_worker": worker,
            "python": platform.python_version(), "numpy": np.__version__,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def run_job(inputs, work_dir: Path, index: int,
            tracer: LayerTracer | None = None) -> tuple[JobResult, dict]:
    """One ``SimulatorRunner.run()``, timed from outside; returns the job's
    result and its final weights."""
    spec = inputs.spec
    clock = JobClock()
    run_dir = work_dir / f"job-{index}"
    job = make_job(inputs, clock, work_dir)
    runner = SimulatorRunner(job, n_clients=spec.n_sites, seed=inputs.provision_seed,
                             run_dir=run_dir / "run", threads=spec.threads)
    if tracer is not None:
        tracer.install()
    try:
        started = time.perf_counter()
        result = runner.run()
        ended = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.uninstall()
    stats = result.stats
    # updates tasked inside a round/commit window: every reply the
    # controller collected plus every tasked site that never answered OK
    attempted = sum(
        len(record.client_records)
        + len(set(record.dropped_clients)
              - {client.client for client in record.client_records})
        for record in stats.rounds)
    job_result = JobResult(
        started=started, ended=ended, setup_done=clock.setup_done,
        eval_spans=list(clock.eval_spans), attempted=attempted,
        accepted=clock.accepted, accepted_samples=clock.accepted_samples,
        failed_rounds=stats.failed_rounds, rounds_run=stats.num_rounds,
        digest=weights_digest(result.final_weights),
        bytes_delivered=stats.bytes_delivered,
        peak_materialized=stats.peak_materialized_updates,
        records=read_records(tracer.directory) if tracer is not None else [])
    shutil.rmtree(run_dir, ignore_errors=True)
    return job_result, result.final_weights


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def _log_job(kind: str, job) -> None:
    rounds = " ".join(f"{value:.3f}" for value in job.rounds_s)
    print(f"{kind} job: setup {job.setup_s:.3f}s rounds [{rounds}] "
          f"teardown {job.teardown_s:.3f}s total {job.job_s:.3f}s",
          file=sys.stderr)


def _check(jobs, spec) -> list[str]:
    problems = []
    digests = {job.digest for job in jobs}
    if len(digests) != 1:
        problems.append(f"final checkpoints differ across jobs: {sorted(digests)}")
    for index, job in enumerate(jobs):
        if job.failed_rounds:
            problems.append(f"job {index}: {job.failed_rounds} failed round(s)")
        if job.rounds_run != spec.rounds or len(job.eval_spans) != spec.rounds:
            problems.append(f"job {index}: ran {job.rounds_run} of "
                            f"{spec.rounds} round(s)")
        if job.accepted != job.attempted:
            problems.append(f"job {index}: {job.attempted - job.accepted} of "
                            f"{job.attempted} tasked update(s) not accepted")
    return problems


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    set_console_level(logging.WARNING)
    spec = WORKLOADS[args.workload]
    # scratch space inside the checkout, removed when the run ends
    work_dir = ROOT / ".fedbench" / f"{spec.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        inputs = build_inputs(spec, args.seed)
        untraced, traced = [], []
        weights = None
        rss_mb: tuple[float, float] | None = None
        began = time.perf_counter()

        def more(jobs: list, until: float) -> bool:
            # start another job only if it is due to end less than half a
            # job past the deadline, so runs stay close to --seconds
            if not jobs:
                return True
            typical = statistics.median(job.job_s for job in jobs)
            return time.perf_counter() + typical / 2 < until

        while more(untraced, began + (args.seconds / 2 if args.trace
                                      else args.seconds)):
            job, weights = run_job(inputs, work_dir, len(untraced))
            untraced.append(job)
            _log_job("untraced", job)
            if rss_mb is None:
                # peaks over exactly one job (imports and inputs included):
                # later jobs would add growth that depends on how many ran
                rss_mb = (_maxrss_mb(resource.RUSAGE_SELF),
                          _maxrss_mb(resource.RUSAGE_CHILDREN))
            gc.collect()
        while args.trace and more(traced, began + args.seconds):
            tracer = LayerTracer(work_dir / f"trace-{len(traced)}")
            job, _ = run_job(inputs, work_dir, 1000 + len(traced), tracer)
            traced.append(job)
            _log_job("traced", job)
            gc.collect()

        problems = _check(untraced + traced, spec)
        valid_error, valid_loss = final_quality(inputs, weights)
        if args.trace:
            metrics = per_layer(traced, untraced, os.getpid(),
                                threading.main_thread().ident, valid_loss)
            units = {name: unit for name, unit, _, _ in LAYER_METRICS}
        else:
            driver_mb, children_mb = rss_mb
            # on the memory fabric the driver itself hosts every client
            workers_mb = children_mb if spec.transport != "memory" else driver_mb
            metrics = end_to_end(untraced, valid_error,
                                 peak_rss_mb=driver_mb,
                                 worker_peak_rss_mb=workers_mb)
            units = {name: unit for name, unit, _, _ in E2E_METRICS}
        provenance = _provenance(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    jobs = untraced + traced
    for problem in problems:
        print(f"correctness: {problem}", file=sys.stderr)
    print(f"{spec.name} seed={args.seed}: {len(untraced)} untraced + "
          f"{len(traced)} traced job(s), digest {jobs[0].digest}", file=sys.stderr)
    for name, unit in units.items():
        print(f"  {name:<36} {metrics[name]:>16.6g} {unit}", file=sys.stderr)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(job.attempted for job in jobs),
        "failed": sum(job.attempted - job.accepted for job in jobs),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if not problems else 1
