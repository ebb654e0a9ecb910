"""Metric definitions and the arithmetic that turns one run into metrics.

End-to-end metrics come from untraced jobs and the benchmark's own hooks.
Per-layer metrics come from the records of the traced jobs; each layer
metric names the end-to-end metric it should move and the workload where
it weighs most (``LAYER_METRICS``).  Sums are per job: the total over
every traced job divided by the number of traced jobs.

Time intervals: a job is ``set-up + rounds + teardown``.  Set-up runs from
the ``run()`` call to the aggregator factory; round ``k`` runs from the end
of round ``k-1`` (set-up for the first) to the evaluator's ``k``-th return;
teardown runs from the last evaluator return until ``run()`` returns.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

from .layers import Record

__all__ = ["E2E_METRICS", "LAYER_METRICS", "JobResult", "end_to_end",
           "per_layer", "tail_percentile"]

# name, unit, better, bound (share of the parent's median).  The timing
# bounds are the widest allowed: on a shared 2-vCPU host, background load
# shifts CPU speed by up to 1.5x for seconds at a time, and the ten-seed
# spread (IQR over median) of these medians reached 0.19.
E2E_METRICS: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("round_s.p50", "s", "lower", 0.25),
    ("job_s", "s", "lower", 0.25),
    ("samples_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("worker_peak_rss_mb", "MB", "lower", 0.1),
    ("final_valid_error", "share", "lower", 0.15),
    ("accepted_update_share", "share", "higher", 0.01),
)

_SETUP = "setup_s on async-cohort-memory"
_ROUND_TRAIN = "round_s.p50, samples_per_s on finetune-lstm-memory, pretrain-bert-shm"
_ROUND_WIRE = "round_s.p50 on compressed-bert-socket"
_TEARDOWN = "teardown_s on compressed-bert-socket, pretrain-bert-shm"

# name, unit, better, end-to-end metric and workload it should move
LAYER_METRICS: tuple[tuple[str, str, str, str], ...] = (
    ("provision.provision_s", "s", "lower", _SETUP),
    ("server.register_s", "s", "lower", _SETUP),
    ("runner.launch_s", "s", "lower", "setup_s on pretrain-bert-shm, compressed-bert-socket"),
    ("runner.join_s", "s", "lower", _TEARDOWN),
    ("transport.close_s", "s", "lower", _TEARDOWN),
    ("training.train_s.p50", "s", "lower", _ROUND_TRAIN),
    ("training.train_s.sum", "s", "lower", _ROUND_TRAIN),
    ("training.step_ms", "ms", "lower", _ROUND_TRAIN),
    ("training.batches", "count", "lower", _ROUND_TRAIN),
    ("training.eval_s", "s", "lower", _ROUND_TRAIN),
    ("models.forward_s", "s", "lower", _ROUND_TRAIN),
    ("autograd.backward_s", "s", "lower", _ROUND_TRAIN),
    ("autograd.optim_s", "s", "lower", _ROUND_TRAIN),
    ("data.collate_s", "s", "lower", "round_s.p50 on pretrain-bert-shm"),
    ("client.task_s", "s", "lower",
     "round_s.p50 on compressed-bert-socket, async-cohort-memory"),
    ("client.overhead_s", "s", "lower",
     "round_s.p50 on compressed-bert-socket, async-cohort-memory"),
    ("codec.encode_s", "s", "lower",
     "round_s.p50, peak_rss_mb on pretrain-bert-shm, compressed-bert-socket"),
    ("codec.decode_s", "s", "lower",
     "round_s.p50, peak_rss_mb on pretrain-bert-shm, compressed-bert-socket"),
    ("codec.calls", "count", "lower", "round_s.p50 on pretrain-bert-shm"),
    ("codec.bytes_out", "bytes", "lower", "round_s.p50 on compressed-bert-socket"),
    ("codec.bytes_in", "bytes", "lower", "round_s.p50 on compressed-bert-socket"),
    ("codec.bytes_raw", "bytes", "lower", "peak_rss_mb on pretrain-bert-shm"),
    ("codec.bytes_out_per_round", "bytes", "lower",
     "reconciles with stats.bytes_delivered_per_round on every workload"),
    ("codec.bytes_in_per_round", "bytes", "lower",
     "reconciles with stats.bytes_delivered_per_round on every workload"),
    ("stats.bytes_delivered_per_round", "bytes", "lower",
     "RunStats.bytes_delivered / rounds, beside the codec counts"),
    ("filters.delta_encode_s", "s", "lower", _ROUND_WIRE),
    ("filters.delta_encode_calls", "count", "lower", _ROUND_WIRE),
    ("filters.delta_decode_s", "s", "lower", _ROUND_WIRE),
    ("filters.delta_decode_calls", "count", "lower", _ROUND_WIRE),
    ("filters.fp16_quantize_s", "s", "lower", _ROUND_WIRE),
    ("filters.fp16_quantize_calls", "count", "lower", _ROUND_WIRE),
    ("filters.fp16_dequantize_s", "s", "lower", _ROUND_WIRE),
    ("filters.fp16_dequantize_calls", "count", "lower", _ROUND_WIRE),
    ("filters.topk_sparsify_s", "s", "lower", _ROUND_WIRE),
    ("filters.topk_sparsify_calls", "count", "lower", _ROUND_WIRE),
    ("filters.topk_densify_s", "s", "lower", _ROUND_WIRE),
    ("filters.topk_densify_calls", "count", "lower", _ROUND_WIRE),
    ("transport.send_s", "s", "lower", _ROUND_WIRE),
    ("transport.recv_wait_s", "s", "lower", _ROUND_WIRE),
    ("transport.messages", "count", "lower", _ROUND_WIRE),
    ("server.broadcast_s", "s", "lower", "round_s.p50 on every workload"),
    ("server.result_wait_s", "s", "lower",
     "round_s.p50 on finetune-lstm-memory (the straggler barrier)"),
    ("controller.self_s", "s", "lower", "round_s.p50 on async-cohort-memory"),
    ("controller.round_s.tail", "s", "lower", "round_s.p50 on every workload"),
    ("controller.round_s.tail_pct", "pct", "higher",
     "percentile of controller.round_s.tail"),
    ("controller.rounds", "count", "higher",
     "sample count of controller.round_s.tail"),
    ("round.unattributed_share", "share", "lower",
     "round_s.p50 on every workload (time no layer call covers)"),
    ("aggregator.accept_s", "s", "lower", "round_s.p50 on async-cohort-memory"),
    ("aggregator.aggregate_s", "s", "lower", "round_s.p50 on async-cohort-memory"),
    ("aggregator.accepts", "count", "higher", "samples_per_s on every workload"),
    ("aggregator.rejects", "count", "lower", "accepted_update_share on every workload"),
    ("aggregator.peak_materialized", "count", "lower",
     "peak_rss_mb on async-cohort-memory"),
    ("persistor.save_s", "s", "lower", "round_s.p50 on pretrain-bert-shm"),
    ("job.teardown_s", "s", "lower",
     "job_s on compressed-bert-socket (the helper-thread join)"),
    ("trace.overhead_s", "s", "lower", "job_s measured traced minus untraced"),
    ("quality.valid_loss", "nats", "lower",
     "final_valid_error on every workload (Fig. 2 loss on the mlm ones)"),
)

_FILTERS = ("delta_encode", "delta_decode", "fp16_quantize", "fp16_dequantize",
            "topk_sparsify", "topk_densify")
# calls that are not work of their own for round attribution: waits on
# other lanes, and client.task, which holds the max_parallel gate wait
# around the training and codec calls that are timed themselves
_NOT_WORK = frozenset({"server.result_wait", "transport.receive", "client.task"})


@dataclass
class JobResult:
    """One ``run()`` as the benchmark saw it from outside."""

    started: float
    ended: float
    setup_done: float
    eval_spans: list[tuple[float, float]]
    attempted: int
    accepted: int
    accepted_samples: int
    failed_rounds: int
    rounds_run: int
    digest: str
    bytes_delivered: int
    peak_materialized: int
    records: list[Record] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return self.setup_done - self.started

    @property
    def round_bounds(self) -> list[tuple[float, float]]:
        ends = [end for _, end in self.eval_spans]
        return list(zip([self.setup_done] + ends[:-1], ends))

    @property
    def rounds_s(self) -> list[float]:
        return [end - start for start, end in self.round_bounds]

    @property
    def teardown_s(self) -> float:
        return self.ended - self.eval_spans[-1][1]

    @property
    def job_s(self) -> float:
        return self.ended - self.started


def tail_percentile(values: list[float]) -> tuple[float, float, int]:
    """The highest whole percentile with at least ten values beyond it.

    Returns ``(value, percentile, n)``.  A tail is never reported below
    the median: with twenty values or fewer the median (percentile 50) is
    returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    pct = math.floor(100.0 * (n - 10) / n) if n > 10 else 0
    if pct <= 50:
        return statistics.median(ordered), 50.0, n
    # nearest-rank: the value below which pct% of the samples fall
    rank = max(1, math.ceil(pct / 100.0 * n))
    return ordered[rank - 1], float(pct), n


def end_to_end(jobs: list[JobResult], valid_error: float,
               peak_rss_mb: float, worker_peak_rss_mb: float) -> dict[str, float]:
    """Medians over the run's untraced jobs (rounds pooled)."""
    attempted = sum(job.attempted for job in jobs)
    accepted = sum(job.accepted for job in jobs)
    return {
        "setup_s": statistics.median(job.setup_s for job in jobs),
        "round_s.p50": statistics.median(
            value for job in jobs for value in job.rounds_s),
        "job_s": statistics.median(job.job_s for job in jobs),
        # work over time across the whole run: steadier than a median of
        # per-job ratios when a run holds only a few jobs
        "samples_per_s": (sum(job.accepted_samples for job in jobs)
                          / sum(sum(job.rounds_s) for job in jobs)),
        "peak_rss_mb": peak_rss_mb,
        "worker_peak_rss_mb": worker_peak_rss_mb,
        "final_valid_error": valid_error,
        "accepted_update_share": accepted / attempted,
    }


def _overlap(start: float, end: float, spans: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``spans``."""
    covered = 0.0
    cursor = start
    for span_start, span_end in sorted(spans):
        lo, hi = max(span_start, cursor), min(span_end, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def per_layer(traced: list[JobResult], untraced: list[JobResult],
              driver_pid: int, controller_tid: int,
              valid_loss: float) -> dict[str, float]:
    """Layer metrics from the traced jobs' records."""
    n_jobs = len(traced)
    records = [record for job in traced for record in job.records]

    def calls(name: str, pid: int | None = None) -> list[Record]:
        return [record for record in records if record.name == name
                and (pid is None or record.pid == pid)]

    def per_job(name: str, pid: int | None = None) -> float:
        return sum(record.seconds for record in calls(name, pid)) / n_jobs

    def count(name: str) -> float:
        return len(calls(name)) / n_jobs

    def value(name: str) -> float:
        return sum(record.value for record in calls(name)) / n_jobs

    rounds = sum(job.rounds_run for job in traced)
    train = [record.seconds for record in calls("training.train")]
    batches = count("autograd.optim")
    metrics: dict[str, float] = {
        "provision.provision_s": per_job("provision.provision"),
        "server.register_s": per_job("server.register") + per_job("server.issue_nonce"),
        "runner.launch_s": per_job("runner.launch"),
        "runner.join_s": per_job("runner.join"),
        "transport.close_s": per_job("transport.close", driver_pid),
        "training.train_s.p50": statistics.median(train) if train else 0.0,
        "training.train_s.sum": per_job("training.train"),
        "training.step_ms": (1000.0 * per_job("training.train") / batches
                             if batches else 0.0),
        "training.batches": batches,
        "training.eval_s": per_job("training.eval"),
        "models.forward_s": per_job("models.forward"),
        "autograd.backward_s": per_job("autograd.backward"),
        "autograd.optim_s": per_job("autograd.optim"),
        "data.collate_s": per_job("data.collate"),
        "client.task_s": per_job("client.task"),
        "client.overhead_s": per_job("client.task") - per_job("training.train"),
        "codec.encode_s": per_job("codec.encode"),
        "codec.decode_s": per_job("codec.decode"),
        "codec.calls": count("codec.encode") + count("codec.decode"),
        "codec.bytes_out": value("codec.encode"),
        "codec.bytes_in": value("codec.decode"),
        "codec.bytes_raw": value("codec.encode_raw"),
        "codec.bytes_out_per_round": value("codec.encode") * n_jobs / rounds,
        "codec.bytes_in_per_round": value("codec.decode") * n_jobs / rounds,
        "stats.bytes_delivered_per_round":
            sum(job.bytes_delivered for job in traced) / rounds,
        "transport.send_s": per_job("transport.send"),
        "transport.recv_wait_s": per_job("transport.receive"),
        "transport.messages": count("transport.send"),
        "server.broadcast_s": per_job("server.broadcast"),
        "server.result_wait_s": per_job("server.result_wait"),
        "aggregator.accept_s": per_job("aggregator.accept"),
        "aggregator.aggregate_s": per_job("aggregator.aggregate"),
        "aggregator.accepts": value("aggregator.accept"),
        "aggregator.rejects": count("aggregator.accept") - value("aggregator.accept"),
        "aggregator.peak_materialized": float(max(
            job.peak_materialized for job in traced)),
        "persistor.save_s": per_job("persistor.save"),
        "quality.valid_loss": valid_loss,
        # timings, so taken from the untraced jobs of the same run
        "job.teardown_s": statistics.median(job.teardown_s for job in untraced),
    }
    for name in _FILTERS:
        metrics[f"filters.{name}_s"] = per_job(f"filters.{name}")
        metrics[f"filters.{name}_calls"] = count(f"filters.{name}")

    # round attribution, per traced job
    self_times: list[float] = []
    round_total = unattributed = 0.0
    for job in traced:
        lane = [(record.start, record.end) for record in job.records
                if record.pid == driver_pid and record.tid == controller_tid]
        lane += job.eval_spans
        working = [(record.start, record.end) for record in job.records
                   if record.name.removesuffix(".error") not in _NOT_WORK]
        working += job.eval_spans
        for start, end in job.round_bounds:
            self_times.append((end - start) - _overlap(start, end, lane))
            round_total += end - start
            unattributed += (end - start) - _overlap(start, end, working)
    metrics["controller.self_s"] = statistics.median(self_times)
    metrics["round.unattributed_share"] = unattributed / round_total
    tail, pct, n = tail_percentile([seconds for job in untraced
                                    for seconds in job.rounds_s])
    metrics["controller.round_s.tail"] = tail
    metrics["controller.round_s.tail_pct"] = pct
    metrics["controller.rounds"] = float(n)
    metrics["trace.overhead_s"] = (statistics.median(job.job_s for job in traced)
                                   - statistics.median(job.job_s for job in untraced))
    return metrics
