"""The round engine: synchronous ScatterAndGather and buffered async FedBuff.

Each round (paper Sec. III-A): broadcast the global model to every client,
wait for local training results, aggregate the weighted updates, persist the
new global model, validate it, repeat for E communication rounds.  The log
lines emitted here are the ones shown in the paper's Fig. 3.

One window loop runs both workflows: dispatch tasks, take the next verified
reply from ``server.next_result``, fold it into the aggregator, and close the
window when the policy says so; a window that meets quorum commits a new
global model.  The two workflows differ only in dispatch and close policy:

- :class:`ScatterAndGather` is the barrier: one dispatch wave per window to
  the sampled cohort, closed once every tasked site has answered or the
  deadline passes.  Stragglers are abandoned at the close, so every folded
  update trained on the current global model (staleness 0).
- :class:`AsyncScatterAndGather` is buffered, after FedBuff (Nguyen et al.,
  AISTATS 2022): every turn tops idle sites up to ``concurrency`` tasks in
  flight, and the window closes at ``buffer_size`` accepted updates.  An
  update that lands ``s`` commits after its dispatch is folded with weight
  ``w / (1 + s)**staleness_alpha``.

Every task carries a ``ROUND_NUMBER`` stamp (the window index at the
barrier, the global version in the buffered loop) that the client echoes on
its reply.  A reply that does not answer its site's outstanding dispatch is
discarded, so a late reply can never be folded into a later window.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.health import HealthMonitor
from .aggregators import Aggregator, MaterializationTracker
from .constants import DataKind, EventType, ReservedKey, ReturnCode, TaskName
from .dxo import DXO, MetaKey
from .events import FLComponent, format_names
from .filters import (
    CompressionConfig,
    DXOFilter,
    Float16Dequantize,
    Float16Quantize,
    TopKDensify,
    TopKSparsify,
    diff_tensors,
)
from .persistor import ModelPersistor
from .sampling import ClientSampler, UniformSampler
from .server import FLServer
from .shareable import Shareable, from_dxo, to_dxo
from .shareable_generator import FullModelShareableGenerator
from .stats import ClientRoundRecord, RoundRecord, RunStats

__all__ = ["ScatterAndGather", "AsyncScatterAndGather", "staleness_discount"]

Evaluator = Callable[[dict[str, np.ndarray]], dict[str, float]]

# Byte-scaled histogram buckets (powers of four from 1 KiB to 4 GiB) for the
# per-round wire-traffic distribution; the registry's default buckets are
# seconds-scaled and would lump every round into the overflow bucket.
_BYTE_BUCKETS: tuple[float, ...] = tuple(float(1024 * 4 ** i) for i in range(16))


def staleness_discount(staleness: int, alpha: float) -> float:
    """FedBuff's polynomial staleness penalty: ``1 / (1 + s)**alpha``."""
    return 1.0 / (1.0 + max(0, int(staleness))) ** alpha


class ScatterAndGather(FLComponent):
    """The controller coordinating rounds on the server.

    Parameters
    ----------
    server:
        Registered :class:`FLServer` with a live message bus.
    client_names:
        Participating sites (must all be registered).
    initial_weights:
        Round-0 global model.
    aggregator, shareable_generator, persistor:
        Pluggable workflow components, as in an NVFlare job config.
    num_rounds:
        E communication rounds.
    evaluator:
        Optional server-side validation run on each new global model; its
        metrics land in the run stats (key ``valid_acc`` drives best-model
        tracking).
    result_filters:
        Server-side task-result filter chain.
    min_clients:
        Quorum: a round needs at least this many OK results to aggregate.
    max_failed_rounds:
        How many *consecutive* under-quorum rounds to tolerate before
        aborting the run.  The default 0 aborts on the first one (the
        historical behaviour); with N > 0 an under-quorum round keeps the
        previous global model, marks the missing sites as dropped and moves
        on, and only the (N+1)-th consecutive failure raises.
    compression:
        Optional :class:`CompressionConfig` switching on the wire-efficient
        path: the server-side decompression filters are prepended to
        ``result_filters``, the aggregator is pointed at WEIGHT_DIFF when
        delta encoding is on, broadcasts are fp16-quantized, and — with
        downlink deltas enabled — each round ships only a versioned diff of
        the global model to every site that acknowledged the previous one
        (sites with a stale or unknown model version get the full weights).
    health:
        Optional :class:`~repro.obs.health.HealthMonitor` evaluating every
        round as it completes: per-client update diagnostics, anomaly
        alerts (surfaced on ``RunStats.alerts`` and ``health.jsonl``), a
        per-round status line through the console logger, and — when the
        monitor's quarantine policy is armed — exclusion of persistently
        diverging clients from aggregation for a few rounds.
    """

    # Each workflow's own log lines (Fig. 3 parses these), formatted from the
    # fields named in them; ``None`` means the workflow has no such line.
    _LINES: dict[str, str | None] = {
        "open": "Round %(window)d started.",
        "unreachable": "round %(window)d: %(count)d site(s) unreachable at "
                       "broadcast: %(names)s",
        "contribution": "Contribution from %(client)s received.",
        "commit": "End aggregation.",
        "done": "Round %(window)d finished.",
        "under_quorum": "round %(window)d: under quorum (%(accepted)d/"
                        "%(min_clients)d); keeping previous global model "
                        "(%(streak)d/%(max_failed)d tolerated failures)",
        "abort": "round %(window)d: only %(accepted)d usable results "
                 "(min_clients=%(min_clients)d) after %(streak)d consecutive "
                 "under-quorum round(s)",
    }
    # extra attributes of the "round" span, and the window's key on the
    # "aggregate" span
    _ROUND_SPAN_ATTRS: dict[str, str] = {}
    _AGGREGATE_SPAN_KEY = "round"

    def __init__(self, server: FLServer, client_names: list[str],
                 initial_weights: dict[str, np.ndarray],
                 aggregator: Aggregator,
                 shareable_generator: FullModelShareableGenerator | None = None,
                 persistor: ModelPersistor | None = None,
                 num_rounds: int = 10,
                 evaluator: Evaluator | None = None,
                 result_filters: list[DXOFilter] | None = None,
                 min_clients: int | None = None,
                 clients_per_round: int | None = None,
                 result_timeout: float = 600.0,
                 max_failed_rounds: int = 0,
                 sampling_seed: int = 0,
                 sampler: ClientSampler | None = None,
                 compression: CompressionConfig | None = None,
                 health: HealthMonitor | None = None) -> None:
        super().__init__()
        if num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        if not client_names:
            raise ValueError("need at least one client")
        if max_failed_rounds < 0:
            raise ValueError("max_failed_rounds must be non-negative")
        self.server = server
        self.client_names = list(client_names)
        self.global_weights = {key: np.asarray(value).copy()
                               for key, value in initial_weights.items()}
        self.aggregator = aggregator
        self.shareable_generator = shareable_generator or FullModelShareableGenerator()
        self.persistor = persistor
        self.num_rounds = num_rounds
        self.evaluator = evaluator
        self.result_filters = list(result_filters or [])
        if clients_per_round is not None and not 0 < clients_per_round <= len(client_names):
            raise ValueError("clients_per_round must be in [1, len(client_names)]")
        self.clients_per_round = clients_per_round
        self.result_timeout = result_timeout
        # Pluggable per-round cohort selection (repro.flare.sampling); the
        # default reproduces the historical seeded uniform draw.
        self.sampler = sampler if sampler is not None \
            else UniformSampler(seed=sampling_seed)
        default_min = clients_per_round if clients_per_round is not None else len(client_names)
        self.min_clients = min_clients if min_clients is not None else default_min
        if clients_per_round is not None and self.min_clients > clients_per_round:
            raise ValueError(
                f"min_clients={self.min_clients} can never be met when only "
                f"clients_per_round={clients_per_round} site(s) are tasked")
        self.max_failed_rounds = max_failed_rounds
        self._under_quorum_streak = 0
        self.compression = compression
        if compression is not None:
            self.result_filters = (compression.server_result_filters()
                                   + self.result_filters)
            compression.adapt_aggregator(self.aggregator)
        # Downlink-delta bookkeeping: the model (and version) each client is
        # known to hold, plus the last broadcast global to diff against.
        self._downlink_delta = bool(compression is not None and compression.delta
                                    and compression.downlink_delta)
        self._last_broadcast: dict[str, np.ndarray] | None = None
        self._broadcast_version = -1
        self._client_version: dict[str, int] = {}
        # Error feedback for sparsified downlink deltas: the part of each
        # round's delta that top-k truncation did not ship, carried into the
        # next round so every coordinate is eventually delivered.
        self._downlink_residual: dict[str, np.ndarray] = {}
        self.health = health
        self.stats = RunStats()
        # Bounded-materialization instrumentation: every decoded client
        # update is accounted while alive (in-flight fold + any aggregator
        # stash); the run's high-water mark lands on the stats.
        self.materialization = MaterializationTracker()
        self.aggregator.tracker = self.materialization
        # Outstanding dispatches: site -> (task stamp, global version it
        # trains from, dispatch clock).  The version counts commits so far.
        self._in_flight: dict[str, tuple[int, int, float]] = {}
        self._version = 0
        self._wave = 0
        self._participants: list[str] = []
        self._discarded_stale = 0
        # The simulator's sequential drive runs the tasked clients here after
        # every dispatch wave; threaded and process clients leave it unset.
        self._drive: Callable[[], None] | None = None

    # ------------------------------------------------------------------
    def run(self) -> RunStats:
        """Execute all rounds; returns the collected statistics."""
        fl_ctx = self.server.fl_ctx
        self.fire_event(EventType.START_RUN, fl_ctx)
        for window_index in range(self.num_rounds):
            # One span name for both workflows, so round-oriented consumers
            # (tail, dashboard, trace export) cover both.
            with obs_trace.span("round", round=window_index,
                                **self._ROUND_SPAN_ATTRS) as round_span:
                accepted = self._run_round(window_index, fl_ctx)
                self._annotate_round(round_span, self.stats.rounds[-1], accepted)
        self._drain_in_flight()
        self.fire_event(EventType.END_RUN, fl_ctx)
        self._record_delivery()
        self.stats.peak_materialized_updates = self.materialization.peak
        return self.stats

    # ------------------------------------------------------------------
    def _run_round(self, window_index: int, fl_ctx) -> int:
        """Run one window: dispatch, fold replies as they arrive, close and
        (quorum permitting) commit.  Returns the number of accepted updates."""
        window_started = time.perf_counter()
        self.log_info(self._LINES["open"],
                      {"window": window_index, "version": self._version})
        fl_ctx.set_prop(ReservedKey.CURRENT_ROUND, window_index)
        fl_ctx.set_prop("current_round", window_index)
        self.fire_event(EventType.ROUND_STARTED, fl_ctx)
        bytes_before = self.server.delivered()["bytes_delivered"]

        record = RoundRecord(round_number=window_index)
        self.aggregator.reset()
        accepted = 0
        contributors: set[str] = set()
        failed: set[str] = set()
        self._dispatch(window_index, fl_ctx, opening=True)
        deadline = time.monotonic() + self.result_timeout
        # Streaming aggregation: each reply is decoded, filtered and folded
        # into the aggregator's running sums the moment it arrives — the
        # server holds O(1) model copies at any time instead of buffering
        # every client's full state dict.
        while self._in_flight and not self._window_full(accepted):
            result = self.server.next_result(timeout=deadline - time.monotonic())
            if result is None:
                break
            sender, reply = result
            accepted += self._fold(window_index, sender, reply, record,
                                   contributors, failed, fl_ctx)
            del result, reply  # drop the blob before the next wait
            if not self._window_full(accepted):
                self._dispatch(window_index, fl_ctx, opening=False)
        self._close(record, contributors, failed)

        obs_metrics.counter("federation.rounds").inc()
        if accepted < self.min_clients:
            obs_metrics.counter("federation.under_quorum_rounds").inc()
            self._under_quorum_streak += 1
            record.quorum_met = False
            self._close_window(record, window_started, bytes_before)
            fields = {"window": window_index, "accepted": accepted,
                      "min_clients": self.min_clients, "version": self._version,
                      "streak": self._under_quorum_streak,
                      "max_failed": self.max_failed_rounds}
            if self._under_quorum_streak > self.max_failed_rounds:
                raise RuntimeError(self._LINES["abort"] % fields)
            self.log_warning(self._LINES["under_quorum"], fields)
            self.fire_event(EventType.ROUND_DONE, fl_ctx)
            return accepted
        self._under_quorum_streak = 0

        self.fire_event(EventType.BEFORE_AGGREGATION, fl_ctx)
        with obs_trace.span("aggregate", **{self._AGGREGATE_SPAN_KEY: window_index}):
            aggregation_started = time.perf_counter()
            aggregated = self.aggregator.aggregate(fl_ctx)
            obs_metrics.histogram("federation.aggregation_seconds").observe(
                time.perf_counter() - aggregation_started)
        self.global_weights = self.shareable_generator.dxo_to_learnable(
            aggregated, self.global_weights)
        self._version += 1
        self.fire_event(EventType.AFTER_AGGREGATION, fl_ctx)
        self.log_info(self._LINES["commit"], {"window": window_index,
                                              "version": self._version,
                                              "accepted": accepted})

        if self.evaluator is not None:
            record.global_metrics = dict(self.evaluator(self.global_weights))
        if self.persistor is not None:
            self.persistor.save(self.global_weights, fl_ctx,
                                metric=record.global_metrics.get("valid_acc"))
        self._close_window(record, window_started, bytes_before)
        if self._LINES["done"] is not None:
            self.log_info(self._LINES["done"], {"window": window_index})
        self.fire_event(EventType.ROUND_DONE, fl_ctx)
        return accepted

    # ------------------------------------------------------------------
    def _fold(self, window_index: int, sender: str, reply: Shareable,
              record: RoundRecord, contributors: set[str], failed: set[str],
              fl_ctx) -> int:
        """Fold one reply into the open window; 1 if the aggregator took it."""
        sent = self._in_flight.get(sender)
        if sent is None or reply.current_round != sent[0]:
            # answers a dispatch this window no longer waits for; the site
            # keeps its slot until its outstanding task is answered
            self.log_warning("reply from %s answers task %s, not its outstanding "
                             "dispatch %s; discarded", sender, reply.current_round,
                             None if sent is None else sent[0])
            return 0
        del self._in_flight[sender]
        stamp, version, dispatched = sent
        staleness = self._version - version
        if reply.return_code != ReturnCode.OK:
            if reply.return_code == ReturnCode.EXECUTION_EXCEPTION:
                # the client decoded (and applied) the task data before
                # its training failed, so its model cache is current
                self._client_version[sender] = stamp
            failed.add(sender)
            self.log_warning("client %s returned %s; skipping its update",
                             sender, reply.return_code)
            return 0
        self._client_version[sender] = stamp
        dxo = to_dxo(reply)
        self.materialization.acquire()  # decoded update is now live
        for result_filter in self.result_filters:
            with obs_trace.span("filter", stage="server_result",
                                filter=type(result_filter).__name__,
                                client=sender):
                dxo = result_filter.process(dxo, fl_ctx)
        if self._LINES["contribution"] is not None:
            self.log_info(self._LINES["contribution"], {"client": sender})
        steps = int(dxo.get_meta_prop(MetaKey.NUM_STEPS_CURRENT_ROUND, 0))
        if self.health is not None:
            self.health.record_update(
                sender, dxo.data, data_kind=dxo.data_kind, meta=dxo.meta,
                latency_seconds=time.perf_counter() - dispatched)
        accepted = 0
        discount = self._admit(sender, staleness)
        if discount is None:
            pass  # too stale to fold; recorded below
        elif self.health is not None and self.health.is_quarantined(
                sender, window_index):
            # Responded fine but is serving a quarantine window: its
            # diagnostics are recorded, its update is not aggregated and
            # it is not counted toward quorum.
            contributors.add(sender)
            self.log_warning("client %s is quarantined; excluding its "
                             "update from aggregation", sender)
        else:
            weight = float(dxo.get_meta_prop(MetaKey.NUM_STEPS_CURRENT_ROUND, 1.0))
            dxo.set_meta_prop(MetaKey.NUM_STEPS_CURRENT_ROUND, weight * discount)
            if self.aggregator.accept(dxo, sender, fl_ctx):
                accepted = 1
                contributors.add(sender)
        record.client_records.append(ClientRoundRecord(
            client=sender,
            round_number=window_index,
            train_loss=float(dxo.get_meta_prop("train_loss", float("nan"))),
            valid_acc=float(dxo.get_meta_prop("valid_acc", float("nan"))),
            num_steps=steps,
            seconds=float(dxo.get_meta_prop("train_seconds", 0.0)),
            staleness=staleness,
        ))
        del dxo
        self.materialization.release()  # folded, discarded or stash-accounted
        return accepted

    # ------------------------------------------------------------------
    # barrier policy (AsyncScatterAndGather overrides these)
    # ------------------------------------------------------------------
    def _dispatch(self, window_index: int, fl_ctx, opening: bool) -> None:
        """One wave per window: task the sampled cohort when it opens."""
        if not opening:
            return
        if self.clients_per_round is not None and self.clients_per_round < len(self.client_names):
            participants = self.sampler.sample(self.client_names,
                                               self.clients_per_round,
                                               window_index)
            self.log_info("sampled %d/%d clients for round %d: %s",
                          len(participants), len(self.client_names), window_index,
                          format_names(participants))
        else:
            participants = list(self.client_names)
        self._participants = participants
        task, overrides = self._build_round_tasks(participants, window_index, fl_ctx)
        if self.health is not None:
            # Reference = exactly what this round broadcasts (post fp16/delta
            # canonicalization), so client updates are measured against it.
            self.health.begin_round(window_index, participants,
                                    reference=self.global_weights)
        self._send_wave(window_index, participants, task, fl_ctx, overrides)

    def _window_full(self, accepted: int) -> bool:
        """The barrier never closes on a count: it waits for every tasked site."""
        return False

    def _admit(self, sender: str, staleness: int) -> float | None:
        """Fold-weight factor for an update, or ``None`` to discard it.

        Behind the barrier every update trained on the current global model
        (staleness 0), where the FedBuff discount is exactly 1.
        """
        return 1.0

    def _close(self, record: RoundRecord, contributors: set[str],
               failed: set[str]) -> None:
        """Abandon stragglers; every tasked site that did not contribute is
        dropped."""
        if self._in_flight:
            answered = len(record.client_records) + len(failed)
            self.server.log_warning(
                "collected %d/%d result(s) before the %.1fs deadline",
                answered, answered + len(self._in_flight), self.result_timeout)
            self._in_flight.clear()
        record.dropped_clients = sorted(set(self._participants) - contributors)
        if record.dropped_clients:
            obs_metrics.counter("federation.dropped_clients").inc(len(record.dropped_clients))
            self.log_warning("round %d: dropped site(s): %s", record.round_number,
                             format_names(record.dropped_clients))

    def _annotate_round(self, span, record: RoundRecord, accepted: int) -> None:
        span.set_attr("quorum_met", record.quorum_met)
        span.set_attr("n_clients", len(record.client_records))

    # ------------------------------------------------------------------
    # shared window plumbing
    # ------------------------------------------------------------------
    def _send_wave(self, window_index: int, targets: list[str], task: Shareable,
                   fl_ctx, overrides: dict[str, Shareable] | None = None) -> None:
        """Broadcast one dispatch wave and track each reachable target."""
        dispatched = time.perf_counter()
        unreachable = set(self.server.broadcast_task(TaskName.TRAIN, task, targets,
                                                     overrides=overrides))
        stamp = task.get_header(ReservedKey.ROUND_NUMBER)
        for target in targets:
            if target not in unreachable:
                self._in_flight[target] = (stamp, self._version, dispatched)
        if unreachable:
            self.log_warning(self._LINES["unreachable"], {
                "window": window_index, "wave": self._wave,
                "count": len(unreachable),
                "names": format_names([t for t in targets if t in unreachable])})
        self._wave += 1
        self.fire_event(EventType.TASKS_BROADCAST, fl_ctx)
        if self._drive is not None:
            self._drive()

    def _close_window(self, record: RoundRecord, window_started: float,
                      bytes_before: int) -> None:
        """Window bookkeeping: timings, wire bytes, health verdicts."""
        record.seconds = time.perf_counter() - window_started
        record.bytes_on_wire = self.server.delivered()["bytes_delivered"] - bytes_before
        self._record_delivery()
        obs_metrics.histogram("federation.round_seconds").observe(record.seconds)
        obs_metrics.histogram("federation.round_bytes",
                              buckets=_BYTE_BUCKETS).observe(record.bytes_on_wire)
        self.stats.add_round(record)
        if self.health is None:
            return
        round_health, alerts = self.health.end_round(
            seconds=record.seconds,
            bytes_on_wire=record.bytes_on_wire,
            quorum_met=record.quorum_met,
            global_metrics=record.global_metrics,
            # Under quorum the global model did not move; passing no new
            # global keeps the aggregate-update norm/cosines undefined.
            new_global=self.global_weights if record.quorum_met else None)
        record.quarantined_clients = list(round_health.quarantined)
        self.stats.alerts.extend(alerts)
        self.log_info("%s", self.health.status_line(round_health, alerts))

    def _record_delivery(self) -> None:
        """Copy the server endpoint's delivery totals onto the stats, and
        their growth since the last copy onto the registry's counters."""
        delivered = self.server.delivered()
        for field in ("messages_delivered", "bytes_delivered", "retries",
                      "duplicates_dropped"):
            obs_metrics.counter(f"transport.{field}").inc(
                delivered[field] - getattr(self.stats, field))
            setattr(self.stats, field, delivered[field])

    def _drain_in_flight(self) -> None:
        """Collect (and discard) replies from sites still holding a task.

        After the final buffered commit up to ``concurrency`` tasks are
        outstanding; their replies must be consumed so the server inbox does
        not leak into whatever runs on this bus next.  Under the sequential
        drive every reply is already queued, so the drain is instant.  The
        barrier abandons its stragglers at every close and has none.
        """
        drained = 0
        deadline = time.monotonic() + min(self.result_timeout, 5.0)
        while self._in_flight:
            result = self.server.next_result(timeout=deadline - time.monotonic())
            if result is None:
                break
            self._in_flight.pop(result[0], None)
            drained += 1
        if drained or self._discarded_stale:
            self.log_info("run done: drained %d in-flight result(s), "
                          "discarded %d over-stale update(s)",
                          drained, self._discarded_stale)

    # ------------------------------------------------------------------
    # downlink payload construction
    # ------------------------------------------------------------------
    def _build_round_tasks(self, participants: list[str], round_number: int,
                           fl_ctx) -> tuple[Shareable, dict[str, Shareable] | None]:
        """Build the round's task payload(s).

        Without compression this is the historical path: one full-model
        shareable for everyone.  With compression, the broadcast global is
        (optionally) rounded through fp16 — making the canonical model
        bit-identical on both ends of the wire — and, once a baseline has
        been established, sites that acknowledged the previous broadcast
        receive a small versioned WEIGHT_DIFF while stale or unknown sites
        get the full weights.
        """
        if self.compression is None:
            task = self.shareable_generator.learnable_to_shareable(
                self.global_weights, fl_ctx)
            task.set_header(ReservedKey.ROUND_NUMBER, round_number)
            task.set_header(ReservedKey.TOTAL_ROUNDS, self.num_rounds)
            return task, None

        if self.compression.float16:
            # Quantize the canonical global once per round so the base the
            # clients diff against is exactly the model the server holds;
            # idempotent, so unchanged (under-quorum) models are stable.
            self.global_weights = {
                key: value.astype(np.float16).astype(value.dtype)
                if value.dtype in (np.float32, np.float64) else value
                for key, value in ((k, np.asarray(v))
                                   for k, v in self.global_weights.items())}

        version = round_number
        synced: list[str] = []
        if (self._downlink_delta and self._last_broadcast is not None
                and set(self._last_broadcast) == set(self.global_weights)):
            synced = [client for client in participants
                      if self._client_version.get(client) == self._broadcast_version]
        payloads: dict[str, DXO] = {}
        if synced:
            delta = {key: diff_tensors(self.global_weights[key],
                                       self._last_broadcast[key])
                     for key in self.global_weights}
            meta = {MetaKey.MODEL_VERSION: version,
                    MetaKey.BASE_VERSION: self._broadcast_version}
            payloads["delta"] = self._encode_downlink_delta(delta, meta, fl_ctx)
        # built after any error-feedback truncation, so full-broadcast sites
        # receive exactly the model the delta sites reconstruct
        payloads["full"] = DXO(data_kind=DataKind.WEIGHTS,
                               data=self.global_weights,
                               meta={MetaKey.MODEL_VERSION: version})

        encoded: dict[str, Shareable] = {}
        for kind, dxo in payloads.items():
            for task_filter in self.compression.downlink_task_filters():
                with obs_trace.span("filter", stage="downlink",
                                    filter=type(task_filter).__name__):
                    dxo = task_filter.process(dxo, fl_ctx)
            shareable = from_dxo(dxo)
            shareable.set_header(ReservedKey.ROUND_NUMBER, round_number)
            shareable.set_header(ReservedKey.TOTAL_ROUNDS, self.num_rounds)
            encoded[kind] = shareable
        if synced:
            self.log_info(
                "round %d: delta broadcast to %d/%d site(s), full model to the rest",
                round_number, len(synced), len(participants))

        if self._downlink_delta:
            # base for the next round's diff: what this round put on the wire
            # (dxo_to_learnable always builds fresh arrays, so references are
            # stable across the coming aggregation)
            self._last_broadcast = {key: np.asarray(value)
                                    for key, value in self.global_weights.items()}
        self._broadcast_version = version
        overrides = ({client: encoded["delta"] for client in synced}
                     if synced else None)
        return encoded["full"], overrides

    def _encode_downlink_delta(self, delta: dict[str, np.ndarray], meta: dict,
                               fl_ctx) -> DXO:
        """Build the delta payload, keeping server and clients bit-identical.

        The payload — exactly as the clients will reconstruct it after
        dequantization/densification — also becomes the canonical global
        model, rebuilt with the same ``base + shipped`` arithmetic the
        clients run, so every synced site and the server hold the same
        weights bit for bit.  (Even the lossless f32 path needs this:
        ``base + (g - base)`` can differ from ``g`` by an ulp.)  Whatever the
        truncation/rounding did not deliver is carried in
        ``_downlink_residual`` into the next round's delta: no update is
        lost, only deferred.
        """
        for key, remainder in self._downlink_residual.items():
            if key in delta and delta[key].dtype.kind == "f":
                delta[key] = delta[key] + remainder
        if self.compression.top_k:
            dense = DXO(data_kind=DataKind.WEIGHT_DIFF, data=delta,
                        meta=dict(meta))
            payload = TopKSparsify(ratio=self.compression.top_k).process(
                dense, fl_ctx)
            if self.compression.float16:
                # round the shipped values through fp16 up front so the
                # canonical model matches what the wire actually delivers
                payload = Float16Quantize().process(payload, fl_ctx)
                shipped = TopKDensify().process(
                    Float16Dequantize().process(payload, fl_ctx), fl_ctx).data
            else:
                shipped = TopKDensify().process(payload, fl_ctx).data
        elif self.compression.float16:
            # dense fp16 delta: the difference of two fp16-representable
            # models need not be fp16-representable, so pre-round it and
            # account the rounding in the residual
            shipped = {key: value.astype(np.float16).astype(value.dtype)
                       if value.dtype in (np.float32, np.float64) else value
                       for key, value in delta.items()}
            payload = DXO(data_kind=DataKind.WEIGHT_DIFF, data=shipped,
                          meta=dict(meta))
        else:
            shipped = delta
            payload = DXO(data_kind=DataKind.WEIGHT_DIFF, data=delta,
                          meta=dict(meta))
        target = self.global_weights
        # same expression DeltaDecode evaluates, so the result is bit-equal
        self.global_weights = {
            key: (np.asarray(self._last_broadcast[key]) + np.asarray(shipped[key]))
            .astype(np.asarray(target[key]).dtype, copy=False)
            for key in target}
        self._downlink_residual = {
            key: delta[key] - diff_tensors(self.global_weights[key],
                                           self._last_broadcast[key])
            for key in delta if delta[key].dtype.kind == "f"}
        return payload


class AsyncScatterAndGather(ScatterAndGather):
    """Buffered asynchronous federated aggregation (FedBuff-style).

    The barrier makes each round as slow as its slowest site; here the
    global model carries a **version** (commits so far) and freed sites are
    re-tasked with the newest one while others are still training.  Under
    the in-memory fabric with ``SimulatorRunner``'s sequential drive
    (``threads=False``) every dispatch wave is answered in registration
    order and sampling is a pure function of ``(seed, wave)``, so a
    same-seed run is bit-reproducible (`scripts/cohort_smoke.py` asserts it).

    Parameters mirror :class:`ScatterAndGather` where shared; the async-only
    knobs are:

    buffer_size:
        Accepted updates per global commit (FedBuff's K).
    concurrency:
        Target number of sites holding an outstanding task at any instant
        (FedBuff's Mc).  Defaults to ``min(2 * buffer_size, n_sites)`` so
        the buffer refills while stale stragglers are still training.
    staleness_alpha:
        Exponent of the staleness discount; 0 disables discounting.
    max_staleness:
        Updates whose dispatch version is more than this many commits old
        are dropped instead of folded (``None`` = accept any staleness).
    num_rounds:
        Number of global commits to run (each commit is recorded as one
        round in the run stats, so downstream tooling needs no changes).
    """

    _LINES = {
        "open": "Commit window %(window)d started (global version %(version)d).",
        "unreachable": "dispatch wave %(wave)d: %(count)d site(s) "
                       "unreachable: %(names)s",
        "contribution": None,
        "commit": "Committed global version %(version)d (%(accepted)d "
                  "update(s), window %(window)d).",
        "done": None,
        "under_quorum": "commit window %(window)d: under quorum (%(accepted)d/"
                        "%(min_clients)d); keeping global version %(version)d "
                        "(%(streak)d/%(max_failed)d tolerated failures)",
        "abort": "commit window %(window)d: only %(accepted)d usable "
                 "update(s) (min_clients=%(min_clients)d) after %(streak)d "
                 "consecutive under-quorum window(s)",
    }
    _ROUND_SPAN_ATTRS = {"mode": "async"}
    _AGGREGATE_SPAN_KEY = "commit"

    def __init__(self, server: FLServer, client_names: list[str],
                 initial_weights: dict[str, np.ndarray],
                 aggregator: Aggregator,
                 shareable_generator: FullModelShareableGenerator | None = None,
                 persistor: ModelPersistor | None = None,
                 num_rounds: int = 10,
                 buffer_size: int = 4,
                 concurrency: int | None = None,
                 staleness_alpha: float = 0.5,
                 max_staleness: int | None = None,
                 evaluator: Evaluator | None = None,
                 result_filters: list[DXOFilter] | None = None,
                 min_clients: int | None = None,
                 result_timeout: float = 600.0,
                 max_failed_rounds: int = 0,
                 sampling_seed: int = 0,
                 sampler: ClientSampler | None = None,
                 health: HealthMonitor | None = None) -> None:
        super().__init__(
            server, client_names, initial_weights, aggregator,
            shareable_generator=shareable_generator, persistor=persistor,
            num_rounds=num_rounds, evaluator=evaluator,
            result_filters=result_filters,
            min_clients=buffer_size if min_clients is None else min_clients,
            result_timeout=result_timeout, max_failed_rounds=max_failed_rounds,
            sampling_seed=sampling_seed, sampler=sampler, health=health)
        if buffer_size <= 0:
            raise ValueError("buffer_size must be positive")
        if staleness_alpha < 0:
            raise ValueError("staleness_alpha must be non-negative")
        if max_staleness is not None and max_staleness < 0:
            raise ValueError("max_staleness must be non-negative")
        self.buffer_size = buffer_size
        if concurrency is None:
            concurrency = min(2 * buffer_size, len(self.client_names))
        if not 0 < concurrency <= len(self.client_names):
            raise ValueError("concurrency must be in [1, len(client_names)]")
        self.concurrency = concurrency
        self.staleness_alpha = staleness_alpha
        self.max_staleness = max_staleness
        if self.min_clients > buffer_size:
            raise ValueError(
                f"min_clients={self.min_clients} can never be met: a commit "
                f"window closes after buffer_size={buffer_size} update(s)")

    # ------------------------------------------------------------------
    # buffered policy
    # ------------------------------------------------------------------
    def _dispatch(self, window_index: int, fl_ctx, opening: bool) -> None:
        """Top idle sites up to the concurrency target with the current global.

        Site choice goes through the sampler (one "wave" per call, so the
        draw is a pure function of ``(seed, wave)``); unreachable sites do
        not count as outstanding.
        """
        if opening and self.health is not None:
            self.health.begin_round(window_index, list(self.client_names),
                                    reference=self.global_weights)
        idle = [name for name in self.client_names if name not in self._in_flight]
        want = min(self.concurrency - len(self._in_flight), len(idle))
        if want <= 0:
            return
        targets = self.sampler.sample(idle, want, self._wave)
        task = self.shareable_generator.learnable_to_shareable(
            self.global_weights, fl_ctx)
        task.set_header(ReservedKey.ROUND_NUMBER, self._version)
        task.set_header(ReservedKey.TOTAL_ROUNDS, self.num_rounds)
        self._send_wave(window_index, targets, task, fl_ctx)

    def _window_full(self, accepted: int) -> bool:
        """A commit window closes at ``buffer_size`` accepted updates."""
        return accepted >= self.buffer_size

    def _admit(self, sender: str, staleness: int) -> float | None:
        """Discount by staleness; discard past ``max_staleness``."""
        obs_metrics.histogram("federation.async_staleness").observe(staleness)
        if self.max_staleness is not None and staleness > self.max_staleness:
            self._discarded_stale += 1
            self.log_warning(
                "update from %s is %d commit(s) stale (max %d); discarded",
                sender, staleness, self.max_staleness)
            return None
        return staleness_discount(staleness, self.staleness_alpha)

    def _close(self, record: RoundRecord, contributors: set[str],
               failed: set[str]) -> None:
        """Sites still training keep their slots; only failures are dropped."""
        record.dropped_clients = sorted(failed)

    def _annotate_round(self, span, record: RoundRecord, accepted: int) -> None:
        span.set_attr("version", self._version)
        span.set_attr("accepted", accepted)
        span.set_attr("buffer_size", self.buffer_size)
        super()._annotate_round(span, record, accepted)
        if record.client_records:
            span.set_attr("staleness_max",
                          max(client.staleness for client in record.client_records))
