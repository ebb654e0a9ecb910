"""Telemetry counted once: metrics.json, trace.jsonl and RunStats agree.

One seeded 2-client, 2-round job runs with threaded clients on each fabric
(memory, socket, shm).  Every codec pass must be counted exactly once — its
histogram count equals its span count, and a second identical run in the
same interpreter counts the same — and the delivery totals must mean the
same thing on every fabric: bytes crossing the server endpoint, both
directions, worker telemetry excluded.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.flare import DXO, DataKind, FLJob, Learner, MetaKey, SimulatorRunner
from repro.flare.filters import DXOFilter

from .test_telemetry_e2e import load_trace_names

FABRICS = ("memory", "socket", "shm")
DELIVERY_FIELDS = ("messages_delivered", "bytes_delivered", "retries",
                   "duplicates_dropped")


class SlowDrift(Learner):
    """Seeded drift, slow enough that worker telemetry streams mid-round."""

    def __init__(self, site: str) -> None:
        super().__init__(name="SlowDrift")
        self.rng = np.random.default_rng(int(site.rsplit("-", 1)[1]))

    def train(self, dxo: DXO, fl_ctx) -> DXO:
        time.sleep(0.2)
        data = {key: np.asarray(value)
                + self.rng.normal(0, 1e-3, np.shape(value)).astype(np.float32)
                for key, value in dxo.data.items()}
        return DXO(DataKind.WEIGHTS, data=data,
                   meta={MetaKey.NUM_STEPS_CURRENT_ROUND: 1})

    def validate(self, dxo: DXO, fl_ctx) -> dict[str, float]:
        return {"valid_acc": 0.0}


class PinTrainSeconds(DXOFilter):
    """Overwrite the client's measured ``train_seconds`` with a constant.

    It is the one payload field that is not a function of the seed; its
    repr length can move a blob across a 64-byte alignment boundary, so
    byte totals are only comparable across runs with it pinned.
    """

    def process(self, dxo: DXO, fl_ctx) -> DXO:
        dxo.set_meta_prop("train_seconds", 0.0)
        return dxo


def run_job(fabric: str, run_dir, telemetry: bool):
    job = FLJob(name="reconcile",
                initial_weights={"w": np.zeros((64, 64), dtype=np.float32)},
                learner_factory=SlowDrift, num_rounds=2, min_clients=2,
                result_timeout=60.0, task_result_filters=[PinTrainSeconds()])
    return SimulatorRunner(job, n_clients=2, seed=3, run_dir=run_dir,
                           capture_log=False, transport=fabric,
                           telemetry=telemetry, telemetry_flush=0.05).run()


def codec_counts(run_dir) -> dict[str, int]:
    """Histogram observations and trace spans per codec direction."""
    metrics = json.loads((run_dir / "metrics.json").read_text())
    spans = load_trace_names(run_dir / "trace.jsonl")
    counts: dict[str, int] = {}
    for direction in ("encode", "decode"):
        counts[f"{direction}_histogram"] = sum(
            entry["count"] for entry in metrics["histograms"]
            if entry["name"] == f"codec.{direction}_seconds")
        counts[f"{direction}_spans"] = spans.get(f"codec.{direction}", 0)
    return counts


def delivery(stats) -> dict:
    return {"messages_delivered": stats.messages_delivered,
            "bytes_delivered": stats.bytes_delivered,
            "bytes_on_wire": [record.bytes_on_wire for record in stats.rounds]}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per fabric: two identical telemetry runs and one without telemetry."""
    root = tmp_path_factory.mktemp("reconcile")
    return {fabric: {
        "first": run_job(fabric, root / f"{fabric}-first", telemetry=True),
        "second": run_job(fabric, root / f"{fabric}-second", telemetry=True),
        "off": run_job(fabric, root / f"{fabric}-off", telemetry=False),
    } for fabric in FABRICS}


@pytest.mark.parametrize("fabric", FABRICS)
def test_codec_histograms_count_each_span_once(runs, fabric):
    counts = codec_counts(runs[fabric]["first"].run_dir)
    assert counts["encode_spans"] > 0 and counts["decode_spans"] > 0
    assert counts["encode_histogram"] == counts["encode_spans"]
    assert counts["decode_histogram"] == counts["decode_spans"]


@pytest.mark.parametrize("fabric", FABRICS)
def test_second_run_in_the_same_interpreter_counts_the_same(runs, fabric):
    assert codec_counts(runs[fabric]["second"].run_dir) \
        == codec_counts(runs[fabric]["first"].run_dir)


@pytest.mark.parametrize("telemetry", ["off", "first"])
def test_delivery_totals_equal_across_fabrics(runs, telemetry):
    totals = {fabric: delivery(runs[fabric][telemetry].stats)
              for fabric in FABRICS}
    assert totals["memory"]["bytes_delivered"] > 0
    assert totals["socket"] == totals["memory"]
    assert totals["shm"] == totals["memory"]


@pytest.mark.parametrize("fabric", FABRICS)
def test_metrics_json_delivery_counters_equal_run_stats(runs, fabric):
    result = runs[fabric]["first"]
    counters = {entry["name"]: entry["value"] for entry in json.loads(
        (result.run_dir / "metrics.json").read_text())["counters"]
        if not entry["tags"]}
    for field in DELIVERY_FIELDS:
        assert counters[f"transport.{field}"] == getattr(result.stats, field)
