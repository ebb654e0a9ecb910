"""Exporter tests: Prometheus text rendering, the HTTP endpoint and the
/healthz view of a quarantining run."""

import json
import sys
import urllib.request
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "flare"))
from helpers import ToyLearner, toy_weights  # noqa: E402

from repro.flare import DXO, FLJob, SimulatorRunner  # noqa: E402
from repro.obs.exporter import (  # noqa: E402
    MetricsExporter,
    escape_label_value,
    parse_prometheus_text,
    render_prometheus,
    sanitize_metric_name,
)
from repro.obs.health import HealthMonitor, default_detectors  # noqa: E402
from repro.obs.metrics import MetricsRegistry  # noqa: E402


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------
def test_sanitize_metric_name():
    assert sanitize_metric_name("sys.rss_bytes") == "sys_rss_bytes"
    assert sanitize_metric_name("transport.bytes-raw") == "transport_bytes_raw"
    assert sanitize_metric_name("9lives") == "_9lives"
    assert sanitize_metric_name("") == "_"


def test_escape_label_value():
    assert escape_label_value('a"b') == r'a\"b'
    assert escape_label_value("a\\b") == "a\\\\b"
    assert escape_label_value("a\nb") == r"a\nb"


def test_render_counter_and_gauge_golden():
    registry = MetricsRegistry()
    registry.counter("federation.rounds").inc(3)
    registry.gauge("sys.rss_bytes", process="server").set(1024)
    text = render_prometheus([registry.to_dict()])
    assert "# TYPE federation_rounds counter\nfederation_rounds 3\n" in text
    assert ("# TYPE sys_rss_bytes gauge\n"
            'sys_rss_bytes{process="server"} 1024\n') in text
    assert text.endswith("\n")


def test_render_histogram_cumulative_buckets():
    registry = MetricsRegistry()
    hist = registry.histogram("step.seconds", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 0.5, 5.0):
        hist.observe(value)
    text = render_prometheus([registry.to_dict()])
    assert "# TYPE step_seconds histogram" in text
    assert 'step_seconds_bucket{le="0.1"} 1' in text
    assert 'step_seconds_bucket{le="1"} 3' in text
    assert 'step_seconds_bucket{le="+Inf"} 4' in text
    assert "step_seconds_count 4" in text
    assert "step_seconds_sum 6.05" in text


def test_render_escapes_label_values():
    registry = MetricsRegistry()
    registry.gauge("g", site='we"ird\nname').set(1)
    text = render_prometheus([registry.to_dict()])
    assert r'site="we\"ird\nname"' in text
    (name, labels, value), = parse_prometheus_text(text)
    assert labels == {"site": 'we"ird\nname'}


def test_render_later_snapshot_wins_on_collision():
    stale, fresh = MetricsRegistry(), MetricsRegistry()
    stale.gauge("sys.rss_bytes", process="site-1").set(100)
    fresh.gauge("sys.rss_bytes", process="site-1").set(999)
    text = render_prometheus([stale.to_dict(), fresh.to_dict()])
    assert text.count("sys_rss_bytes{") == 1
    assert 'sys_rss_bytes{process="site-1"} 999' in text


def test_parse_round_trip_and_malformed():
    registry = MetricsRegistry()
    registry.counter("c", k="v").inc(2)
    registry.gauge("g").set(1.5)
    samples = parse_prometheus_text(render_prometheus([registry.to_dict()]))
    assert ("c", {"k": "v"}, 2.0) in samples
    assert ("g", {}, 1.5) in samples
    with pytest.raises(ValueError):
        parse_prometheus_text("this is { not a metric line")


# ---------------------------------------------------------------------------
# HTTP endpoint
# ---------------------------------------------------------------------------
def _get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, response.read()


def test_http_metrics_and_healthz():
    registry = MetricsRegistry()
    registry.gauge("sys.rss_bytes", process="server").set(7)
    with MetricsExporter(port=0, sources=[registry.to_dict]) as exporter:
        assert exporter.port != 0  # bound to a real ephemeral port
        status, body = _get(exporter.url + "/metrics")
        assert status == 200
        samples = parse_prometheus_text(body.decode())
        assert ("sys_rss_bytes", {"process": "server"}, 7.0) in samples

        status, body = _get(exporter.url + "/healthz")
        assert status == 200
        assert json.loads(body) == {"status": "ok", "health_monitor": False}

        with pytest.raises(urllib.error.HTTPError) as err:
            _get(exporter.url + "/nope")
        assert err.value.code == 404


def test_http_source_added_mid_serve():
    with MetricsExporter(port=0) as exporter:
        assert parse_prometheus_text(_get(exporter.url + "/metrics")[1].decode()) == []
        late = MetricsRegistry()
        late.counter("federation.rounds").inc()
        exporter.add_source(late.to_dict)
        samples = parse_prometheus_text(_get(exporter.url + "/metrics")[1].decode())
        assert ("federation_rounds", {}, 1.0) in samples


def test_broken_source_does_not_break_scrape():
    registry = MetricsRegistry()
    registry.counter("ok").inc()

    def explode():
        raise RuntimeError("torn down")

    exporter = MetricsExporter(port=0, sources=[explode, registry.to_dict])
    assert ("ok", {}, 1.0) in parse_prometheus_text(exporter.render())


def test_scrape_sums_sources_that_share_a_series():
    # the server and a worker both encode: one scrape reports both passes,
    # the way metrics.json does after the end-of-run fold
    server, worker = MetricsRegistry(), MetricsRegistry()
    server.counter("transport.bytes_raw", codec="raw").inc(3)
    worker.counter("transport.bytes_raw", codec="raw").inc(2)
    server.histogram("codec.encode_seconds", codec="raw").observe(0.001)
    worker.histogram("codec.encode_seconds", codec="raw").observe(0.002)
    worker.gauge("sys.rss_bytes", process="site-1").set(7)
    exporter = MetricsExporter(port=0, sources=[server.to_dict, worker.to_dict])
    text = exporter.render()
    samples = parse_prometheus_text(text)
    assert ("transport_bytes_raw", {"codec": "raw"}, 5.0) in samples
    assert ("codec_encode_seconds_count", {"codec": "raw"}, 2.0) in samples
    assert ("sys_rss_bytes", {"process": "site-1"}, 7.0) in samples
    assert text.count("transport_bytes_raw{") == 1


# ---------------------------------------------------------------------------
# /healthz reflects a quarantined client mid-run (chaos)
# ---------------------------------------------------------------------------
BAD_SITE = "site-2"


class DivergingLearner(ToyLearner):
    """One site pushes the weights hard the wrong way every round."""

    def train(self, dxo: DXO, fl_ctx) -> DXO:
        result = super().train(dxo, fl_ctx)
        if self.site_name == BAD_SITE:
            result.data = {key: np.asarray(value) - 40.0
                           for key, value in result.data.items()}
        return result


def test_healthz_reflects_quarantine_mid_run(tmp_path):
    monitor = HealthMonitor(run_dir=tmp_path, detectors=default_detectors(),
                            quarantine_after=2, quarantine_rounds=2)
    seen: list[dict] = []

    def evaluator(weights):
        # Runs on the controller thread at the end of every round: scrape
        # /healthz exactly as a live probe would, while the run is going.
        exporter = runner.metrics_exporter
        if exporter is not None:
            with urllib.request.urlopen(exporter.url + "/healthz",
                                        timeout=5) as response:
                seen.append(json.loads(response.read()))
        return {"valid_acc": float(np.mean(weights["layer.weight"]))}

    job = FLJob(name="healthz-chaos", initial_weights=toy_weights(0.0),
                learner_factory=DivergingLearner, num_rounds=6,
                min_clients=2,  # rounds stay quorate once BAD_SITE is out
                evaluator=evaluator)
    runner = SimulatorRunner(job, n_clients=3, seed=7, run_dir=tmp_path,
                             health=monitor, metrics_port=0)
    result = runner.run()

    assert BAD_SITE in result.stats.quarantined_clients
    assert len(seen) == 6
    # at least one mid-run probe saw the quarantine while it was active
    quarantined_probes = [p for p in seen if BAD_SITE in p.get("quarantined", [])]
    assert quarantined_probes, f"no probe saw the quarantine: {seen}"
    for probe in quarantined_probes:
        assert probe["status"] == "critical"
        assert probe["health_monitor"] is True
        assert probe["rounds"] >= 1
        assert any(alert["client"] == BAD_SITE for alert in probe["alerts"])
    # the exporter is torn down with the session
    assert runner.metrics_exporter is None
