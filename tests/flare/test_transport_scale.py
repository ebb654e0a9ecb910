"""Satellite pin: per-sender transport state stays bounded at 1,000 endpoints.

A massive cohort must not turn the bus into a memory leak: dedup windows are
capped per endpoint, sequence counters are one integer per sender, and the
delivery metrics are keyed per *topic* (bounded) rather than per message or
per peer (unbounded).
"""

from __future__ import annotations

from repro.flare import MessageBus, Shareable
from repro.flare.transport import _DEDUP_WINDOW

N_ENDPOINTS = 1_000
KEY = b"k" * 32


def scaled_bus() -> MessageBus:
    bus = MessageBus()
    bus.register_endpoint("server")
    bus.install_session_key("server", KEY)
    for i in range(N_ENDPOINTS):
        name = f"site-{i}"
        bus.register_endpoint(name)
        bus.install_session_key(name, KEY)
    return bus


class TestThousandEndpointState:
    def test_registration_state_is_one_entry_per_endpoint(self):
        bus = scaled_bus()
        assert len(bus._session_keys) == N_ENDPOINTS + 1
        # nothing sent yet: dedup windows exist but are empty, and no
        # sequence counters have been allocated
        assert all(len(seen) == 0 for seen in bus._seen_ids.values())
        assert len(bus._send_seq) == 0

    def test_dedup_window_is_capped_per_endpoint(self):
        bus = scaled_bus()
        extra = 500
        for _ in range(_DEDUP_WINDOW + extra):
            bus.send_shareable("server", "site-0", "train", Shareable())
            bus.receive("site-0", timeout=1.0)
        assert len(bus._seen_ids["site-0"]) == _DEDUP_WINDOW
        # only the receiving endpoint grew a window
        assert all(len(seen) == 0 for name, seen in bus._seen_ids.items()
                   if name != "site-0")

    def test_duplicates_inside_window_still_dropped(self):
        bus = scaled_bus()
        msg_id = bus.next_msg_id("server")
        bus.send_shareable("server", "site-0", "train", Shareable(),
                           msg_id=msg_id, attempt=0)
        bus.send_shareable("server", "site-0", "train", Shareable(),
                           msg_id=msg_id, attempt=1)
        bus.receive("site-0", timeout=1.0)
        before = bus.duplicates_dropped
        assert bus.pending("site-0") in (0, 1)  # resend may be queued
        # draining must dedup the resend rather than deliver it twice
        try:
            bus.receive("site-0", timeout=0.05)
        except Exception:
            pass
        assert bus.duplicates_dropped == before + 1

    def test_sequence_counters_are_one_int_per_sender(self):
        bus = scaled_bus()
        for _ in range(100):
            bus.send_shareable("server", "site-1", "train", Shareable())
        for i in range(50):
            bus.send_shareable(f"site-{i}", "server", "result", Shareable())
        # 1 server entry + 50 client entries, regardless of message volume
        assert len(bus._send_seq) == 51
        assert bus._send_seq["server"] == 100

    def test_metrics_cardinality_scales_with_topics_not_peers(self, process_registry):
        bus = scaled_bus()
        for i in range(200):
            bus.send_shareable("server", f"site-{i}", "train", Shareable())
            bus.receive(f"site-{i}", timeout=1.0)
            bus.send_shareable(f"site-{i}", "server", "result", Shareable())
            bus.receive("server", timeout=1.0)
        # two topics in flight -> instrument families stay a handful, not
        # O(peers) or O(messages)
        assert len(process_registry._counters) <= 12
        assert len(process_registry._histograms) <= 12

    def test_histogram_samples_are_bounded(self, process_registry):
        from repro.obs.metrics import EXACT_SAMPLE_LIMIT

        bus = scaled_bus()
        for _ in range(EXACT_SAMPLE_LIMIT + 50):
            bus.send_shareable("server", "site-2", "train", Shareable())
            bus.receive("site-2", timeout=1.0)
        latency = process_registry.histogram("transport.latency_seconds",
                                             topic="train")
        # past the exact-sample limit the raw-sample list is released and
        # only fixed-size bucket counts remain
        assert latency._samples is None
        assert latency.count == EXACT_SAMPLE_LIMIT + 50
