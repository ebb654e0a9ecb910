"""In-memory signed transport."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flare import (
    DXO,
    DataKind,
    MessageBus,
    Shareable,
    TransportError,
    from_dxo,
    to_dxo,
)


def wired_bus():
    bus = MessageBus()
    bus.register_endpoint("server")
    bus.register_endpoint("site-1")
    bus.install_session_key("server", b"server-key")
    bus.install_session_key("site-1", b"client-key")
    return bus


def payload():
    return from_dxo(DXO(DataKind.WEIGHTS, data={"w": np.arange(4.0)}))


class TestDelivery:
    def test_roundtrip(self):
        bus = wired_bus()
        bus.send_shareable("server", "site-1", "train", payload())
        sender, topic, shareable = bus.receive("site-1", timeout=1.0)
        assert sender == "server" and topic == "train"
        np.testing.assert_array_equal(to_dxo(shareable).data["w"], np.arange(4.0))

    def test_headers_survive(self):
        bus = wired_bus()
        task = payload()
        task.set_header("round", 3)
        bus.send_shareable("server", "site-1", "train", task)
        _, _, received = bus.receive("site-1", timeout=1.0)
        assert received.get_header("round") == 3

    def test_fifo_order(self):
        bus = wired_bus()
        for i in range(3):
            s = Shareable({"i": i})
            bus.send_shareable("server", "site-1", "t", s)
        got = [bus.receive("site-1", timeout=1.0)[2]["i"] for _ in range(3)]
        assert got == [0, 1, 2]

    def test_counters(self):
        bus = wired_bus()
        bus.send_shareable("server", "site-1", "t", payload())
        assert bus.delivered_count == 1 and bus.delivered_bytes > 0

    def test_pending(self):
        bus = wired_bus()
        assert bus.pending("site-1") == 0
        bus.send_shareable("server", "site-1", "t", Shareable())
        assert bus.pending("site-1") == 1


class TestSecurityChecks:
    def test_unregistered_sender_rejected(self):
        bus = MessageBus()
        bus.register_endpoint("site-1")
        with pytest.raises(TransportError, match="session key"):
            bus.send_shareable("ghost", "site-1", "t", Shareable())

    def test_unknown_recipient_rejected(self):
        bus = wired_bus()
        with pytest.raises(TransportError, match="recipient"):
            bus.send_shareable("server", "ghost", "t", Shareable())

    def test_unknown_receiver_endpoint(self):
        bus = wired_bus()
        with pytest.raises(TransportError, match="endpoint"):
            bus.receive("ghost")

    def test_timeout_raises(self):
        bus = wired_bus()
        with pytest.raises(TransportError, match="no message"):
            bus.receive("site-1", timeout=0.05)

    def test_tampered_message_rejected(self):
        bus = wired_bus()
        bus.send_shareable("server", "site-1", "t", payload())
        # tamper in-flight
        message = bus._queues["site-1"].queue[0]
        message.body = message.body[:-1] + bytes([message.body[-1] ^ 0xFF])
        with pytest.raises(TransportError, match="signature"):
            bus.receive("site-1", timeout=1.0)

    def test_key_rotation_invalidates_old_messages(self):
        bus = wired_bus()
        bus.send_shareable("server", "site-1", "t", payload())
        bus.install_session_key("server", b"new-key")
        with pytest.raises(TransportError, match="signature"):
            bus.receive("site-1", timeout=1.0)

    def test_install_key_for_unknown_endpoint(self):
        bus = MessageBus()
        with pytest.raises(TransportError):
            bus.install_session_key("nobody", b"k")


def test_delivery_and_codec_totals_survive_concurrent_senders():
    """Eight threads (more than cores) with a tiny switch interval: a lost
    read-modify-write on a per-endpoint total or a codec total shows up as
    a short count."""
    import sys
    import threading

    from repro.flare import wire_bytes

    senders, per_sender = 8, 150
    bus = wired_bus()
    for i in range(senders):
        bus.register_endpoint(f"site-{i + 2}")
        bus.install_session_key(f"site-{i + 2}", b"client-key")
    raw_before, _ = wire_bytes()

    def send(name: str) -> None:
        for _ in range(per_sender):
            bus.send_shareable(name, "server", "train:result", payload())

    threads = [threading.Thread(target=send, args=(f"site-{i + 2}",))
               for i in range(senders)]
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    total = senders * per_sender
    for _ in range(total):
        bus.receive("server", timeout=1.0)
    sent = bus.totals(f"site-{senders + 1}")
    assert sent["messages_delivered"] == per_sender
    received = bus.totals("server")
    assert received["messages_delivered"] == total
    assert received["bytes_delivered"] == senders * sent["bytes_delivered"]
    # every payload() encodes the 32-byte tensor once; every receive decodes
    # nothing (the DXO stays bytes), so the codec saw exactly `total` encodes
    assert wire_bytes()[0] - raw_before == total * np.arange(4.0).nbytes
