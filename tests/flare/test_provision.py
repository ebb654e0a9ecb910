"""Provisioning: project specs and startup kits."""

from __future__ import annotations

import json
import multiprocessing
import os
import threading

import numpy as np
import pytest

from repro.flare import (
    FLRole,
    ParticipantSpec,
    ProjectSpec,
    Provisioner,
    default_project,
    make_join_token,
)


class TestProjectSpec:
    def test_default_project_topology(self):
        project = default_project(n_clients=8)
        assert project.server.name == "server"
        assert len(project.clients) == 8
        assert project.clients[0].name == "site-1"

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ProjectSpec("p", (ParticipantSpec("a", "o", FLRole.SERVER),
                              ParticipantSpec("a", "o", FLRole.CLIENT)))

    def test_exactly_one_server(self):
        with pytest.raises(ValueError, match="server"):
            ProjectSpec("p", (ParticipantSpec("c", "o", FLRole.CLIENT),))

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError, match="role"):
            ParticipantSpec("x", "o", "superuser")

    def test_bad_client_count(self):
        with pytest.raises(ValueError):
            default_project(n_clients=0)


class TestProvisioner:
    def test_kit_per_participant(self):
        project = default_project(n_clients=3)
        kits = Provisioner(project, seed=1, key_bits=512).provision()
        assert set(kits) == {p.name for p in project.participants}

    def test_certificates_chain_to_ca(self):
        project = default_project(n_clients=2)
        provisioner = Provisioner(project, seed=2, key_bits=512)
        kits = provisioner.provision()
        for kit in kits.values():
            assert provisioner.ca.verify_certificate(kit.certificate)
            assert kit.ca_public_key == provisioner.ca.public_key

    def test_keys_are_distinct(self):
        kits = Provisioner(default_project(n_clients=3), seed=3,
                           key_bits=512).provision()
        moduli = [kit.keypair.n for kit in kits.values()]
        assert len(set(moduli)) == len(moduli)

    def test_write_kits(self, tmp_path):
        provisioner = Provisioner(default_project(n_clients=2), seed=4, key_bits=512)
        kits = provisioner.provision()
        root = provisioner.write_kits(kits, tmp_path)
        info = json.loads((root / "site-1" / "startup" / "fed_info.json").read_text())
        assert info["participant"] == "site-1"
        assert info["role"] == "client"

    def test_kit_summary_fields(self):
        kits = Provisioner(default_project(n_clients=1), seed=5,
                           key_bits=512).provision()
        summary = kits["server"].summary()
        assert summary["role"] == "server" and summary["public_key_bits"] >= 511


def kit_contents(kits) -> dict:
    return {name: (kit.keypair, kit.certificate) for name, kit in kits.items()}


@pytest.fixture
def pool_sizes(monkeypatch) -> list:
    """Records the size of every fork pool the provisioner opens."""
    sizes: list = []
    context = type(multiprocessing.get_context("fork"))
    original = context.Pool

    def spy(self, processes=None, *args, **kwargs):
        sizes.append(processes)
        return original(self, processes, *args, **kwargs)

    monkeypatch.setattr(context, "Pool", spy)
    return sizes


class TestParallelProvisioning:
    """Key pairs depend only on their seeds: the same kits for any pool."""

    def provision(self, monkeypatch, cores: int) -> dict:
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cores)))
        return kit_contents(Provisioner(default_project(n_clients=3), seed=6,
                                        key_bits=512).provision())

    def test_same_kits_inline_and_pooled(self, monkeypatch, pool_sizes):
        # other tests may leave daemon threads behind; pretend they are gone
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        inline = self.provision(monkeypatch, cores=1)
        assert pool_sizes == []
        pooled = self.provision(monkeypatch, cores=4)
        assert pool_sizes == [4]  # 5 participants, 4 usable cores
        assert pooled == inline
        assert self.provision(monkeypatch, cores=16) == inline
        assert pool_sizes == [4, 5]  # never more processes than key pairs

    def test_inline_while_another_thread_runs(self, monkeypatch, pool_sizes):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            kits = self.provision(monkeypatch, cores=4)
        finally:
            release.set()
            other.join(timeout=5.0)
        assert not other.is_alive()
        assert pool_sizes == []
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        assert kits == self.provision(monkeypatch, cores=4)
        assert pool_sizes == [4]

    def test_inline_without_fork(self, monkeypatch, pool_sizes):
        monkeypatch.setattr(threading, "active_count", lambda: 1)
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        kits = self.provision(monkeypatch, cores=4)
        assert pool_sizes == []
        monkeypatch.undo()
        assert kits == self.provision(monkeypatch, cores=1)


class TestJoinToken:
    def test_uuid4_format(self):
        token = make_join_token(np.random.default_rng(0))
        parts = token.split("-")
        assert [len(p) for p in parts] == [8, 4, 4, 4, 12]
        assert parts[2][0] == "4"  # version nibble

    def test_deterministic_per_rng_state(self):
        a = make_join_token(np.random.default_rng(1))
        b = make_join_token(np.random.default_rng(1))
        assert a == b

    def test_successive_tokens_distinct(self):
        rng = np.random.default_rng(2)
        assert make_join_token(rng) != make_join_token(rng)
