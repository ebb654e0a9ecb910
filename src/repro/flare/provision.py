"""Provisioning: project spec → startup kits (NVFlare's "provision" stage).

The paper's pipeline (Fig. 1) starts with *NVFlare provision*: defining the
project (one server, N client sites, admin), generating the root CA,
participant key pairs and certificates, and distributing a startup kit to
every participant.  This module reproduces that flow in-process; the
participants' key pairs are generated across a fork pool, one process per
usable core (see ``docs/PERFORMANCE.md``).
"""

from __future__ import annotations

import json
import multiprocessing
import threading
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..autograd._blas import usable_cores
from .constants import FLRole
from .security import Certificate, CertificateAuthority, RSAKeyPair, generate_keypair

__all__ = ["ParticipantSpec", "ProjectSpec", "StartupKit", "Provisioner",
           "default_project", "make_join_token"]


@dataclass(frozen=True)
class ParticipantSpec:
    """One row of the project file: name, org and role."""

    name: str
    org: str
    role: str

    def __post_init__(self) -> None:
        if self.role not in (FLRole.SERVER, FLRole.CLIENT, FLRole.ADMIN):
            raise ValueError(f"unknown role {self.role!r}")


@dataclass(frozen=True)
class ProjectSpec:
    """A federated project: named participants under one trust root."""

    name: str
    participants: tuple[ParticipantSpec, ...]

    def __post_init__(self) -> None:
        names = [p.name for p in self.participants]
        if len(set(names)) != len(names):
            raise ValueError("participant names must be unique")
        if sum(p.role == FLRole.SERVER for p in self.participants) != 1:
            raise ValueError("project needs exactly one server")

    @property
    def server(self) -> ParticipantSpec:
        return next(p for p in self.participants if p.role == FLRole.SERVER)

    @property
    def clients(self) -> list[ParticipantSpec]:
        return [p for p in self.participants if p.role == FLRole.CLIENT]


@dataclass
class StartupKit:
    """Everything a participant needs to join: keys, cert, trust root."""

    participant: ParticipantSpec
    keypair: RSAKeyPair
    certificate: Certificate
    ca_public_key: tuple[int, int]
    project_name: str

    def summary(self) -> dict:
        """JSON-safe kit description (what would land on disk)."""
        return {
            "project": self.project_name,
            "participant": self.participant.name,
            "org": self.participant.org,
            "role": self.participant.role,
            "public_key_bits": self.keypair.n.bit_length(),
            "certificate_subject": self.certificate.subject,
        }


def default_project(n_clients: int = 8, name: str = "clinical-fl") -> ProjectSpec:
    """The paper's topology: one server + eight client sites + one admin."""
    if n_clients <= 0:
        raise ValueError("n_clients must be positive")
    participants = [ParticipantSpec("server", "central", FLRole.SERVER)]
    participants += [ParticipantSpec(f"site-{index}", f"clinic-{index}", FLRole.CLIENT)
                     for index in range(1, n_clients + 1)]
    participants.append(ParticipantSpec("admin@central", "central", FLRole.ADMIN))
    return ProjectSpec(name=name, participants=tuple(participants))


class Provisioner:
    """Generates the CA and one startup kit per participant."""

    def __init__(self, project: ProjectSpec, seed: int = 0, key_bits: int = 1024) -> None:
        self.project = project
        self.seed = seed
        self.key_bits = key_bits
        self.ca = CertificateAuthority(name=f"{project.name}-ca", bits=key_bits,
                                       seed=seed)

    def provision(self) -> dict[str, StartupKit]:
        """Issue keys and certificates for every participant."""
        participants = self.project.participants
        keypairs = _generate_keypairs(
            self.key_bits, [self.seed + 1000 + index
                            for index in range(len(participants))])
        kits: dict[str, StartupKit] = {}
        for participant, keypair in zip(participants, keypairs):
            certificate = self.ca.issue(participant.name, participant.org,
                                        participant.role, keypair.public)
            kits[participant.name] = StartupKit(
                participant=participant, keypair=keypair, certificate=certificate,
                ca_public_key=self.ca.public_key, project_name=self.project.name)
        return kits

    def write_kits(self, kits: dict[str, StartupKit], directory: str | Path) -> Path:
        """Write kit summaries to disk, mirroring NVFlare's startup folders."""
        directory = Path(directory)
        for name, kit in kits.items():
            kit_dir = directory / name / "startup"
            kit_dir.mkdir(parents=True, exist_ok=True)
            (kit_dir / "fed_info.json").write_text(json.dumps(kit.summary(), indent=2))
        return directory


def _generate_keypairs(bits: int, seeds: list[int]) -> list[RSAKeyPair]:
    """One key pair per seed, in order.

    A key pair is a function of its seed alone, so contiguous chunks of the
    seeds run on a fork pool of ``min(usable cores, len(seeds))`` processes
    and the result is the same for any pool size.  Inline when a pool
    cannot help (one usable core, or no ``fork`` start method) or cannot be
    forked safely: ``fork`` copies only the calling thread, so a lock that
    another Python thread holds would stay held in every child.
    """
    workers = min(usable_cores(), len(seeds))
    if (workers < 2 or threading.active_count() > 1
            or "fork" not in multiprocessing.get_all_start_methods()):
        return [generate_keypair(bits, seed) for seed in seeds]
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return pool.starmap(generate_keypair, [(bits, seed) for seed in seeds],
                            chunksize=-(-len(seeds) // workers))


def make_join_token(rng: np.random.Generator) -> str:
    """A UUID4-format join token (deterministic under a seeded generator)."""
    raw = bytearray(rng.bytes(16))
    raw[6] = (raw[6] & 0x0F) | 0x40  # version 4
    raw[8] = (raw[8] & 0x3F) | 0x80  # RFC 4122 variant
    return str(uuid.UUID(bytes=bytes(raw)))
