"""Admin API: the operator's view of a running federation.

NVFlare ships an admin console (list clients, check job status, abort).
This module provides the equivalent programmatic surface over the in-process
federation: registered-client inventory, transport counters, controller
progress and an abort signal the controller honours between rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .controller import ScatterAndGather
from .events import FLComponent
from .server import FLServer

__all__ = ["AdminAPI", "ClientInfo", "JobStatus"]


@dataclass(frozen=True)
class ClientInfo:
    """One registered client as the admin sees it."""

    name: str
    token: str
    pending_messages: int


@dataclass(frozen=True)
class JobStatus:
    """Controller progress snapshot."""

    current_round: int
    total_rounds: int
    finished: bool
    aborted: bool
    messages_delivered: int
    bytes_delivered: int


class AdminAPI(FLComponent):
    """Operator console over a server and (optionally) its controller."""

    def __init__(self, server: FLServer,
                 controller: ScatterAndGather | None = None) -> None:
        super().__init__(name="AdminAPI")
        self.server = server
        self.controller = controller
        self._abort_requested = False
        if controller is not None:
            self._install_abort_hook(controller)

    # ------------------------------------------------------------------
    # inventory
    # ------------------------------------------------------------------
    def list_clients(self) -> list[ClientInfo]:
        """All registered clients, with their tokens and queue depth."""
        return [ClientInfo(name=name, token=token,
                           pending_messages=self.server.bus.pending(name))
                for name, token in sorted(self.server.tokens.items())]

    def check_client(self, name: str) -> ClientInfo:
        if name not in self.server.tokens:
            raise KeyError(f"client {name!r} is not registered")
        return ClientInfo(name=name, token=self.server.tokens[name],
                          pending_messages=self.server.bus.pending(name))

    # ------------------------------------------------------------------
    # job control
    # ------------------------------------------------------------------
    def job_status(self) -> JobStatus:
        if self.controller is None:
            raise RuntimeError("no controller attached")
        completed = self.controller.stats.num_rounds
        delivered = self.server.delivered()
        return JobStatus(
            current_round=completed,
            total_rounds=self.controller.num_rounds,
            finished=completed >= self.controller.num_rounds,
            aborted=self._abort_requested,
            messages_delivered=delivered["messages_delivered"],
            bytes_delivered=delivered["bytes_delivered"],
        )

    def abort_job(self) -> None:
        """Ask the controller to stop after the current round."""
        self._abort_requested = True
        self.log_warning("abort requested by admin")

    # ------------------------------------------------------------------
    def _install_abort_hook(self, controller: ScatterAndGather) -> None:
        admin = self
        original = controller._run_round

        def abortable_run_round(round_number: int, fl_ctx) -> int:
            if admin._abort_requested:
                raise RuntimeError(
                    f"job aborted by admin before round {round_number}")
            return original(round_number, fl_ctx)

        controller._run_round = abortable_run_round  # type: ignore[method-assign]
