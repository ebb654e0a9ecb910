"""Per-layer timing from outside the program: wrappers around public calls.

:class:`LayerTracer` replaces a fixed list of public functions and methods
of the ``repro`` layers with timing wrappers, and puts every original back
in :meth:`LayerTracer.uninstall`.  It is installed in the driver before
``SimulatorRunner.run()``; forked client workers inherit the wrappers.

Each finished call appends one line to a file of its own process,
``records-<pid>.tsv``, with an unbuffered ``O_APPEND`` write, so a worker
that leaves through ``os._exit`` loses nothing.  The driver reads every
file back with :func:`read_records` once the run has returned.

A wrapper skips calls made while the same layer call is already open on
the same thread (``super()`` chains, recursion), so no time is counted
twice.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

__all__ = ["Record", "LayerTracer", "read_records", "TARGETS"]


@dataclass(frozen=True)
class Record:
    """One timed call: layer name, process, thread, start, end and a value
    (bytes for codec calls, 1/0 for accepted/rejected updates, else 0)."""

    name: str
    pid: int
    tid: int
    start: float
    end: float
    value: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _nbytes(result: Any) -> float:
    return float(len(result))


def _blob_bytes(args: tuple) -> float:
    # DXO.from_bytes(cls, blob)
    return float(len(args[1])) if len(args) > 1 else 0.0


def _raw_bytes(args: tuple) -> float:
    # DXO.to_bytes(self): the tensor bytes the codec was handed
    dxo = args[0]
    return float(sum(getattr(value, "nbytes", 0) for value in dxo.data.values()))


def _truthy(result: Any) -> float:
    return 1.0 if result else 0.0


# (layer name, module, attribute path, value of a finished call).  The
# value function gets ``(args, result)``.  An attribute path with a dot is
# a class attribute; without one, a module-level function, which is
# patched in every loaded ``repro`` module that holds the same object.
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("provision.provision", "repro.flare.provision", "Provisioner.provision", None),
    ("server.register", "repro.flare.server", "FLServer.register_client", None),
    ("server.issue_nonce", "repro.flare.server", "FLServer.issue_nonce", None),
    ("runner.launch", "repro.flare.runner", "ProcessClientRunner.launch", None),
    ("runner.join", "repro.flare.runner", "ProcessClientRunner.join", None),
    ("transport.close", "repro.flare.transport", "Transport.close", None),
    ("transport.close", "repro.flare.socket_transport", "SocketMessageBus.close", None),
    ("transport.close", "repro.flare.shm_transport", "ShmMessageBus.close", None),
    ("transport.send", "repro.flare.transport", "BaseTransport.send_shareable", None),
    ("transport.receive", "repro.flare.transport", "BaseTransport.receive", None),
    ("server.broadcast", "repro.flare.server", "FLServer.broadcast_task", None),
    ("server.result_wait", "repro.flare.server", "FLServer.next_result", None),
    ("client.task", "repro.flare.client", "FederatedClient.process_task", None),
    ("training.train", "repro.training.classification",
     "ClinicalClassificationLearner.train", None),
    ("training.train", "repro.training.mlm_learner", "MlmPretrainLearner.train", None),
    ("training.eval", "repro.training.trainer", "evaluate_classifier", None),
    ("training.eval", "repro.training.trainer", "evaluate_mlm", None),
    ("models.forward", "repro.models.lstm", "LstmClassifier.forward", None),
    ("models.forward", "repro.models.bert", "BertForMaskedLM.forward", None),
    ("models.forward", "repro.models.bert", "BertForSequenceClassification.forward", None),
    ("autograd.backward", "repro.autograd.tensor", "Tensor.backward", None),
    ("autograd.optim", "repro.autograd.optim", "Adam.step", None),
    ("data.collate", "repro.data.mlm", "MlmCollator.__call__", None),
    ("codec.encode", "repro.flare.dxo", "DXO.to_bytes",
     lambda args, result: _nbytes(result)),
    ("codec.encode_raw", "repro.flare.dxo", "DXO.to_bytes",
     lambda args, result: _raw_bytes(args)),
    ("codec.decode", "repro.flare.dxo", "DXO.from_bytes",
     lambda args, result: _blob_bytes(args)),
    ("filters.delta_encode", "repro.flare.filters", "DeltaEncode.process", None),
    ("filters.delta_decode", "repro.flare.filters", "DeltaDecode.process", None),
    ("filters.fp16_quantize", "repro.flare.filters", "Float16Quantize.process", None),
    ("filters.fp16_dequantize", "repro.flare.filters", "Float16Dequantize.process", None),
    ("filters.topk_sparsify", "repro.flare.filters", "TopKSparsify.process", None),
    ("filters.topk_densify", "repro.flare.filters", "TopKDensify.process", None),
    ("aggregator.accept", "repro.flare.aggregators",
     "InTimeAccumulateWeightedAggregator.accept",
     lambda args, result: _truthy(result)),
    ("aggregator.aggregate", "repro.flare.aggregators",
     "InTimeAccumulateWeightedAggregator.aggregate", None),
    ("persistor.save", "repro.flare.persistor", "ModelPersistor.save", None),
)


class LayerTracer:
    """Installs the timing wrappers and writes records under ``directory``."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # pid -> record file descriptor.  No lock: a worker forked while a
        # parent thread held one would deadlock on its first record.
        self._fds: dict[int, int] = {}
        self._active = threading.local()
        # (owner, attribute, original raw value) for every patched slot
        self._saved: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def emit(self, name: str, start: float, end: float, value: float) -> None:
        pid = os.getpid()
        line = (f"{name}\t{pid}\t{threading.get_ident()}\t{start!r}\t"
                f"{end!r}\t{value!r}\n").encode("ascii")
        fd = self._fds.get(pid)
        if fd is None:
            # first record of this process (a forked worker never writes
            # through the parent's descriptor)
            fd = self._fds.setdefault(pid, os.open(
                self.directory / f"records-{pid}.tsv",
                os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644))
        os.write(fd, line)

    def _wrap(self, names: list[tuple[str, Callable | None]],
              function: Callable) -> Callable:
        tracer = self
        key = names[0][0]

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            open_calls = tracer._active.__dict__.setdefault("open", set())
            if key in open_calls:
                return function(*args, **kwargs)
            open_calls.add(key)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                open_calls.discard(key)
                tracer.emit(key + ".error", started, time.perf_counter(), 0.0)
                raise
            ended = time.perf_counter()
            open_calls.discard(key)
            for name, value_of in names:
                tracer.emit(name, started, ended,
                            value_of(args, result) if value_of else 0.0)
            return result

        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> "LayerTracer":
        if self._saved:
            raise RuntimeError("layer tracer already installed")
        grouped: dict[tuple[str, str], list[tuple[str, Callable | None]]] = {}
        for name, module_name, path, value_of in TARGETS:
            grouped.setdefault((module_name, path), []).append((name, value_of))
        try:
            for (module_name, path), names in grouped.items():
                __import__(module_name)
                module = sys.modules[module_name]
                if "." in path:
                    self._patch_method(getattr(module, path.split(".")[0]),
                                       path.split(".")[1], names)
                else:
                    self._patch_function(module, path, names)
        except BaseException:
            self.uninstall()
            raise
        return self

    def _patch_method(self, owner: type, attribute: str,
                      names: list[tuple[str, Callable | None]]) -> None:
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self._wrap(names, raw.__func__))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self._wrap(names, raw.__func__))
        else:
            replacement = self._wrap(names, raw)
        self._saved.append((owner, attribute, raw))
        setattr(owner, attribute, replacement)

    def _patch_function(self, module, attribute: str,
                        names: list[tuple[str, Callable | None]]) -> None:
        original = getattr(module, attribute)
        replacement = self._wrap(names, original)
        # callers that did ``from .trainer import evaluate_mlm`` hold their
        # own reference: patch every repro module that holds the object
        for holder in list(sys.modules.values()):
            if holder is None or not getattr(holder, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(holder).items()):
                if value is original:
                    self._saved.append((holder, name, original))
                    setattr(holder, name, replacement)

    def uninstall(self) -> None:
        """Put every original back, newest first; close this process's file."""
        while self._saved:
            owner, attribute, raw = self._saved.pop()
            setattr(owner, attribute, raw)
        fd = self._fds.pop(os.getpid(), None)
        if fd is not None:
            os.close(fd)
        self._fds.clear()

    def patched_slots(self) -> list[tuple[Any, str, Any]]:
        """``(owner, attribute, original)`` of every slot currently patched."""
        return list(self._saved)


def read_records(directory: str | Path) -> list[Record]:
    """Merge every process's record file, ordered by start time."""
    records: list[Record] = []
    for path in sorted(Path(directory).glob("records-*.tsv")):
        for line in path.read_text(encoding="ascii").splitlines():
            name, pid, tid, start, end, value = line.split("\t")
            records.append(Record(name, int(pid), int(tid), float(start),
                                  float(end), float(value)))
    records.sort(key=lambda record: record.start)
    return records
