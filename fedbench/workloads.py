"""The benchmark's four federated jobs and the inputs they are built from.

Every input a job needs -- the synthetic EHR cohort, the site shards, the
per-site seeds, the model factory, the server evaluator and the aggregator
factory -- is generated here from the workload seed.  The program under
test only ever receives these generated inputs through the public
``FLJob`` / ``SimulatorRunner`` API.

Seeds are derived with :func:`derive_seed` (blake2b of the workload name,
the run seed and a purpose label), never with the interpreter's randomized
``hash()``, so the same ``--seed`` builds the same inputs in every process.

The benchmark also owns three hooks the program calls back into: the
aggregator factory (marks the end of set-up), the evaluator (marks the end
of every round) and the learner factory (records the BLAS pool of the
process that trains).  They record into a :class:`JobClock`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.autograd import blas_thread_info, no_grad
from repro.autograd import functional as F
from repro.data import (
    IGNORE_INDEX,
    PAPER_IMBALANCED_RATIOS,
    CohortSpec,
    EhrTokenizer,
    MlmCollator,
    SequenceDataset,
    encode_cohort,
    generate_cohort,
    partition_balanced,
    partition_by_ratios,
)
from repro.flare import (
    DataKind,
    FLJob,
    InTimeAccumulateWeightedAggregator,
)
from repro.models import build_classifier, build_mlm_model
from repro.training import ClinicalClassificationLearner, MlmPretrainLearner
from repro.training import trainer

SEQ_LEN = 32

__all__ = ["WorkloadSpec", "WORKLOADS", "JobInputs", "JobClock",
           "derive_seed", "build_inputs", "make_job", "weights_digest",
           "final_quality"]


def derive_seed(*parts: object) -> int:
    """A stable 31-bit seed from any printable parts (blake2b, not ``hash``)."""
    text = "\x1f".join(str(part) for part in parts).encode("utf-8")
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(),
                          "little") & 0x7FFFFFFF


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one closed-loop federated job.

    ``objective`` is ``"classify"`` (ADR classification, Table III) or
    ``"mlm"`` (masked-LM pretraining, Fig. 2).  ``ratios`` of ``None`` means
    equal shards.  ``rounds`` counts sync rounds or async commits.  The
    server evaluator scores every round on ``n_valid`` held-out records.
    The final checkpoint is scored once more, outside the timed job, on
    ``n_test`` records of a test cohort that depends on the workload name
    only: quality then differs between seeds by training, not by which
    records happened to be drawn for testing.
    """

    name: str
    why: str
    model: str
    objective: str
    n_sites: int
    n_train: int
    n_valid: int
    rounds: int
    n_test: int = 512
    transport: str = "memory"
    ratios: tuple[float, ...] | None = None
    batch_size: int = 16
    lr: float = 1e-3
    compression: str | None = None
    mode: str = "sync"
    threads: bool = True
    buffer_size: int = 4
    concurrency: int | None = None


WORKLOADS: dict[str, WorkloadSpec] = {spec.name: spec for spec in (
    WorkloadSpec(
        name="finetune-lstm-memory",
        why=("Table III: 8 imbalanced sites fine-tune the lstm classifier on "
             "threaded memory-fabric clients; local training and the 29% "
             "site's barrier dominate"),
        model="lstm", objective="classify", n_sites=8,
        ratios=PAPER_IMBALANCED_RATIOS, n_train=256, n_valid=64, rounds=3,
        # at 1e-2 the 3-layer lstm swings between all-negative and
        # all-positive predictions from seed to seed after three rounds
        batch_size=32, lr=1e-3),
    WorkloadSpec(
        name="pretrain-bert-shm",
        why=("Fig. 2: 4 balanced sites pretrain bert with MLM on the shm "
             "worker pool; parallel training, ~10 MB weight messages, "
             "codec and per-round persist"),
        model="bert", objective="mlm", n_sites=4, n_train=128, n_valid=32,
        n_test=128, rounds=3, transport="shm"),
    WorkloadSpec(
        name="compressed-bert-socket",
        why=("bert over the socket fabric with delta+fp16+topk:0.1 and tiny "
             "shards; codec, compression filters, socket hops, aggregation "
             "and teardown dominate"),
        model="bert", objective="mlm", n_sites=4, n_train=64, n_valid=32,
        n_test=128, rounds=4, transport="socket", compression="delta+fp16+topk:0.1"),
    WorkloadSpec(
        name="async-cohort-memory",
        why=("FedBuff async with 32 lstm-tiny sites, buffer 4, concurrency 8, "
             "sequential drive; provisioning, controller bookkeeping and "
             "streaming folds dominate"),
        model="lstm-tiny", objective="classify", n_sites=32, n_train=512,
        n_valid=64, rounds=12, mode="async", threads=False, buffer_size=4,
        concurrency=8, batch_size=16, lr=1e-2),
)}


@dataclass
class JobInputs:
    """Everything generated from one (workload, seed) pair."""

    spec: WorkloadSpec
    seed: int
    vocab: object
    shards: dict
    valid: object
    test: object
    site_seeds: dict[str, int]
    model_factory: Callable
    initial_weights: dict[str, np.ndarray]
    provision_seed: int
    eval_seed: int

    @property
    def samples(self) -> dict[str, int]:
        """Training samples each site's update stands for."""
        return {name: len(shard) for name, shard in self.shards.items()}


def build_inputs(spec: WorkloadSpec, seed: int) -> JobInputs:
    """Generate the cohort, shards, seeds and model factory for ``seed``."""
    def encode(n_patients: int, cohort_seed: int):
        cohort = generate_cohort(CohortSpec(n_patients=n_patients,
                                            seed=cohort_seed))
        dataset = encode_cohort(cohort, EhrTokenizer(cohort.vocab,
                                                     max_len=SEQ_LEN))
        if spec.objective == "mlm":
            dataset = SequenceDataset(dataset.input_ids, dataset.attention_mask)
        return cohort.vocab, dataset

    n_total = spec.n_train + spec.n_valid
    vocab, dataset = encode(n_total, derive_seed(spec.name, seed, "cohort"))
    _, test = encode(spec.n_test, derive_seed(spec.name, "test"))
    order = np.random.default_rng(derive_seed(spec.name, seed, "split")
                                  ).permutation(n_total)
    valid = dataset.subset(np.sort(order[:spec.n_valid]))
    train = dataset.subset(np.sort(order[spec.n_valid:]))
    shard_seed = derive_seed(spec.name, seed, "shards")
    if spec.ratios is not None:
        parts = partition_by_ratios(len(train), spec.ratios, seed=shard_seed)
    else:
        parts = partition_balanced(len(train), spec.n_sites, seed=shard_seed)
    shards = {f"site-{index + 1}": train.subset(part)
              for index, part in enumerate(parts)}
    site_seeds = {name: derive_seed(spec.name, seed, "site", name)
                  for name in shards}
    vocab_size = len(vocab)
    model_seed = derive_seed(spec.name, seed, "model")

    if spec.objective == "mlm":
        def model_factory():
            return build_mlm_model(spec.model, vocab_size=vocab_size,
                                   seed=model_seed, max_seq_len=SEQ_LEN)
    else:
        def model_factory():
            return build_classifier(spec.model, vocab_size=vocab_size,
                                    seed=model_seed)

    return JobInputs(spec=spec, seed=seed, vocab=vocab, shards=shards,
                     valid=valid, test=test, site_seeds=site_seeds,
                     model_factory=model_factory,
                     initial_weights=model_factory().state_dict(),
                     # the startup kits (RSA keys) depend on the workload
                     # only: the prime search time varies widely with the
                     # seed and would swamp set-up time
                     provision_seed=derive_seed(spec.name, "provision") % 100000,
                     eval_seed=derive_seed(spec.name, seed, "eval"))


@dataclass
class JobClock:
    """What the benchmark's hooks observe during one ``run()``.

    Times are ``time.perf_counter()`` readings (CLOCK_MONOTONIC, shared by
    every process on the machine).
    """

    setup_done: float | None = None
    eval_spans: list[tuple[float, float]] = field(default_factory=list)
    accepted: int = 0
    accepted_samples: int = 0


class _CountingAggregator(InTimeAccumulateWeightedAggregator):
    """Weighted FedAvg that also counts the updates and samples it accepts."""

    def __init__(self, clock: JobClock, samples: dict[str, int]) -> None:
        super().__init__(expected_data_kind=DataKind.WEIGHTS)
        self._clock = clock
        self._samples = samples

    def accept(self, dxo, contributor, fl_ctx) -> bool:
        ok = super().accept(dxo, contributor, fl_ctx)
        if ok:
            self._clock.accepted += 1
            # the async controller rescales the weight meta by staleness, so
            # the sample count comes from the shard, not the message
            self._clock.accepted_samples += self._samples[contributor]
        return ok


def _record_blas(directory: Path) -> None:
    """Write this process's BLAS pool once (the learner factory runs in
    the process that trains: a forked worker, or the driver itself)."""
    path = directory / f"blas-{os.getpid()}.json"
    if not path.exists():
        info = dict(blas_thread_info(), pid=os.getpid())
        path.write_text(json.dumps(info, default=str))


def make_job(inputs: JobInputs, clock: JobClock, work_dir: Path) -> FLJob:
    """A fresh :class:`FLJob` whose hooks record into ``clock``."""
    spec = inputs.spec
    eval_model = inputs.model_factory()
    valid = inputs.valid

    if spec.objective == "mlm":
        def evaluate(weights):
            eval_model.load_state_dict(weights, strict=False)
            # a fresh collator per call: the same masks every round
            collator = MlmCollator(inputs.vocab, seed=inputs.eval_seed)
            return {"mlm_loss": trainer.evaluate_mlm(eval_model, valid, collator,
                                                     spec.batch_size)}
    else:
        def evaluate(weights):
            eval_model.load_state_dict(weights, strict=False)
            accuracy, loss = trainer.evaluate_classifier(eval_model, valid,
                                                         spec.batch_size)
            return {"valid_acc": accuracy, "valid_loss": loss}

    def evaluator(weights):
        started = time.perf_counter()
        metrics = evaluate(weights)
        clock.eval_spans.append((started, time.perf_counter()))
        return metrics

    def aggregator_factory():
        if clock.setup_done is None:
            clock.setup_done = time.perf_counter()
        return _CountingAggregator(clock, inputs.samples)

    def learner_factory(site: str):
        _record_blas(work_dir)
        if spec.objective == "mlm":
            return MlmPretrainLearner(
                site_name=site, model_factory=inputs.model_factory,
                train_data=inputs.shards[site],
                collator=MlmCollator(inputs.vocab, seed=inputs.site_seeds[site]),
                local_epochs=1, batch_size=spec.batch_size,
                lr=spec.lr, seed=inputs.site_seeds[site])
        return ClinicalClassificationLearner(
            site_name=site, model_factory=inputs.model_factory,
            train_data=inputs.shards[site], valid_data=None,
            local_epochs=1, batch_size=spec.batch_size,
            lr=spec.lr, seed=inputs.site_seeds[site])

    return FLJob(name=spec.name, initial_weights=inputs.initial_weights,
                 learner_factory=learner_factory, num_rounds=spec.rounds,
                 evaluator=evaluator, aggregator_factory=aggregator_factory,
                 compression=spec.compression, transport=spec.transport,
                 mode=spec.mode, buffer_size=spec.buffer_size,
                 concurrency=spec.concurrency,
                 sampling_seed=derive_seed(spec.name, inputs.seed, "sampling"))


def weights_digest(weights: dict[str, np.ndarray]) -> str:
    """blake2b over names, dtypes, shapes and bytes of a state dict."""
    digest = hashlib.blake2b(digest_size=16)
    for key in sorted(weights):
        array = np.ascontiguousarray(weights[key])
        digest.update(f"{key}|{array.dtype.str}|{array.shape}|".encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def final_quality(inputs: JobInputs, weights: dict[str, np.ndarray]
                  ) -> tuple[float, float]:
    """``(top-1 error, cross-entropy)`` of a final checkpoint on the test split.

    Classification: label error and loss.  MLM: masked-token error and MLM
    loss under fixed masks.  (Error rather than accuracy: after a few
    rounds a pretrained model's masked-token accuracy is a few percent and
    swings widely between seeds in relative terms; its error does not.)
    """
    spec = inputs.spec
    model = inputs.model_factory()
    model.load_state_dict(weights, strict=False)
    if spec.objective == "classify":
        accuracy, loss = trainer.evaluate_classifier(model, inputs.test,
                                                     spec.batch_size)
        return 1.0 - accuracy, loss
    collator = MlmCollator(inputs.vocab, seed=inputs.eval_seed)
    hits = targets = 0
    loss_sum = 0.0
    model.eval()
    with no_grad():
        for ids, mask in inputs.test.iter_batches(spec.batch_size):
            example = collator(ids, mask)
            selected = example.labels != IGNORE_INDEX
            if not selected.any():
                continue
            logits = model(example.input_ids, attention_mask=example.attention_mask)
            n = int(selected.sum())
            loss_sum += n * F.cross_entropy(logits, example.labels.reshape(-1),
                                            ignore_index=IGNORE_INDEX).item()
            predicted = logits.data.argmax(axis=-1)
            hits += int((predicted[selected] == example.labels[selected]).sum())
            targets += n
    return 1.0 - hits / targets, loss_sum / targets
