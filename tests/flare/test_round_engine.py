"""The round engine keeps every checkpoint bit for bit.

Each job below runs under the sequential drive (``threads=False``), so its
schedule is fully deterministic; the pinned blake2b digests of the final
weights were computed with the separate sync and async controllers the
engine replaced.  A change that moves any fold, weight, staleness discount,
sampling draw or downlink payload changes a digest.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.flare import DXO, DataKind, FLJob, Learner, MetaKey, SimulatorRunner


class SiteLearner(Learner):
    """Deterministic per-site, per-round update with per-site fold weights.

    Unlike a uniform toy update, which sites land in which fold (and with
    which weight) changes the mean, so the digest sees every fold decision.
    """

    def __init__(self, site_name: str, fail_on_round: int | None = None) -> None:
        super().__init__(name="SiteLearner")
        self.index = int(site_name.rsplit("-", 1)[1])
        self.fail_on_round = fail_on_round

    def train(self, dxo: DXO, fl_ctx) -> DXO:
        round_number = int(fl_ctx.get_prop("current_round", 0))
        if self.index == 2 and round_number == self.fail_on_round:
            raise RuntimeError("injected failure")
        rng = np.random.default_rng(1000 * self.index + round_number)
        updated = {key: (np.asarray(value)
                         + rng.normal(0.1 * self.index, 0.05,
                                      size=np.shape(value))).astype(np.float32)
                   for key, value in dxo.data.items()}
        return DXO(DataKind.WEIGHTS, data=updated,
                   meta={MetaKey.NUM_STEPS_CURRENT_ROUND: 3 + self.index})

    def validate(self, dxo: DXO, fl_ctx) -> dict[str, float]:
        return {}


def initial_weights() -> dict[str, np.ndarray]:
    rng = np.random.default_rng(7)
    return {"encoder.weight": rng.normal(size=(16, 24)).astype(np.float32),
            "encoder.bias": rng.normal(size=24).astype(np.float32),
            "head.weight": rng.normal(size=(24, 3)).astype(np.float32)}


def weights_digest(weights: dict[str, np.ndarray]) -> str:
    """blake2b over names, dtypes, shapes and bytes of a state dict."""
    digest = hashlib.blake2b(digest_size=16)
    for key in sorted(weights):
        array = np.ascontiguousarray(weights[key])
        digest.update(f"{key}|{array.dtype.str}|{array.shape}|".encode("utf-8"))
        digest.update(array.tobytes())
    return digest.hexdigest()


JOBS = {
    "sync-plain": dict(num_rounds=3),
    # 3 of 6 sites per round; site-2 fails in round 1, whose cohort then
    # falls short of min_clients=3 and keeps the previous global model
    "sync-sampled-under-quorum": dict(
        num_rounds=4, clients_per_round=3, min_clients=3, max_failed_rounds=1,
        sampling_seed=11, fail_on_round=1),
    "sync-compressed-downlink-delta": dict(
        num_rounds=4, compression="delta+fp16+topk:0.1"),
    # 6 in flight, commits every 2: stale folds are discounted, and
    # anything more than one commit old is discarded
    "async-stale-discards": dict(
        num_rounds=5, mode="async", buffer_size=2, concurrency=6,
        staleness_alpha=0.5, max_staleness=1, sampling_seed=3),
}

GOLDEN = {
    "sync-plain": "105bada0f865f59ecd285edc59d8c0d0",
    "sync-sampled-under-quorum": "1bbe80b3f427a3da53a0fea3eda5d643",
    "sync-compressed-downlink-delta": "dfa400c9e6bb490d499322241585b121",
    "async-stale-discards": "a6a952a01d4948a70ffb38a584b9a7fc",
}


def run_job(name: str):
    options = dict(JOBS[name])
    fail_on_round = options.pop("fail_on_round", None)
    job = FLJob(name=name, initial_weights=initial_weights(),
                learner_factory=lambda site: SiteLearner(site, fail_on_round),
                **options)
    return SimulatorRunner(job, n_clients=6, seed=0, threads=False,
                           key_bits=128, capture_log=False).run()


@pytest.mark.parametrize("name", sorted(JOBS))
def test_final_checkpoint_matches_golden_digest(name):
    assert weights_digest(run_job(name).final_weights) == GOLDEN[name]
