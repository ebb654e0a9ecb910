"""Simulator concurrency control: the max_parallel gate and thread hygiene."""

from __future__ import annotations

import threading
import time

import pytest

from repro.flare import DXO, DataKind, FaultPlan, FLJob, MetaKey, SimulatorRunner
from repro.flare.learner import Learner

from .helpers import ToyLearner, toy_weights


class ConcurrencyProbe(Learner):
    """Counts how many train() calls overlap in time."""

    lock = threading.Lock()
    active = 0
    peak = 0

    def __init__(self, site_name: str) -> None:
        super().__init__(name="ConcurrencyProbe")
        self.site_name = site_name

    def train(self, dxo: DXO, fl_ctx) -> DXO:
        cls = ConcurrencyProbe
        with cls.lock:
            cls.active += 1
            cls.peak = max(cls.peak, cls.active)
        time.sleep(0.05)
        with cls.lock:
            cls.active -= 1
        return DXO(DataKind.WEIGHTS, data=dict(dxo.data),
                   meta={MetaKey.NUM_STEPS_CURRENT_ROUND: 1})

    def validate(self, dxo, fl_ctx):
        return {}


@pytest.fixture(autouse=True)
def _reset_probe():
    ConcurrencyProbe.active = 0
    ConcurrencyProbe.peak = 0
    yield


def run_sim(max_parallel: int, n_clients: int = 6, tmp_dir=None):
    job = FLJob(name="probe", initial_weights=toy_weights(),
                learner_factory=ConcurrencyProbe, num_rounds=2)
    SimulatorRunner(job, n_clients=n_clients, seed=0, run_dir=tmp_dir,
                    max_parallel=max_parallel, capture_log=False).run()
    return ConcurrencyProbe.peak


def test_semaphore_caps_concurrent_training(tmp_path):
    peak = run_sim(max_parallel=2, tmp_dir=tmp_path)
    assert peak <= 2


def test_serialized_when_max_parallel_one(tmp_path):
    peak = run_sim(max_parallel=1, tmp_dir=tmp_path)
    assert peak == 1


def test_higher_cap_allows_overlap(tmp_path):
    peak = run_sim(max_parallel=6, tmp_dir=tmp_path)
    assert peak >= 2  # threads genuinely overlap when allowed


def test_invalid_max_parallel():
    job = FLJob(name="x", initial_weights=toy_weights(),
                learner_factory=ConcurrencyProbe)
    with pytest.raises(ValueError):
        SimulatorRunner(job, n_clients=2, max_parallel=0)


class TestNoThreadLeaks:
    """Every client worker thread must be joined, however the run ends."""

    @staticmethod
    def _live_threads() -> set[threading.Thread]:
        return {t for t in threading.enumerate() if t.is_alive()}

    def test_no_leak_after_faulted_run(self, tmp_path):
        before = self._live_threads()
        job = FLJob(name="leak-faulted", initial_weights=toy_weights(),
                    learner_factory=lambda n: ToyLearner(n), num_rounds=2,
                    min_clients=1, result_timeout=5.0)
        plan = FaultPlan(seed=1, drop_prob=0.3, crashed_clients=("site-2",))
        SimulatorRunner(job, n_clients=3, seed=0, run_dir=tmp_path,
                        capture_log=False, fault_plan=plan).run()
        assert self._live_threads() <= before

    def test_threads_joined_when_controller_aborts(self, tmp_path):
        before = self._live_threads()
        job = FLJob(name="leak-abort", initial_weights=toy_weights(),
                    learner_factory=lambda n: ToyLearner(n, fail_on_round=0),
                    num_rounds=3, result_timeout=5.0)
        with pytest.raises(RuntimeError, match="usable results"):
            SimulatorRunner(job, n_clients=2, seed=0, run_dir=tmp_path,
                            capture_log=False).run()
        assert self._live_threads() <= before


class SlowFirstRound(ToyLearner):
    """site-2 answers round 0 only after the server's deadline has passed."""

    def train(self, dxo: DXO, fl_ctx) -> DXO:
        if self.site_name == "site-2" and int(fl_ctx.get_prop("current_round", 0)) == 0:
            time.sleep(1.5)
        return super().train(dxo, fl_ctx)


def test_late_reply_is_not_folded_into_a_later_round(tmp_path):
    # site-2's round-0 reply lands during round 1; it must be discarded,
    # not folded into round 1 (which would leave every later round one
    # reply behind).  ToyLearner stamps train_loss = 1 / (1 + round).
    job = FLJob(name="late-reply", initial_weights=toy_weights(),
                learner_factory=SlowFirstRound, num_rounds=4, min_clients=1,
                result_timeout=1.0)
    stats = SimulatorRunner(job, n_clients=2, seed=0, run_dir=tmp_path,
                            capture_log=False).run().stats
    for record in stats.rounds:
        trained_in = {c.client: round(1.0 / c.train_loss) - 1
                      for c in record.client_records}
        assert len(trained_in) == len(record.client_records)  # no site twice
        assert set(trained_in.values()) <= {record.round_number}, record
        assert "site-1" in trained_in
    assert stats.rounds[0].dropped_clients == ["site-2"]
    assert all(not record.dropped_clients for record in stats.rounds[1:])
