"""SimulatorRunner end-to-end with toy learners (threads and sequential)."""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.autograd import blas_thread_info, get_blas_threads, set_blas_threads
from repro.autograd._blas import recommended_blas_threads
from repro.flare import FLJob, SimulatorRunner
from repro.flare import simulator as simulator_module
from repro.flare.runner import WorkerRuntime

from .helpers import ToyLearner, toy_weights


def make_job(num_rounds=3, evaluator=None, **kw):
    learners: dict[str, ToyLearner] = {}

    def factory(name: str) -> ToyLearner:
        learners[name] = ToyLearner(name, delta=1.0)
        return learners[name]

    job = FLJob(name="toy", initial_weights=toy_weights(0.0),
                learner_factory=factory, num_rounds=num_rounds,
                evaluator=evaluator, **kw)
    return job, learners


class TestThreadedRun:
    def test_weights_advance_by_delta_per_round(self, tmp_path):
        job, _ = make_job(num_rounds=3)
        result = SimulatorRunner(job, n_clients=4, seed=0, run_dir=tmp_path).run()
        np.testing.assert_allclose(result.final_weights["layer.weight"], 3.0)

    def test_all_clients_participate_every_round(self, tmp_path):
        job, learners = make_job(num_rounds=2)
        SimulatorRunner(job, n_clients=3, seed=0, run_dir=tmp_path).run()
        assert len(learners) == 3
        for learner in learners.values():
            assert learner.seen_rounds == [0, 1]
            assert learner.finalized

    def test_tokens_issued_per_client(self, tmp_path):
        job, _ = make_job(num_rounds=1)
        result = SimulatorRunner(job, n_clients=4, seed=0, run_dir=tmp_path).run()
        assert set(result.tokens) == {f"site-{i}" for i in range(1, 5)}
        assert len(set(result.tokens.values())) == 4

    def test_stats_recorded(self, tmp_path):
        job, _ = make_job(num_rounds=2)
        result = SimulatorRunner(job, n_clients=2, seed=0, run_dir=tmp_path).run()
        stats = result.stats
        assert stats.num_rounds == 2
        assert all(len(r.client_records) == 2 for r in stats.rounds)
        assert stats.messages_delivered > 0 and stats.bytes_delivered > 0

    def test_evaluator_metrics_and_best_model(self, tmp_path):
        def evaluator(weights):
            return {"valid_acc": float(np.mean(weights["layer.weight"]))}

        job, _ = make_job(num_rounds=3, evaluator=evaluator)
        result = SimulatorRunner(job, n_clients=2, seed=0, run_dir=tmp_path).run()
        history = result.stats.global_metric_history("valid_acc")
        assert history == [1.0, 2.0, 3.0]
        np.testing.assert_allclose(result.best_weights["layer.weight"], 3.0)

    def test_log_contains_fig3_stages(self, tmp_path):
        job, _ = make_job(num_rounds=1)
        result = SimulatorRunner(job, n_clients=2, seed=0, run_dir=tmp_path).run()
        log = result.log_text
        assert "joined. Sent token:" in log
        assert "aggregating 2 update(s) at round 0" in log
        assert "Round 0 finished." in log

    def test_deterministic_tokens_by_seed(self, tmp_path):
        job1, _ = make_job(num_rounds=1)
        result1 = SimulatorRunner(job1, n_clients=2, seed=42,
                                  run_dir=tmp_path / "a").run()
        job2, _ = make_job(num_rounds=1)
        result2 = SimulatorRunner(job2, n_clients=2, seed=42,
                                  run_dir=tmp_path / "b").run()
        assert result1.tokens == result2.tokens

    def test_failing_client_aborts_when_below_min(self, tmp_path):
        def factory(name: str) -> ToyLearner:
            return ToyLearner(name, fail_on_round=1)

        job = FLJob(name="toy", initial_weights=toy_weights(),
                    learner_factory=factory, num_rounds=3)
        with pytest.raises(RuntimeError, match="usable results"):
            SimulatorRunner(job, n_clients=2, seed=0, run_dir=tmp_path).run()

    def test_failing_client_tolerated_with_min_clients(self, tmp_path):
        calls = {"n": 0}

        def factory(name: str) -> ToyLearner:
            calls["n"] += 1
            fail = 1 if calls["n"] == 1 else None  # only first client fails
            return ToyLearner(name, fail_on_round=fail)

        job = FLJob(name="toy", initial_weights=toy_weights(),
                    learner_factory=factory, num_rounds=2, min_clients=1)
        result = SimulatorRunner(job, n_clients=2, seed=0, run_dir=tmp_path).run()
        assert result.stats.num_rounds == 2


class TestSequentialRun:
    def test_matches_threaded_result(self, tmp_path):
        job1, _ = make_job(num_rounds=3)
        threaded = SimulatorRunner(job1, n_clients=2, seed=0, threads=True,
                                   run_dir=tmp_path / "t").run()
        job2, _ = make_job(num_rounds=3)
        sequential = SimulatorRunner(job2, n_clients=2, seed=0, threads=False,
                                     run_dir=tmp_path / "s").run()
        np.testing.assert_allclose(threaded.final_weights["layer.weight"],
                                   sequential.final_weights["layer.weight"])


class PoolProbe(ToyLearner):
    """Records the BLAS pool size every time it trains."""

    def __init__(self, site_name: str, seen: list) -> None:
        super().__init__(site_name)
        self.seen = seen

    def train(self, dxo, fl_ctx):
        self.seen.append(get_blas_threads())
        return super().train(dxo, fl_ctx)


@pytest.fixture()
def blas_pool():
    """Skips without BLAS thread control; restores the pool afterwards."""
    if not blas_thread_info()["controllable"]:
        pytest.skip("the loaded BLAS exposes no thread-count control")
    before = get_blas_threads()
    yield
    set_blas_threads(before)


def probe_job(seen: list, num_rounds: int = 2) -> FLJob:
    return FLJob(name="pool", initial_weights=toy_weights(0.0),
                 learner_factory=lambda name: PoolProbe(name, seen),
                 num_rounds=num_rounds)


class TestBlasCoreBudget:
    """One policy on every fabric: each BLAS pool gets
    ``recommended_blas_threads(min(max_parallel, n_clients))`` threads."""

    def test_threaded_clients_train_on_the_split_pool(self, blas_pool,
                                                      tmp_path):
        seen: list = []
        SimulatorRunner(probe_job(seen), n_clients=4, max_parallel=2,
                        run_dir=tmp_path).run()
        assert seen and set(seen) == {recommended_blas_threads(2)}

    def test_sequential_drive_keeps_the_full_pool(self, blas_pool, tmp_path):
        full = recommended_blas_threads(1) + 1  # distinct from any split
        set_blas_threads(full)
        seen: list = []
        SimulatorRunner(probe_job(seen), n_clients=4, max_parallel=2,
                        threads=False, run_dir=tmp_path).run()
        assert seen and set(seen) == {full}

    def test_pool_restored_after_run(self, blas_pool, tmp_path):
        before = recommended_blas_threads(2) + 1  # observable on any box
        set_blas_threads(before)
        SimulatorRunner(probe_job([]), n_clients=4, max_parallel=2,
                        run_dir=tmp_path).run()
        assert get_blas_threads() == before

    def test_pool_restored_when_the_controller_raises(self, blas_pool,
                                                      tmp_path, monkeypatch):
        def explode(self):
            raise RuntimeError("controller failed")

        monkeypatch.setattr(simulator_module.ScatterAndGather, "run", explode)
        before = recommended_blas_threads(2) + 1
        set_blas_threads(before)
        with pytest.raises(RuntimeError, match="controller failed"):
            SimulatorRunner(probe_job([]), n_clients=4, max_parallel=2,
                            run_dir=tmp_path).run()
        assert get_blas_threads() == before

    def test_pool_stays_pinned_while_a_client_thread_survives(self, blas_pool):
        # a learner still training after the stop join may be inside a GEMM
        release = threading.Event()
        straggler = threading.Thread(target=release.wait, name="client-site-1")
        straggler.start()
        try:
            runner = SimulatorRunner(probe_job([]), n_clients=1)
            runner._client_threads = [straggler]
            set_blas_threads(1)
            runner._restore_blas_threads(recommended_blas_threads(1) + 1)
            assert get_blas_threads() == 1
        finally:
            release.set()
            straggler.join(timeout=5.0)
        assert not straggler.is_alive()
        runner._restore_blas_threads(recommended_blas_threads(1) + 1)
        assert get_blas_threads() == recommended_blas_threads(1) + 1

    def test_forked_workers_split_by_concurrent_trainers(self, tmp_path,
                                                         monkeypatch):
        # 8 cores, 4 sites, 2 training at once: 4 threads per worker (the
        # old split by site count gave 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        captured: list[WorkerRuntime] = []
        capture = WorkerRuntime.capture.__func__

        def spy(cls, workers, **kwargs):
            captured.append(capture(cls, workers, **kwargs))
            return captured[-1]

        monkeypatch.setattr(WorkerRuntime, "capture", classmethod(spy))
        result = SimulatorRunner(probe_job([]), n_clients=4, max_parallel=2,
                                 transport="shm", run_dir=tmp_path).run()
        assert result.stats.num_rounds == 2
        assert [runtime.blas_threads for runtime in captured] == [4]


class TestValidation:
    def test_bad_client_count(self):
        job, _ = make_job()
        with pytest.raises(ValueError):
            SimulatorRunner(job, n_clients=0)

    def test_bad_rounds(self):
        with pytest.raises(ValueError):
            FLJob(name="x", initial_weights=toy_weights(),
                  learner_factory=lambda n: ToyLearner(n), num_rounds=0)

    def test_empty_weights(self):
        with pytest.raises(ValueError):
            FLJob(name="x", initial_weights={},
                  learner_factory=lambda n: ToyLearner(n))
