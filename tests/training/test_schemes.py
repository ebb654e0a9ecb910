"""Centralized / standalone / federated schemes (tiny integration runs)."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.data import partition_balanced
from repro.models import build_classifier, build_mlm_model
from repro.training import (
    run_centralized,
    run_centralized_mlm,
    run_federated,
    run_federated_mlm,
    run_standalone,
)


@pytest.fixture(scope="module")
def setup(tiny_split, vocab_size):
    train, valid = tiny_split
    shards = {f"site-{i + 1}": train.subset(s)
              for i, s in enumerate(partition_balanced(len(train), 3, seed=0))}

    def factory():
        return build_classifier("lstm-tiny", vocab_size=vocab_size, seed=4)

    return train, valid, shards, factory


class TestClassificationSchemes:
    def test_centralized(self, setup):
        train, valid, _, factory = setup
        result = run_centralized(factory, train, valid, epochs=2, lr=1e-2)
        assert 0 <= result.final_acc <= 1
        assert result.best_acc >= result.final_acc
        assert len(result.history) == 2

    def test_standalone(self, setup):
        _, valid, shards, factory = setup
        result = run_standalone(factory, shards, valid, epochs=1)
        assert set(result.site_accs) == set(shards)
        assert 0 <= result.mean_acc <= 1
        assert result.best_acc >= result.mean_acc

    def test_federated(self, setup, tmp_path):
        _, valid, shards, factory = setup
        result = run_federated(factory, shards, valid, num_rounds=2,
                               local_epochs=1, run_dir=tmp_path)
        assert 0 <= result.final_acc <= 1
        assert result.simulation.stats.num_rounds == 2
        assert len(result.simulation.tokens) == 3

    def test_federated_sequential_mode(self, setup, tmp_path):
        _, valid, shards, factory = setup
        result = run_federated(factory, shards, valid, num_rounds=1,
                               local_epochs=1, threads=False, run_dir=tmp_path)
        assert result.simulation.stats.num_rounds == 1


class TestMlmSchemes:
    def test_centralized_mlm(self, tiny_sequences, tiny_collator, vocab_size):
        def factory():
            return build_mlm_model("bert-tiny", vocab_size=vocab_size, seed=0,
                                   max_seq_len=24)

        history = run_centralized_mlm(factory, tiny_sequences, tiny_sequences,
                                      tiny_collator, epochs=2, lr=1e-3)
        assert len(history) == 2
        assert history[-1].valid_loss is not None

    def test_federated_mlm(self, tiny_sequences, tiny_collator, vocab_size):
        def factory():
            return build_mlm_model("bert-tiny", vocab_size=vocab_size, seed=0,
                                   max_seq_len=24)

        shards = {f"site-{i + 1}": tiny_sequences.subset(s)
                  for i, s in enumerate(partition_balanced(len(tiny_sequences), 2,
                                                           seed=0))}
        losses, simulation = run_federated_mlm(factory, shards, tiny_sequences,
                                               tiny_collator, num_rounds=2,
                                               local_epochs=1, lr=1e-3)
        assert len(losses) == 2
        assert all(np.isfinite(losses))
        assert simulation.stats.num_rounds == 2


# Runs a tiny FL job of each objective and prints a digest of both final
# checkpoints.  The sequential drive keeps thread scheduling out of it, so
# the per-site learner seeds are the only thing the interpreter could vary.
# The MLM job runs again on threaded clients and must land on the same
# checkpoint: each site masks with its own collator.
_FRESH_INTERPRETER_RUN = textwrap.dedent("""
    import hashlib, logging, tempfile
    from repro.data import (CohortSpec, EhrTokenizer, MlmCollator,
                            SequenceDataset, encode_cohort, generate_cohort,
                            partition_balanced, train_valid_split)
    from repro.flare import set_console_level
    from repro.models import build_classifier, build_mlm_model
    from repro.training import run_federated, run_federated_mlm

    set_console_level(logging.ERROR)
    cohort = generate_cohort(CohortSpec(n_patients=120, seed=5))
    dataset = encode_cohort(cohort, EhrTokenizer(cohort.vocab, max_len=24))
    train_idx, valid_idx = train_valid_split(len(dataset), 0.25, seed=5)
    train, valid = dataset.subset(train_idx), dataset.subset(valid_idx)
    vocab = len(cohort.vocab)

    def shards_of(data):
        return {f"site-{i + 1}": data.subset(s) for i, s in
                enumerate(partition_balanced(len(data), 2, seed=0))}

    digest = hashlib.sha256()
    result = run_federated(
        lambda: build_classifier("lstm-tiny", vocab_size=vocab, seed=4),
        shards_of(train), valid, num_rounds=1, local_epochs=1,
        threads=False, run_dir=tempfile.mkdtemp())
    weights = result.simulation.final_weights
    sequences = SequenceDataset(train.input_ids, train.attention_mask)

    def run_mlm(threads):
        _, simulation = run_federated_mlm(
            lambda: build_mlm_model("bert-tiny", vocab_size=vocab, seed=0,
                                    max_seq_len=24),
            shards_of(sequences), sequences, MlmCollator(cohort.vocab, seed=5),
            num_rounds=2, local_epochs=1, threads=threads)
        return simulation.final_weights

    mlm = run_mlm(threads=False)
    threaded = run_mlm(threads=True)
    for key in sorted(mlm):
        if not (mlm[key] == threaded[key]).all():
            raise SystemExit(f"threaded MLM run diverged at {key}")
    for prefix, final in (("cls", weights), ("mlm", mlm)):
        for key in sorted(final):
            digest.update(f"{prefix}.{key}".encode())
            digest.update(final[key].tobytes())
    print(digest.hexdigest())
""")


def test_federated_seeds_survive_fresh_interpreters():
    """Regression: site seeds came from ``hash(name)``, which
    ``PYTHONHASHSEED`` randomizes per interpreter; and the MLM sites shared
    one collator, so threaded runs masked in scheduling order."""
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    digests = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
        completed = subprocess.run([sys.executable, "-c", _FRESH_INTERPRETER_RUN],
                                   env=env, capture_output=True, text=True,
                                   timeout=300)
        assert completed.returncode == 0, completed.stderr
        digests.append(completed.stdout.strip().splitlines()[-1])
    assert digests[0] == digests[1]
