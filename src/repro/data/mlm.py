"""Masked-language-model collation (BERT-style, Sec. III-B of the paper).

15% of non-special tokens are selected per sequence (``mask_prob = 0.15``).
Of the selected tokens, 80% are replaced by ``[MASK]``, 10% by a random
vocabulary token, and 10% are left unchanged *but still included in the loss*
— the regularisation the paper highlights ("10% of the tokens were not
masked but were included in the loss calculation").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .vocab import Vocabulary

__all__ = ["MlmExample", "MlmCollator", "IGNORE_INDEX"]

IGNORE_INDEX = -100


@dataclass
class MlmExample:
    """One masked batch: corrupted inputs and per-position targets."""

    input_ids: np.ndarray       # (n, seq) corrupted ids
    attention_mask: np.ndarray  # (n, seq) bool
    labels: np.ndarray          # (n, seq) original id at selected positions, else IGNORE_INDEX


class MlmCollator:
    """Apply BERT masking to batches of token ids."""

    def __init__(self, vocab: Vocabulary, mask_prob: float = 0.15,
                 replace_mask_frac: float = 0.8, replace_random_frac: float = 0.1,
                 seed: int = 31) -> None:
        if not 0.0 < mask_prob < 1.0:
            raise ValueError("mask_prob must be in (0, 1)")
        if replace_mask_frac + replace_random_frac > 1.0:
            raise ValueError("replacement fractions exceed 1")
        self.vocab = vocab
        self.mask_prob = mask_prob
        self.replace_mask_frac = replace_mask_frac
        self.replace_random_frac = replace_random_frac
        self._rng = np.random.default_rng(seed)
        self._special = np.asarray(vocab.special_ids, dtype=np.int64)

    def with_seed(self, seed: int) -> "MlmCollator":
        """These masking settings with a masking RNG of their own.

        The RNG advances on every call, so a collator shared by concurrent
        callers hands out masks in scheduling order; give each one its own.
        """
        return MlmCollator(self.vocab, mask_prob=self.mask_prob,
                           replace_mask_frac=self.replace_mask_frac,
                           replace_random_frac=self.replace_random_frac,
                           seed=seed)

    def __call__(self, input_ids: np.ndarray, attention_mask: np.ndarray) -> MlmExample:
        """Mask a batch; original arrays are not modified."""
        input_ids = np.asarray(input_ids, dtype=np.int64)
        attention_mask = np.asarray(attention_mask, dtype=bool)
        corrupted = input_ids.copy()
        labels = np.full_like(input_ids, IGNORE_INDEX)

        maskable = attention_mask & ~np.isin(input_ids, self._special)
        selected = maskable & (self._rng.random(input_ids.shape) < self.mask_prob)
        labels[selected] = input_ids[selected]

        # split the selected positions 80/10/10
        roll = self._rng.random(input_ids.shape)
        to_mask = selected & (roll < self.replace_mask_frac)
        to_random = selected & (roll >= self.replace_mask_frac) & (
            roll < self.replace_mask_frac + self.replace_random_frac)
        # the remainder stays unchanged but keeps its label (in-loss, unmasked)

        corrupted[to_mask] = self.vocab.mask_id
        n_random = int(to_random.sum())
        if n_random:
            low = len(self._special)
            corrupted[to_random] = self._rng.integers(low, len(self.vocab), size=n_random)
        return MlmExample(input_ids=corrupted, attention_mask=attention_mask, labels=labels)
